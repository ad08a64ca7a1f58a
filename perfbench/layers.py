"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps octocf's public callables at each layer boundary
(the layers are the modules: numerics, farey, diagch, h2moves/intmat,
octagon, classical, render, cli) and keeps spans and counters in memory.
Spans carry a name, start and end (CPU nanoseconds), the span that caused
them, and the op they belong to; a span's self time is its duration minus
that of its child spans.  Nothing inside ``src/`` is changed: a wrapper
replaces the callable wherever a module bound it, and :meth:`uninstall`
puts every original back.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from fractions import Fraction

from octocf import classical, cli, diagch, farey, h2moves, intmat, numerics, octagon, render
from octocf.numerics import Mat2, QuadNum

#: Spans: name -> (owner, attribute).  A module-level function is replaced in
#: every octocf module that imported it by name.
SPANS = {
    "farey.expand": (farey, "expand"),
    "farey.reconstruct": (farey, "reconstruct"),
    "farey.dual_expansion": (farey, "dual_expansion"),
    "diagch.apply": (diagch.LabeledQuadrangulation, "apply"),
    "diagch.transformed": (diagch.LabeledQuadrangulation, "transformed"),
    # not a reported metric: spanned so that run_expansion's self time is the
    # executor's own bookkeeping
    "diagch.relabeled": (diagch.LabeledQuadrangulation, "relabeled"),
    "octagon.run_expansion": (octagon, "run_expansion"),
    "octagon.verify_sector": (octagon, "verify_sector"),
    "classical.geometric_convergents": (classical, "geometric_convergents"),
    "render.render_states": (render, "render_states"),
    "cli.json": (json, "dumps"),
}

#: Plain call counters: name -> [(owner, attribute), ...].
COUNTERS = {
    "numerics.mul_calls": [(QuadNum, "__mul__"), (QuadNum, "__rmul__")],
    "numerics.add_calls": [(QuadNum, "__add__"), (QuadNum, "__radd__")],
    "numerics.sign_calls": [(QuadNum, "sign")],
    # each construction runs the full train-track validation
    "diagch.states_built": [(diagch.LabeledQuadrangulation, "__post_init__")],
    "intmat.matmul_calls": [(intmat, "matmul")],
}

_MODULES = (numerics, intmat, farey, diagch, h2moves, octagon, classical, render, cli)


class LayerTracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, int, str, int, int]] = []
        self.op_counts: dict[int, Counter] = {}
        self._stack: list[tuple[int, str]] = []
        self._counts = Counter()
        self._op = -1
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installing wrappers ---------------------------------------------------

    def install(self) -> None:
        for name, (owner, attr) in SPANS.items():
            self._replace(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for name, targets in COUNTERS.items():
            for owner, attr in targets:
                self._replace(owner, attr, self._count_wrapper(name, getattr(owner, attr)))
        plan = h2moves.sector_raw_plan

        def sector_raw_plan(i):
            tokens = plan(i)
            self._counts["h2moves.words"] += 1
            self._counts["h2moves.tokens"] += len(tokens)
            return tokens

        self._replace(h2moves, "sector_raw_plan", sector_raw_plan)
        apply = Mat2.apply
        stack = self._stack

        def mat2_apply(m, v):
            if stack and stack[-1][1].startswith("farey."):
                self._counts["farey.steps"] += 1
            return apply(m, v)

        self._replace(Mat2, "apply", mat2_apply)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _replace(self, owner, attr, wrapper) -> None:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
            return
        for module in _MODULES + ((owner,) if owner not in _MODULES else ()):
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapper)

    def _count_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            self._counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    # -- recording ---------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        start = time.process_time_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.process_time_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self._op, name, start, end))

    def run_op(self, op_id: int, name: str, fn, *args):
        """Run one benchmark op as a root span with its own counters."""
        self._op = op_id
        self._counts = self.op_counts[op_id] = Counter()
        return self.span(name, fn, *args)

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Self time in nanoseconds of every span, by span id."""
        own = {sid: end - start for sid, _, _, _, start, end in self.spans}
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")


def layer_metrics(tracer: LayerTracer, op_refs: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics from a traced run.

    ``op_refs`` maps each op id to the duration of one ref, in seconds, that
    bracketed it.  ``*_self_ref`` is self time per op, ``*_ref`` without
    "self" is inclusive time per call, and counts are per op except the
    per-step ones; a "step" is one sector word executed (a trace step or a
    verified sector).
    """
    ops = max(len(op_refs), 1)
    own = tracer.self_times()
    self_ref = Counter()
    incl_ref = Counter()
    calls = Counter()
    for sid, _, op, name, start, end in tracer.spans:
        scale = 1e-9 / op_refs[op]
        self_ref[name] += own[sid] * scale
        incl_ref[name] += (end - start) * scale
        calls[name] += 1
    counts = Counter()
    for op, c in tracer.op_counts.items():
        if op in op_refs:
            counts.update(c)
    words = counts["h2moves.words"]

    def per_call(name):
        return incl_ref[name] / calls[name] if calls[name] else 0.0

    return {
        "numerics.mul_calls": counts["numerics.mul_calls"] / ops,
        "numerics.add_calls": counts["numerics.add_calls"] / ops,
        "numerics.sign_calls": counts["numerics.sign_calls"] / ops,
        "farey.expand_self_ref": self_ref["farey.expand"] / ops,
        "farey.reconstruct_self_ref": self_ref["farey.reconstruct"] / ops,
        "farey.steps": counts["farey.steps"] / ops,
        "diagch.apply_calls": calls["diagch.apply"] / ops,
        "diagch.apply_self_ref": self_ref["diagch.apply"] / ops,
        "diagch.transformed_self_ref": self_ref["diagch.transformed"] / ops,
        "diagch.states_built": counts["diagch.states_built"] / ops,
        "h2moves.tokens_per_step": counts["h2moves.tokens"] / words if words else 0.0,
        "intmat.matmul_calls": counts["intmat.matmul_calls"] / words if words else 0.0,
        "octagon.run_expansion_self_ref": self_ref["octagon.run_expansion"] / ops,
        "octagon.verify_sector_ref": per_call("octagon.verify_sector"),
        "classical.geometric_convergents_ref": per_call("classical.geometric_convergents"),
        "render.render_states_ref": per_call("render.render_states"),
        "cli.json_self_ref": self_ref["cli.json"] / ops,
    }


# -- numerics micro-kernels ------------------------------------------------------

KERNEL_CALLS = 1000
KERNEL_REPEATS = 5


def random_quadnum(rng: random.Random, bits: int) -> QuadNum:
    def frac():
        return Fraction(rng.getrandbits(bits) | (1 << (bits - 1)), rng.getrandbits(bits) | 1)

    return QuadNum(frac(), -frac())


def numerics_kernels(seed: int, clock) -> dict[str, float]:
    """Time 1000 calls of QuadNum mul/add/sign/floor at fixed coefficient heights.

    Values are in ref per 1000 calls, the median of ``KERNEL_REPEATS`` timings,
    each bracketed by reference passes of ``clock`` (a :class:`RefClock`).
    """
    rng = random.Random(seed)
    pools = {bits: [random_quadnum(rng, bits) for _ in range(32)] for bits in (64, 1024)}

    def binary(op, pool):
        def run():
            for i in range(KERNEL_CALLS):
                op(pool[i % 32], pool[(7 * i + 3) % 32])
        return run

    def unary(op, pool):
        def run():
            for i in range(KERNEL_CALLS):
                op(pool[i % 32])
        return run

    kernels = {
        "numerics.mul_ref.b64": binary(QuadNum.__mul__, pools[64]),
        "numerics.mul_ref.b1024": binary(QuadNum.__mul__, pools[1024]),
        "numerics.add_ref.b64": binary(QuadNum.__add__, pools[64]),
        "numerics.sign_ref.b64": unary(QuadNum.sign, pools[64]),
        "numerics.floor_ref.b64": unary(QuadNum.floor, pools[64]),
    }
    out = {}
    for name, run in kernels.items():
        times = sorted(clock.timed(run)[2] for _ in range(KERNEL_REPEATS))
        out[name] = times[len(times) // 2]
    return out
