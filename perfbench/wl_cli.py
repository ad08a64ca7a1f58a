"""Workload ``cli``: what a command-line user waits for.

A round-robin of ``python -m octocf.cli`` subprocesses with seeded
arguments: ``expand --dual``, ``reconstruct``, ``trace --steps 20``,
``verify --random-samples`` (``OCTOCF_SEED`` drawn from the benchmark seed),
``convergents --alpha golden``, ``render --input sector:<i>`` and
``dump-matrices``.  The bare interpreter and ``import octocf.cli`` dominate
the small commands, so this is where a library gain that makes start-up
slower shows.  A batch is a whole number of sweeps over the seven sectors,
so every seed runs every render and the same mix of commands; later sweeps
repeat the first.

There are seven commands, not six, so that the median op is one of the four
cheap, start-up-bound commands.  With six commands in equal numbers the
median fell between the third and fourth cheapest, and moved 4.3% between
seeds.

Each op must exit 0 and print exactly what the same command prints when
run in process through ``octocf.cli.main``: JSON, or SVG for ``render``.
``verify`` must report ``"passed": true``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, field
from fractions import Fraction

from common import child_env, fraction_bits, require
from wl_farey import pull_back
from wl_trace import interior_direction

COMMANDS = ("expand", "reconstruct", "trace", "verify", "convergents", "render", "dump_matrices")
ROUND = len(COMMANDS)
SWEEP = 7 * ROUND  # one render per sector


@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]
    env: tuple[tuple[str, str], ...] = ()

    @property
    def command(self) -> str:
        return self.argv[0].replace("-", "_")


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    stderr: str = field(default="", compare=False)


def run_subprocess(op: CliOp) -> CliResult:
    proc = subprocess.run(
        [sys.executable, "-m", "octocf.cli", *op.argv],
        env=child_env(dict(op.env)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def run_in_process(op: CliOp) -> CliResult:
    """The same command through ``octocf.cli.main`` in this process."""
    from octocf import cli

    saved = {k: os.environ.get(k) for k, _ in op.env}
    os.environ.update(op.env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return CliResult(code, out.getvalue(), err.getvalue())


def _terminating_u(rng: random.Random) -> tuple[str, int]:
    """A direction with a dual expansion, as an exact literal, and a depth that shows it."""
    prefix = [rng.randint(1, 7) for _ in range(rng.randint(3, 6))]
    junction, tail = rng.choice(((2, 1), (4, 1), (6, 1), (1, 7), (3, 7), (5, 7)))
    d = pull_back(prefix + [junction], tail)
    return str(d.vector.x / d.vector.y), len(prefix) + 4


class CliWorkload:
    name = "cli"
    default_seed = 1
    #: Mean raw CPU seconds of one command (interpreter start-up included) at
    #: the seed commit, fast state of a 2-core VM; fixes how many commands a
    #: run of a given length makes.
    op_seconds = 0.20
    trace_steps = 20
    random_samples = 1

    @classmethod
    def count_for(cls, seconds: float) -> int:
        # Rounded up: the median and tail of short commands need many samples.
        return SWEEP * math.ceil(seconds / (SWEEP * cls.op_seconds))

    def __init__(self, seed: int, count: int):
        rng = random.Random(seed)
        offset = rng.randrange(7)
        self.inputs: list[CliOp] = []
        for r in range(min(7, -(-count // ROUND))):
            u, depth = _terminating_u(rng)
            self.inputs += [
                CliOp(("expand", f"--u={u}", "--depth", str(depth), "--dual")),
                CliOp(("reconstruct", "--entries",
                       ",".join(str(rng.randint(1, 7)) for _ in range(rng.randint(8, 16))))),
                CliOp(("trace", f"--u={interior_direction(rng, self.trace_steps).vector.x.a}",
                       "--steps", str(self.trace_steps))),
                CliOp(("verify", "--random-samples", str(self.random_samples)),
                      (("OCTOCF_SEED", str(rng.randrange(10**6))),)),
                CliOp(("convergents", "--alpha", "golden", "--steps", str(rng.randint(20, 40)))),
                CliOp(("render", "--input", f"sector:{(offset + r) % 7 + 1}")),
                CliOp(("dump-matrices",)),
            ]
        # Later sweeps repeat the first, so each distinct command is run in
        # process only once for its expected output.
        self.inputs = (self.inputs * -(-count // len(self.inputs)))[:count]
        self.expected: dict[CliOp, CliResult] = {}

    def prepare(self) -> None:
        for op in self.inputs:
            if op not in self.expected:
                self.expected[op] = run_in_process(op)

    def op(self, op: CliOp) -> CliResult:
        return run_subprocess(op)

    def check(self, op: CliOp, r: CliResult) -> None:
        require(r.returncode == 0, f"exit code {r.returncode}: {r.stderr.strip()[-200:]}")
        require(r == self.expected[op], "output differs from the in-process result")
        if op.command == "render":
            root = ElementTree.fromstring(r.stdout)
            require(root.tag.endswith("svg"), f"root element {root.tag}")
            return
        obj = json.loads(r.stdout)
        if op.command == "verify":
            require(obj.get("passed") is True, "verification did not pass")
        elif op.command == "expand":
            require(obj["terminating"] and "dual" in obj, "no dual expansion")
        elif op.command == "trace":
            require(obj["halted"] is None, f"halted: {obj['halted']}")
            require(len(obj["steps"]) == self.trace_steps, "wrong number of steps")

    def bits(self, r: CliResult) -> int:
        if not r.stdout.startswith("{"):
            return 0
        return _json_bits(json.loads(r.stdout))

    def setup_argv(self) -> list[str]:
        return [sys.executable, "-c", "import octocf.cli"]


def _json_bits(obj) -> int:
    """Largest coefficient bit-height of the field elements in a JSON document."""
    if isinstance(obj, list):
        return max((_json_bits(x) for x in obj), default=0)
    if not isinstance(obj, dict):
        return 0
    if obj.keys() == {"a", "b"} and all(isinstance(v, str) for v in obj.values()):
        return max(fraction_bits(Fraction(v)) for v in obj.values())
    return max((_json_bits(v) for v in obj.values()), default=0)
