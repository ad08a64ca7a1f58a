#!/usr/bin/env python3
"""The octocf benchmark.

    python3 perfbench/run.py --workload trace --seed 99 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, untraced and traced
    python3 perfbench/run.py --baselines     # raw cross-check of the ROADMAP numbers

One run is one workload in this fresh process: a closed loop with one
client and one operation at a time.  Each op is checked exactly, and timed
in ref (see ``refloop.py``).  ``--seconds`` fixes how many ops the run makes,
from the workload's per-op cost at the seed commit; a slower program or a
slower machine state lengthens the run instead of shrinking the sample.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the batch
once untraced and once with spans around each layer's public callables, and
prints the per-layer metrics.  Every run writes its result record, with
provenance, to ``perfbench/out/``; a traced run also writes its spans there.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import common
import refloop

WORKLOADS = {
    "trace": ("wl_trace", "TraceWorkload"),
    "farey": ("wl_farey", "FareyWorkload"),
    "cli": ("wl_cli", "CliWorkload"),
}

#: Set-up is timed in ref like every op, and reported in seconds at the speed
#: at which one ref takes this long (the reference loop's fast-state time on
#: a 2-core VM), so that the machine's speed state does not move it.
SETUP_REF_SECONDS = 0.0065
SETUP_RUNS = 5

def load_workload(name: str):
    module, cls = WORKLOADS[name]
    return getattr(__import__(module), cls)


# -- provenance ----------------------------------------------------------------------


def provenance(seed: int) -> dict:
    sha = None  # outside a git checkout the source digest identifies the code
    if os.path.isdir(os.path.join(common.ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=common.ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(common.SRC, "octocf")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "ref_loop": refloop.definition(),
        "argv": sys.argv[1:],
    }


# -- measuring -------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and that percentile.

    With 10 samples or fewer, the maximum (percentile 100).
    """
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def measure_setup(wl, clock: refloop.RefClock) -> tuple[float, float]:
    """Median set-up over fresh interpreters: (in ref, raw CPU seconds)."""
    argv = wl.setup_argv()
    env = common.child_env()
    # The first child compiles bytecode, which an installed package has already.
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=170)
    refs, raws = [], []
    for _ in range(SETUP_RUNS):
        _, raw, ref = clock.timed(
            lambda: subprocess.run(argv, env=env, check=True, capture_output=True, timeout=170),
            refloop.children_cpu,
        )
        refs.append(ref)
        raws.append(raw)
    return statistics.median(refs), statistics.median(raws)


def run_ops(wl, inputs, op, clock, cpu=None, on_result=None):
    """Run ``op`` on every input in turn, checking each output.

    Returns ``(samples, failures)``: ``samples`` holds ``(index, raw, ref)`` of
    each op that returned, ``failures`` ``(index, message)`` of each op that
    raised or failed a check.  A failure never stops the run.
    """
    samples, failures = [], []
    for i, x in enumerate(inputs):
        try:
            out, raw, ref = clock.timed(lambda: op(i, x), cpu or time.process_time)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            failures.append((i, f"raised {exc!r}"))
            continue
        samples.append((i, raw, ref))
        try:
            wl.check(x, out)
        except Exception as exc:  # a check that cannot even parse the output fails it too
            failures.append((i, f"{type(exc).__name__}: {exc}"))
            continue
        if on_result:
            on_result(i, x, out)
    return samples, failures


def run_untraced(wl, clock) -> tuple[dict, dict]:
    setup_ref, setup_raw = measure_setup(wl, clock)
    wl.prepare()
    cpu = refloop.children_cpu if wl.name == "cli" else None
    samples, failures = run_ops(wl, wl.inputs, lambda i, x: wl.op(x), clock, cpu)
    if not samples:
        raise RuntimeError(f"no op completed; first failure: {failures[0][1]}")
    refs = [r for _, _, r in samples]
    raws = [r for _, r, _ in samples]
    tail_ref, pct = tail(refs)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    attempted = len(wl.inputs)
    metrics = {
        "op_p50_ref": statistics.median(refs),
        "op_tail_ref": tail_ref,
        "total_ref": sum(refs),
        "setup_s": setup_ref * SETUP_REF_SECONDS,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "ok_ratio": (attempted - len(failures)) / attempted,
    }
    detail = {
        "tail_percentile": pct,
        "samples": len(refs),
        "raw_seconds": {
            "op_p50": statistics.median(raws),
            "op_tail": tail(raws)[0],
            "total": sum(raws),
            "setup": setup_raw,
        },
        "setup_ref": setup_ref,
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:10],
    }
    return metrics, detail


def child_cpu_ms(argv: list[str]) -> float:
    """Median CPU milliseconds of a child interpreter running ``argv``."""
    times = []
    for _ in range(SETUP_RUNS):
        start = refloop.children_cpu()
        subprocess.run(argv, env=common.child_env(), check=True, capture_output=True, timeout=60)
        times.append((refloop.children_cpu() - start) * 1e3)
    return statistics.median(times)


def run_traced(wl, clock, seed: int, spans_path: str) -> tuple[dict, dict]:
    from layers import LayerTracer, layer_metrics, numerics_kernels
    from wl_cli import COMMANDS, run_in_process

    if wl.name == "cli":
        del wl.inputs[len(COMMANDS) * 7:]  # one sweep, in process

        def op(i, x):
            return run_in_process(x)
    else:
        del wl.inputs[max(5, len(wl.inputs) // 2):]

        def op(i, x):
            return wl.op(x)

    wl.prepare()
    inputs = wl.inputs

    untraced, failures = run_ops(wl, inputs, op, clock)
    tracer = LayerTracer()
    op_refs, bits, per_cmd, stdout_bytes = {}, [], {}, []

    def record(i, x, out):
        if b := wl.bits(out):
            bits.append(b)
        if wl.name == "cli":
            stdout_bytes.append(len(out.stdout.encode()))

    tracer.install()
    try:
        traced, traced_failures = run_ops(
            wl, inputs, lambda i, x: tracer.run_op(i, f"{wl.name}.op", op, i, x), clock,
            on_result=record,
        )
    finally:
        tracer.uninstall()
    failures += traced_failures
    for i, raw, ref in traced:
        op_refs[i] = raw / ref
        if wl.name == "cli":
            per_cmd.setdefault(inputs[i].command, []).append(ref)
    tracer.spans = [s for s in tracer.spans if s[2] in op_refs]
    metrics = layer_metrics(tracer, op_refs)
    metrics.update(numerics_kernels(seed, clock))
    metrics["numerics.max_bits"] = statistics.median(bits) if bits else 0
    for cmd in COMMANDS:
        refs = per_cmd.get(cmd)
        metrics[f"cli.{cmd}_ref"] = statistics.mean(refs) if refs else 0.0
    metrics["cli.stdout_bytes"] = statistics.mean(stdout_bytes) if stdout_bytes else 0
    interp = child_cpu_ms([sys.executable, "-c", "pass"])
    metrics["cli.interp_ms"] = interp
    metrics["cli.import_ms"] = child_cpu_ms([sys.executable, "-c", "import octocf.cli"]) - interp
    metrics["bench.ref_ms"] = statistics.median(clock.passes) * 1e3
    untraced_total = sum(r for _, _, r in untraced)
    metrics["bench.trace_overhead"] = sum(r for _, _, r in traced) / untraced_total
    tracer.write(spans_path)
    detail = {
        "attempted": 2 * len(inputs),
        "failures": failures[:10],
        "failed": len(failures),
        "untraced_total_ref": untraced_total,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, common.ROOT),
    }
    return metrics, detail


# -- reporting -----------------------------------------------------------------------------


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_workload(args) -> int:
    cls = load_workload(args.workload)
    seed = cls.default_seed if args.seed is None else args.seed
    wl = cls(seed, cls.count_for(args.seconds))
    clock = refloop.RefClock()
    os.makedirs(common.OUT_DIR, exist_ok=True)
    stem = os.path.join(common.OUT_DIR, f"{args.workload}-seed{seed}-trace{args.trace}")
    if args.trace:
        metrics, detail = run_traced(wl, clock, seed, stem + ".spans.jsonl")
        units = metric_units("per_layer")
        attempted, failed = detail["attempted"], detail["failed"]
    else:
        metrics, detail = run_untraced(wl, clock)
        units = metric_units("end_to_end")
        attempted, failed = len(wl.inputs), len(detail["failures"])
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    detail["ref_ms_median"] = statistics.median(clock.passes) * 1e3
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "ops": len(wl.inputs),
        "provenance": provenance(seed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "detail": detail,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"workload {args.workload}  seed {seed}  ops {len(wl.inputs)}  trace {args.trace}")
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    if not args.trace:
        raw = detail["raw_seconds"]
        print(f"  tail = p{detail['tail_percentile']:.1f} of {detail['samples']} samples;"
              f" raw s: p50 {raw['op_p50']:.4f}  tail {raw['op_tail']:.4f}"
              f"  total {raw['total']:.3f}  setup {raw['setup']:.4f};"
              f" ref {detail['ref_ms_median']:.3f} ms")
    for i, message in detail["failures"]:
        print(f"  FAILED op {i}: {message}")
    print(f"  record: {os.path.relpath(stem + '.json', common.ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, untraced then traced."""
    summary = {}
    code = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                argv += ["--seed", str(args.seed)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                code = 1
                continue
            summary[f"{name}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    os.makedirs(common.OUT_DIR, exist_ok=True)
    path = os.path.join(common.OUT_DIR, f"summary-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps({
        "correct": code == 0 and all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()) or 1,
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{k}/{m}": v for k, r in summary.items() for m, v in r["metrics"].items()},
    }))
    return code


def baselines() -> int:
    """Raw CPU/wall seconds of the ROADMAP baseline measurements (no ref units)."""
    from layers import random_quadnum
    from wl_trace import TraceWorkload
    import random

    from octocf.octagon import run_expansion

    trace = TraceWorkload(99, 20)
    times = []
    for d in trace.inputs:
        start = time.process_time()
        run_expansion(d, 50)
        times.append(time.process_time() - start)
    rng = random.Random(37)
    pool = [random_quadnum(rng, 37) for _ in range(32)]
    mul = []
    for _ in range(5):
        start = time.process_time()
        for i in range(10000):
            pool[i % 32] * pool[(7 * i + 3) % 32]
        mul.append((time.process_time() - start) / 10000)
    verify = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "octocf.cli", "verify"], env=common.child_env(),
                       check=True, capture_output=True, timeout=120)
        verify.append(time.perf_counter() - start)
    print(json.dumps({
        "run_expansion_50_s": statistics.median(times),
        "quadnum_mul_37bit_us": statistics.median(mul) * 1e6,
        "octocf_verify_wall_s": statistics.median(verify),
        "ref_ms": statistics.median(refloop.RefClock().ref() for _ in range(9)) * 1e3,
        "provenance": provenance(99),
    }, indent=1))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baselines", action="store_true")
    args = parser.parse_args(argv)
    if not common.have_source():
        print(f"error: no octocf source under {common.SRC}", file=sys.stderr)
        return 2
    common.use_source()
    # One CPU for this process and its children: the reference passes then
    # see the speed state of the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.baselines:
        return baselines()
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
