"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Each workload must count a deliberately corrupted output as a failed op
without stopping the run, and the benchmark must refuse to run where there
is no octocf source.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402

common.use_source()

import refloop  # noqa: E402
import run  # noqa: E402
from octocf import farey, octagon  # noqa: E402
from octocf.numerics import QuadNum, Vec2  # noqa: E402
from wl_cli import CliResult, CliWorkload  # noqa: E402
from wl_farey import FareyWorkload  # noqa: E402
from wl_trace import TraceWorkload  # noqa: E402


def _corrupt_first(op, corrupt):
    """An op whose output for input 0 is passed through ``corrupt``."""

    def wrapped(i, x):
        out = op(x)
        return corrupt(out) if i == 0 else out

    return wrapped


class CorruptedOutputs(unittest.TestCase):
    def _run(self, wl, corrupt):
        wl.prepare()
        samples, failures = run.run_ops(
            wl, wl.inputs, _corrupt_first(wl.op, corrupt), refloop.RefClock()
        )
        self.assertEqual(len(samples), len(wl.inputs))  # the run went on
        self.assertEqual([i for i, _ in failures], [0])
        return failures[0][1]

    def test_perturbed_holonomy(self):
        def corrupt(trace):
            step = trace.steps[3]
            rec = step.records[0]
            label, v = rec.new_sides[0]
            bumped = Vec2(v.x + QuadNum(Fraction(1, 10**12)), v.y)
            rec = dataclasses.replace(rec, new_sides=((label, bumped),) + rec.new_sides[1:])
            step = dataclasses.replace(step, records=(rec,) + step.records[1:])
            return dataclasses.replace(trace, steps=trace.steps[:3] + (step,) + trace.steps[4:])

        message = self._run(TraceWorkload(99, 3), corrupt)
        self.assertIn("step 4: created holonomies", message)

    def test_swapped_dual_entry(self):
        def corrupt(results):
            first = results[0]
            e = list(first.dual.entries)
            k = max(i for i, s in enumerate(e) if s != first.dual.tail)
            e[k - 1], e[k] = e[k], e[k - 1]
            dual = dataclasses.replace(first.dual, entries=tuple(e))
            return (dataclasses.replace(first, dual=dual),) + results[1:]

        message = self._run(FareyWorkload(20260811, 3), corrupt)
        self.assertIn("not the two sequences", message)

    def test_nonzero_exit_code(self):
        wl = CliWorkload(1, 2)
        message = self._run(wl, lambda r: CliResult(1, r.stdout, "error: injected"))
        self.assertIn("exit code 1", message)


class Measuring(unittest.TestCase):
    def test_reference_loop_checksum(self):
        self.assertEqual(refloop.ref_pass(), refloop.REF_CHECKSUM)

    def test_tail_has_ten_samples_beyond(self):
        self.assertEqual(run.tail([float(v) for v in range(1, 51)]), (40.0, 80.0))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0))

    def test_tracer_restores_every_callable(self):
        from layers import LayerTracer

        originals = (farey.expand, octagon.expand, QuadNum.__mul__)
        tracer = LayerTracer()
        tracer.install()
        self.assertIsNot(octagon.expand, originals[1])
        tracer.uninstall()
        self.assertEqual((farey.expand, octagon.expand, QuadNum.__mul__), originals)


class CommandLine(unittest.TestCase):
    def _last_line(self, *args, cwd=common.ROOT):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", *args], cwd=cwd,
            capture_output=True, text=True, timeout=170,
        )
        return proc, proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""

    def test_prints_every_metric_of_the_definition(self):
        with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, line = self._last_line(
                "--workload", "farey", "--seed", "5", "--seconds", "1", "--trace", str(trace)
            )
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(line)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), {m["name"] for m in spec[key]})

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(
                common.BENCH_DIR, os.path.join(tmp, "perfbench"),
                ignore=shutil.ignore_patterns("out", "__pycache__"),
            )
            proc, line = self._last_line(
                "--workload", "trace", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(line, "")


if __name__ == "__main__":
    unittest.main()
