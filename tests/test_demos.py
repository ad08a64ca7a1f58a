"""The text demos print exactly their committed transcripts in demos/out/.

The transcripts pin, among other things, the tie itineraries of pi/8 under
both policies and the exact intervals reconstructed from runs of 1s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", ["01_expansions", "02_torus_baseline", "03_acceleration"])
def test_demo_prints_its_transcript(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (DEMOS / "out" / f"{name}.txt").read_bytes()
