"""``python -m octocf.cli`` as a subprocess: exit code, output and start-up imports.

The seven commands are those of the benchmark's ``cli`` workload.  Each must
print exactly what ``cli.main`` prints in process, and exactly the bytes whose
SHA-256 is pinned below, so a change in how output is written cannot drift it.
Each command must also load only the ``octocf`` modules it runs: a stray
top-level import in ``cli`` would make every command pay for the whole
package at start-up.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from octocf import cli

ROOT = Path(__file__).resolve().parents[1]

EXPAND = {"octocf", "octocf.cli", "octocf.farey", "octocf.numerics"}
MOVES = EXPAND | {"octocf.diagch", "octocf.h2moves", "octocf.intmat"}
OCTAGON = MOVES | {"octocf.octagon"}

#: (argv, environment, SHA-256 of stdout, the octocf modules the command loads)
COMMANDS = [
    (
        ["expand", "--u=-5/14+13/28*sqrt(2)", "--depth", "7", "--dual"],
        {},
        "e69646ead9551f81191a998f30981645338664c7669ac7d5aeb949e1397e4367",
        EXPAND,
    ),
    (
        ["reconstruct", "--entries", "6,4,7,2,1,4,1,7,4,4,5,7,7,1,6"],
        {},
        "31c5208147885c4dee939e7529654793b60e6a0d1399067a48dc43fedbf3ebf4",
        EXPAND,
    ),
    (
        ["trace", "--u=-16489/1091", "--steps", "20"],
        {},
        "5f00a213c83215b88a8f7a1034b79c46a13e67a13ef5517ceb9a102397531268",
        OCTAGON,
    ),
    (
        ["verify", "--random-samples", "1"],
        {"OCTOCF_SEED": "756589"},
        "9c1370cfb234dc7d2e0fc9501d0be06bf0531db512fd621091779826c965e4b8",
        OCTAGON,
    ),
    (
        ["convergents", "--alpha", "golden", "--steps", "27"],
        {},
        "06a636a533057ca2b556dd39b8e4f8506399d5a52580f39884d1cbd21f4594a1",
        {"octocf", "octocf.cli", "octocf.classical", "octocf.numerics"},
    ),
    (
        ["render", "--input", "sector:3"],
        {},
        "cb312827bcb7837e7723d0345e8441a4bbf57cbbd1218f61ee9b6f5bd047a5a6",
        OCTAGON | {"octocf.render"},
    ),
    (
        ["dump-matrices"],
        {},
        "74ff7f0db5a88aade7c556b81c8fe836d5592a89958ba19c92090cdfcbe6e795",
        MOVES,
    ),
]

each_command = pytest.mark.parametrize(
    "argv, env, digest, modules", COMMANDS, ids=[argv[0] for argv, *_ in COMMANDS]
)

#: Runs ``cli.main`` on argv and prints the loaded octocf modules on stderr.
_MODULES_CHILD = """
import sys
from octocf import cli
code = cli.main(sys.argv[1:])
print(sorted(m for m in sys.modules if m.startswith("octocf")), file=sys.stderr)
sys.exit(code)
"""


def _child(args, env_extra):
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, timeout=120, check=False
    )


def _in_process(argv, env_extra, monkeypatch):
    for key, value in env_extra.items():
        monkeypatch.setenv(key, value)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@each_command
def test_entry_point_prints_the_in_process_output(argv, env, digest, modules, monkeypatch):
    result = _child(["-m", "octocf.cli", *argv], env)
    assert result.returncode == cli.EXIT_OK, result.stderr.decode()
    assert result.stderr == b""
    assert hashlib.sha256(result.stdout).hexdigest() == digest
    assert _in_process(argv, env, monkeypatch) == (cli.EXIT_OK, result.stdout.decode())


@each_command
def test_command_imports_only_what_it_runs(argv, env, digest, modules):
    result = _child(["-c", _MODULES_CHILD, *argv], env)
    assert result.returncode == cli.EXIT_OK, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == digest
    assert result.stderr.decode().strip() == str(sorted(modules))
