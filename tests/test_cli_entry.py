"""``python -m octocf.cli`` as a subprocess: exit code, output and start-up imports.

The seven commands are those of the benchmark's ``cli`` workload.  Each must
print exactly what ``cli.main`` prints in process, and exactly the bytes whose
SHA-256 is pinned below, so a change in how output is written cannot drift it.
Each command must also load only the ``octocf`` modules it runs: a stray
top-level import in ``cli`` would make every command pay for the whole
package at start-up.  The standard-library modules a command loads are
counted from what the interpreter had already loaded, so what ``site``
loads does not move them.

``cli.main`` builds the parser of the one subcommand that argv names; its
usage line, help and error messages must be those of the parser of all eight.
"""

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from octocf import cli

ROOT = Path(__file__).resolve().parents[1]

EXPAND = {"octocf", "octocf.cli", "octocf.farey", "octocf.numerics"}
#: ``dump-matrices`` runs the label matrices alone, without the Farey map.
MOVES = {
    "octocf", "octocf.cli", "octocf.numerics", "octocf.diagch", "octocf.h2moves", "octocf.intmat"
}
OCTAGON = EXPAND | MOVES | {"octocf.octagon"}
#: Every command but ``render`` writes JSON.
JSON = {"octocf.jsonout"}

#: (argv, environment, SHA-256 of stdout, the octocf modules the command loads)
COMMANDS = [
    (
        ["expand", "--u=-5/14+13/28*sqrt(2)", "--depth", "7", "--dual"],
        {},
        "e69646ead9551f81191a998f30981645338664c7669ac7d5aeb949e1397e4367",
        EXPAND | JSON,
    ),
    (
        ["reconstruct", "--entries", "6,4,7,2,1,4,1,7,4,4,5,7,7,1,6"],
        {},
        "31c5208147885c4dee939e7529654793b60e6a0d1399067a48dc43fedbf3ebf4",
        EXPAND | JSON,
    ),
    (
        ["trace", "--u=-16489/1091", "--steps", "20"],
        {},
        "5f00a213c83215b88a8f7a1034b79c46a13e67a13ef5517ceb9a102397531268",
        OCTAGON | JSON,
    ),
    (
        # halts with hits_singularity after 2 steps
        ["trace", "--u=2", "--steps", "8"],
        {},
        "a6255c1cf1d3ae9022eea6324c8c4d496eec7ae450cf28b0e3d2e0e67ec89e7d",
        OCTAGON | JSON,
    ),
    (
        # a tie, taken high, and then a tail of 7s
        ["trace", "--u=1", "--steps", "6", "--policy", "high"],
        {},
        "273463972aa009bf433fda284bb38b1bab0306e2afb169c9b5092984f2d00246",
        OCTAGON | JSON,
    ),
    (
        ["verify", "--random-samples", "1"],
        {"OCTOCF_SEED": "756589"},
        "9c1370cfb234dc7d2e0fc9501d0be06bf0531db512fd621091779826c965e4b8",
        OCTAGON | JSON,
    ),
    (
        ["convergents", "--alpha", "golden", "--steps", "27"],
        {},
        "06a636a533057ca2b556dd39b8e4f8506399d5a52580f39884d1cbd21f4594a1",
        {"octocf", "octocf.cli", "octocf.classical", "octocf.numerics"} | JSON,
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
        MOVES | JSON,
    ),
]

#: Each run's id is its command's name, or its whole command line for a later run
#: of the same command.
_NAMES = [argv[0] for argv, *_ in COMMANDS]

each_command = pytest.mark.parametrize(
    "argv, env, digest, modules",
    COMMANDS,
    ids=[
        name if _NAMES.index(name) == k else " ".join(argv)
        for k, (name, (argv, *_)) in enumerate(zip(_NAMES, COMMANDS))
    ],
)

#: Imports ``octocf.cli``, runs ``cli.main`` on argv if there is one, and
#: prints on stderr the modules that this loaded: those of octocf, the others
#: (the standard library's), and the octocf modules holding the ray tracer.
_MODULES_CHILD = """
import sys
before = set(sys.modules)
from octocf import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
loaded = sorted(set(sys.modules) - before)
print({
    "octocf": [m for m in loaded if m.split(".")[0] == "octocf"],
    "stdlib": [m for m in loaded if m.split(".")[0] != "octocf"],
    "ray_tracer": [
        m for m in loaded
        if m.startswith("octocf") and hasattr(sys.modules[m], "enumerate_saddle_connections")
    ],
}, file=sys.stderr)
sys.exit(code)
"""

#: What defining a dataclass imports; ``inspect`` alone is about 8 ms of start-up.
_DATACLASS_IMPORTS = {"dataclasses", "inspect"}

#: What ``fractions`` loads; exact literals are read and written on ints.
_FRACTION_IMPORTS = {"fractions", "decimal", "numbers"}


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


def test_random_verify_samples_are_pinned():
    # each sample is octagon.sector_direction at a seeded parameter; the digest
    # was taken when the CLI drew its directions with a sampler of its own
    result = _child(["-m", "octocf.cli", "verify", "--random-samples", "2"], {"OCTOCF_SEED": "7"})
    assert result.returncode == cli.EXIT_OK, result.stderr.decode()
    digest = "57f2c431f088edfe7628da2e2adb6ba3393058cf2eac13647c6a7a8e06ac106a"
    assert hashlib.sha256(result.stdout).hexdigest() == digest


def _loaded(argv, env):
    result = _child(["-c", _MODULES_CHILD, *argv], env)
    assert result.returncode == cli.EXIT_OK, result.stderr.decode()
    # a warning, as for a decimal literal, comes before the modules' line
    return result.stdout, ast.literal_eval(result.stderr.decode().splitlines()[-1])


@each_command
def test_command_imports_only_what_it_runs(argv, env, digest, modules):
    stdout, loaded = _loaded(argv, env)
    assert hashlib.sha256(stdout).hexdigest() == digest
    assert loaded["octocf"] == sorted(modules)
    # the saddle-connection ray tracer is a test oracle: no command compiles it
    assert loaded["ray_tracer"] == []
    # output is written by octocf.jsonout; only the JSON file readers load json
    assert [m for m in loaded["stdlib"] if m.split(".")[0] == "json"] == []


@pytest.mark.parametrize(
    "argv",
    [[], ["convergents", "--alpha", "golden", "--steps", "27"], ["dump-matrices"]],
    ids=["import", "convergents", "dump-matrices"],
)
def test_start_up_builds_no_dataclass(argv):
    _, loaded = _loaded(argv, {})
    assert not _DATACLASS_IMPORTS & set(loaded["stdlib"]), loaded["stdlib"]


#: ``import octocf.cli`` alone, then each command.
_EXACT_RUNS = [([], {})] + [(argv, env) for argv, env, *_ in COMMANDS]


@pytest.mark.parametrize(
    "argv, env", _EXACT_RUNS, ids=[" ".join(argv) or "import" for argv, _ in _EXACT_RUNS]
)
def test_exact_literals_load_no_fractions(argv, env):
    # render's coordinates are rounded to decimals on ints too
    _, loaded = _loaded(argv, env)
    assert not _FRACTION_IMPORTS & set(loaded["stdlib"]), loaded["stdlib"]


def test_a_decimal_literal_loads_fractions_and_decimal():
    _, loaded = _loaded(["expand", "--u", "0.5"], {})
    assert {"fractions", "decimal"} <= set(loaded["stdlib"])


@pytest.mark.parametrize(
    "argv",
    [["render", "--input"], ["simulate", "--u", "1+sqrt2", "--steps", "1", "--quad"]],
    ids=["render --input FILE", "simulate --quad FILE"],
)
def test_a_json_file_reader_loads_json(argv, tmp_path):
    from octocf.octagon import qprime, sector_midpoint

    path = tmp_path / "qprime.json"
    path.write_text(json.dumps(qprime(sector_midpoint(4)).to_json()))
    _, loaded = _loaded([*argv, str(path)], {})
    assert "json" in loaded["stdlib"]


#: Imports ``octocf.cli`` and ``octocf.farey``, runs ``cli.main`` on each argv
#: of the list literal in argv[1], and prints how many block tables
#: ``farey._blocks`` holds after the import and after each command.
_BLOCKS_CHILD = """
import ast, contextlib, io, sys
from octocf import cli, farey
built = [farey._blocks.cache_info().currsize]
for argv in ast.literal_eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
    built.append(farey._blocks.cache_info().currsize)
print(built)
"""


def test_start_up_builds_no_block_table():
    # only reconstruct reads the table, so no other command builds it
    runs = {argv[0]: (argv, env) for argv, env, *_ in reversed(COMMANDS)}  # each first run
    names = ["expand", "trace", "verify", "render", "dump-matrices", "reconstruct"]
    env = {k: v for name in names for k, v in runs[name][1].items()}
    result = _child(["-c", _BLOCKS_CHILD, repr([runs[name][0] for name in names])], env)
    assert result.returncode == 0, result.stderr.decode()
    assert ast.literal_eval(result.stdout.decode()) == [0, 0, 0, 0, 0, 0, 1]


def _parse(parser, argv):
    """What ``parser`` prints on argv, its exit code, and the parsed arguments."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, parsed = 0, vars(parser.parse_args(argv))
        except SystemExit as exc:
            code, parsed = exc.code, None
    return code, out.getvalue(), err.getvalue(), parsed


#: Parser messages of the entry point at 80 columns, with their exit codes.
#: argparse words them differently from one Python version to the next, so
#: each is compared with what the parser of all eight subcommands prints in
#: process.
PARSER_MESSAGES = [
    ([], 2),
    (["--help"], 0),
    (["nope"], 2),
    (["expand", "--help"], 0),
    (["expand"], 2),
    (["verify", "--sector", "9"], 2),
]


@pytest.mark.parametrize(
    "argv, code", PARSER_MESSAGES, ids=[" ".join(c[0]) or "-" for c in PARSER_MESSAGES]
)
def test_parser_messages_are_pinned(argv, code, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    in_process = _parse(cli.build_parser(), argv)
    result = _child(["-m", "octocf.cli", *argv], {"COLUMNS": "80"})
    assert result.returncode == in_process[0] == code
    assert result.stdout.decode() == in_process[1]
    assert result.stderr.decode() == in_process[2]
    # help goes to stdout alone, an error message to stderr alone
    assert (result.stdout == b"") == (result.stderr != b"") == (code != 0)


@pytest.mark.parametrize(
    "argv",
    [[name, *rest] for name in cli._SUBCOMMANDS for rest in ([], ["--help"], ["--zzz"], ["x"])]
    + [["expand", "--u"], ["expand", "--u=1", "--policy", "mid"], ["expand", "--u=1", "--dual"]]
    + [["verify", "--sector", "9"], ["render", "--input", "qprime", "--scale", "x"]],
    ids=lambda argv: " ".join(argv),
)
def test_one_subcommand_parser_prints_what_the_full_parser_prints(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.build_parser(argv[0])._subparsers._group_actions[0].choices.keys() == {argv[0]}
    assert _parse(cli.build_parser(argv[0]), argv) == _parse(cli.build_parser(), argv)
