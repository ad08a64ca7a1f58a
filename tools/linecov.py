"""List the lines of ``src/octocf`` that no process runs in a tier-1 test run.

Usage, from any directory::

    python tools/linecov.py

It runs the tier-1 tests, ``python -m pytest -q --continue-on-collection-errors
-p no:cacheprovider``, in the repository root, with ``src`` and a
temporary directory holding a ``sitecustomize`` module put in front of
``PYTHONPATH``.  Every Python process that inherits that ``PYTHONPATH`` (the
test process and the ``octocf`` commands and other interpreters the tests
start) loads the module at start-up, traces with ``sys.settrace`` the lines it
runs in ``src/octocf``, and writes them to the temporary directory as it
exits.  A process that ends without running its exit handlers (``os._exit``,
a kill) is not counted.

The executable lines of each ``src/octocf/*.py`` are found with ``ast``: the
lines of every statement but a docstring and ``global``/``nonlocal``, and of a
compound statement only its header (its decorators included), without the
bodies of ``if TYPE_CHECKING:``, which never run.  A statement counts as run
when any of its lines is traced.

The script prints each executable line that no process ran and exits 1 if
there is one, else 0.  It does not read the tests' outcome: failed tests are
the tier-1 run's concern.  Standard library only; the temporary directory is
removed, so the checkout is left as it was (``.gitignore`` covers the caches
the tests write).
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "octocf"

#: The start-up module each traced process loads; it reads its two paths
#: from the environment and imports nothing that start-up has not loaded.
SITECUSTOMIZE = '''\
import atexit, os, sys

_PREFIX = os.environ["OCTOCF_LINECOV_PREFIX"]
_OUT = os.environ["OCTOCF_LINECOV_OUT"]
_hits = {}


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_PREFIX):
        return None
    _hits.setdefault(name, set())
    return _local


def _write():
    sys.settrace(None)
    with open(os.path.join(_OUT, f"{os.getpid()}.hits"), "w") as out:
        for name, lines in _hits.items():
            out.write(name + "\\t" + " ".join(map(str, sorted(lines))) + "\\n")


atexit.register(_write)
sys.settrace(_global)
'''


def _type_checking(node: ast.stmt) -> bool:
    """Whether ``node`` is ``if TYPE_CHECKING:`` or ``if typing.TYPE_CHECKING:``."""
    test = getattr(node, "test", None)
    name = test.attr if isinstance(test, ast.Attribute) else getattr(test, "id", None)
    return isinstance(node, ast.If) and name == "TYPE_CHECKING"


def _is_docstring(node: ast.stmt) -> bool:
    value = getattr(node, "value", None)
    return isinstance(node, ast.Expr) and isinstance(getattr(value, "value", None), str)


def executable_lines(source: str) -> dict[int, range]:
    """Each executable statement's first line, mapped to the lines whose trace
    counts for it: a simple statement's own lines, or a compound statement's
    header, from its first decorator to the line before its first block."""
    statements: dict[int, range] = {}

    def visit(body: list[ast.stmt]) -> None:
        for node in body:
            if _is_docstring(node) or isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            blocks = [getattr(node, name, None) for name in ("body", "orelse", "finalbody")]
            blocks += [clause.body for clause in getattr(node, "handlers", ())]
            blocks += [clause.body for clause in getattr(node, "cases", ())]
            blocks = [block for block in blocks if isinstance(block, list) and block]
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            last = min(block[0].lineno for block in blocks) - 1 if blocks else node.end_lineno
            statements[node.lineno] = range(first, max(last, node.lineno) + 1)
            if _type_checking(node):
                blocks = [node.orelse]
            for block in blocks:
                visit(block)

    visit(ast.parse(source).body)
    return statements


def traced_lines() -> tuple[dict[str, set[int]], int]:
    """The lines of ``src/octocf`` that the tier-1 run traced, per resolved file
    name, and the number of processes that wrote them."""
    with tempfile.TemporaryDirectory(prefix="octocf-linecov-") as tmp:
        out = Path(tmp, "hits")
        out.mkdir()
        Path(tmp, "sitecustomize.py").write_text(SITECUSTOMIZE)
        path = [tmp, str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, path)),
            OCTOCF_LINECOV_PREFIX=str(PACKAGE) + os.sep,
            OCTOCF_LINECOV_OUT=str(out),
        )
        command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
        subprocess.run([*command, "-p", "no:cacheprovider"], cwd=ROOT, env=env)
        hits: dict[str, set[int]] = {}
        files = list(out.glob("*.hits"))
        for file in files:
            for record in file.read_text().splitlines():
                name, _, lines = record.partition("\t")
                hits.setdefault(os.path.realpath(name), set()).update(map(int, lines.split()))
    return hits, len(files)


def main() -> int:
    hits, processes = traced_lines()
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        ran = hits.get(os.path.realpath(path), set())
        statements = executable_lines(source)
        total += len(statements)
        for first, span in sorted(statements.items()):
            if ran.isdisjoint(span):
                missed += 1
                print(f"src/octocf/{path.name}:{first}: {source.splitlines()[first - 1].strip()}")
    print(
        f"{total - missed} of {total} executable lines in src/octocf ran, "
        f"traced in {processes} processes; {missed} did not run"
    )
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
