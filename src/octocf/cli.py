"""Command-line front end: expansions, convergents, traces, verification, SVG.

All subcommands print JSON on stdout unless ``--out`` redirects to a file,
byte for byte as ``json.dumps(obj, indent=2)`` writes it, through
:func:`jsonout.json_text`, which needs no ``json`` import.
Exit codes are fixed for CI use: 0 success, 1 verification failure, 2 parse
failure, 3 I/O failure.  Directions may be given exactly (``3/2+1/4*sqrt2``,
``inf``) or as decimals, which are converted to a nearby rational (marked
approximate in the output).  OCTOCF_SEED fixes the random sampling used by
``verify --random-samples``.  Each subcommand imports the modules it runs, and
:func:`main` builds the parser of that subcommand alone, so a command's
start-up holds only its own part of the package.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .numerics import Direction, QuadNum, QuadNumParseError, Vec2, _int_arg, _max_int_digits

#: ``typing.TYPE_CHECKING`` without importing ``typing`` at start-up; type
#: checkers take any constant of this name as true.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import random
    from fractions import Fraction

    from .farey import TiePolicy

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_IO = 3

#: The largest denominator of the rational that replaces a decimal input.
_MAX_DENOMINATOR = 10**6

#: The largest value of a count flag (``--depth``, ``--steps``, ``--samples``,
#: ``--random-samples``) and of the intermediates a ``convergents`` listing holds.
_MAX_COUNT = 10**6

class _ParseFailure(ValueError):
    pass


class _IOFailure(Exception):
    pass


def _parse_direction(text: str, side: str) -> tuple[Direction, bool]:
    """An exact or decimal inverse-slope literal; returns (direction, approximate).

    ``inf`` is the angle-0 ray when ``side`` is ``pos``, the angle-pi ray when ``neg``.
    """
    text = text.strip()
    if text.lower() in ("inf", "infinity", "oo"):
        return Direction(Vec2(1 if side == "pos" else -1, 0)), False
    try:
        u, approximate = QuadNum.parse(text), False
    except QuadNumParseError:
        u, approximate = _decimal(text, "a direction"), True
    return Direction(Vec2(u, 1)), approximate


def _decimal(text: str, what: str) -> Fraction:
    """A decimal literal, replaced by a nearby rational with a warning on stderr.

    Fraction expands a literal's exponent into an exact integer, so Decimal
    reads the exponent first: below 10**-7 the literal reads as 0, and a
    literal whose nearby rational could pass the int-to-str limit that
    :func:`numerics._max_int_digits` reads is refused.  A ratio ``a/b``,
    which Decimal cannot read, and a literal with stray underscores, which
    only Decimal reads, go to Fraction as they are.
    """
    import decimal
    from fractions import Fraction

    value = text
    # an underscore not between two digits: Decimal reads it, Fraction refuses it
    if "/" not in text and not re.search(r"(?<!\d)_|_(?!\d)", text):
        try:
            literal = decimal.Decimal(text)
        except decimal.InvalidOperation:
            raise _ParseFailure(f"cannot parse {text!r} as {what}") from None
        if literal.is_finite():
            if literal.is_zero() or literal.adjusted() < -7:
                value = 0
            # A denominator of at most 10**6 gives the nearby rational's
            # numerator up to six more digits than the literal's integer part.
            elif literal.adjusted() >= (digits := _max_int_digits() - 6):
                raise _ParseFailure(
                    f"decimal input {text!r} has more than {digits} integer digits"
                )
    try:
        approx = Fraction(value).limit_denominator(_MAX_DENOMINATOR)
    except (ValueError, ZeroDivisionError) as exc:
        raise _ParseFailure(f"cannot parse {text!r} as {what}") from exc
    print(
        f"warning: decimal input {text!r} replaced by the nearby rational {approx}",
        file=sys.stderr,
    )
    return approx


def _plain_int(token: str, what: str) -> int:
    """The int that ``token`` writes in plain decimal, else a parse failure
    naming ``what``; int() alone would also take "02", "+1", " 3", "0_1" or the
    digits of other scripts."""
    try:
        value = int(token)
        if str(value) == token:
            return value
    except ValueError:
        pass
    raise _ParseFailure(f"cannot parse {what}")


def _policy(args) -> TiePolicy:
    from .farey import TiePolicy

    return TiePolicy(args.policy)  # the --policy choices are its values


def _emit(args, chunks) -> int:
    """Writes the strings ``chunks`` to the ``--out`` file or to stdout."""
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
    except OSError as exc:
        raise _IOFailure(f"cannot write output: {exc}") from exc
    return EXIT_OK


def _read_json(path: str | None, what: str):
    """The JSON document in file ``path``, or on stdin when ``path`` is None."""
    import json

    try:
        if path is None:
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _IOFailure(f"cannot read {what}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting exhausts recursion
        raise _ParseFailure(f"invalid {what} JSON: {exc}") from exc


def _batched(chunks):
    """The nonempty strings ``chunks`` joined in batches of 4096.

    The whole output is never held as one string, and batching keeps the
    writes few where stdout is unbuffered (one system call per write).
    """
    from itertools import islice

    return iter(lambda: "".join(islice(chunks, 4096)), "")


def _printed(build):
    """``build()``, a parse failure naming the digit limit when it converts an int
    past it to a string."""
    try:
        return build()
    except ValueError:  # str() of an int past the digit limit; Python's wording varies
        raise _ParseFailure(
            f"a coordinate has more than {_max_int_digits()} digits, past Python's "
            "int-to-string limit"
        ) from None


def _emit_json(args, obj) -> int:
    """``obj`` as indented JSON and a newline."""
    from .jsonout import json_text

    return _emit(args, (json_text(obj), "\n"))


# -- subcommands -----------------------------------------------------------------


def _cmd_expand(args) -> int:
    from .farey import dual_expansion, expand

    _int_arg(args.depth, "--depth", 1, _MAX_COUNT)
    direction, approximate = _parse_direction(args.u, args.side)
    e = expand(direction, args.depth, _policy(args))
    record = e.to_json()
    if approximate:
        record["approximate"] = True
    if args.dual and e.terminating:
        record["dual"] = dual_expansion(e).to_json()
    return _emit_json(args, record)


def _cmd_reconstruct(args) -> int:
    from .farey import reconstruct

    entries = [
        _plain_int(tok, f"entry {tok!r} in {args.entries!r}")
        for tok in args.entries.replace(",", " ").split()
    ]
    interval = reconstruct(entries)
    lo, hi = interval.lo, interval.hi
    record = _printed(lambda: {**interval.to_json(), "lo_u": lo.u_text(), "hi_u": hi.u_text()})
    record["theta_width"] = interval.theta_width()
    return _emit_json(args, record)


def _cmd_convergents(args) -> int:
    from . import classical

    _int_arg(args.steps, "--steps", 0)
    alpha, approximate = _parse_alpha(args.alpha)
    digits = _max_int_digits()
    listed, limit = 0, 10**digits

    def check(digit, vector):
        # Refuse at the step that crosses a limit, before any output is written.
        # Convergents grow, so each new vector holds the largest int listed so far.
        nonlocal listed
        listed += max(digit - 1, 0)
        if listed > _MAX_COUNT:
            raise _ParseFailure(f"more than {_MAX_COUNT} intermediate convergents to list")
        if max(vector) >= limit:
            raise _ParseFailure(f"convergents with more than {digits} digits to list")

    result = classical.geometric_convergents(alpha, args.steps, check)
    if args.format == "text":
        return _emit(args, _batched(_convergents_text(result)))
    return _emit(args, _batched(_convergents_json(result, approximate)))


def _convergents_json(result, approximate: bool):
    """The indented JSON of ``result.to_json()`` and a newline, in the layout of
    the record it builds, with the intermediate convergents written one per
    string as they are formed."""
    from .jsonout import json_text

    record = result._record(None)
    if approximate:
        record["approximate"] = True
    head, tail = json_text(record).split('"intermediates": null')
    yield head + '"intermediates": ['
    for idx, (digit, group) in enumerate(zip(result.digits, result.iter_intermediates())):
        yield ",\n    [" if idx else "\n    ["
        sep = "\n"
        for p, q in group:
            yield f"{sep}      [\n        {p},\n        {q}\n      ]"
            sep = ",\n"
        yield "\n    ]" if digit > 1 else "]"
    yield ("\n  ]" if result.digits else "]") + tail + "\n"


def _convergents_text(result):
    """The text table of ``result``, one intermediate convergent per string."""
    yield "step  digit  p/q" + " " * 12 + "intermediates"
    rows = zip(result.digits, result.vectors, result.iter_intermediates())
    for idx, (digit, vec, group) in enumerate(rows):
        frac = f"{vec[0]}/{vec[1]}"
        yield f"\n{idx:4d}  {digit:5d}  {frac:<14} "
        sep = ""
        for p, q in group:
            yield f"{sep}{p}/{q}"
            sep = " "
    if result.halted:
        yield "\nhalted: the direction is rational"
    yield "\n"


def _parse_alpha(text: str):
    """An exact or decimal positive number; returns (value, approximate)."""
    from . import classical

    text = text.strip()
    if text.lower() in ("sqrt2", "sqrt(2)"):
        return classical.QuadraticIrrational.sqrt_of(2), False
    if text.lower() in ("golden", "phi"):
        return classical.QuadraticIrrational.golden_ratio(), False
    try:
        return QuadNum.parse(text), False
    except QuadNumParseError:
        return _decimal(text, "a positive number"), True


def _cmd_simulate(args) -> int:
    _int_arg(args.steps, "--steps", 0, _MAX_COUNT)
    direction, approximate = _parse_direction(args.u, args.side)
    state = _initial_state(args.quad, direction)
    record = {"initial": state.to_json(), "steps": None, "halted": None}
    if approximate:
        record["approximate"] = True
    steps = _first_moves(state, args.steps)
    return _emit(args, _simulate_json(record, steps, args.steps))


def _first_moves(state, n: int):
    """Up to ``n`` steps of the first available move from ``state``, as JSON."""
    for _ in range(n):
        moves = state.available_moves()
        if not moves:
            return
        move = moves[0]
        state = state.apply(move)
        state_json = _printed(state.to_json)
        yield {"side": move.side.value, "cycle": list(move.cycle), "state": state_json}


def _simulate_json(record, steps, n: int):
    """The indented JSON of ``record`` and a newline, with each of ``steps``
    written as one string as it is made, and ``halted`` true when fewer than
    ``n`` came."""
    from .jsonout import json_text

    head, tail = json_text(record).split('"steps": null')
    yield head + '"steps": ['
    made = 0
    for step in steps:
        yield (",\n    " if made else "\n    ") + json_text(step, "\n    ")
        made += 1
    halted = json_text(made < n)
    yield ("\n  ]" if made else "]") + tail.replace('"halted": null', f'"halted": {halted}') + "\n"


def _initial_state(spec: str, direction: Direction):
    from . import octagon
    from .diagch import CombDatum, LabeledQuadrangulation, Wedge

    if spec == "qprime":
        return octagon.qprime(direction)
    if spec == "q0":
        return octagon.q_zero(direction)
    if spec == "torus":
        return LabeledQuadrangulation(
            CombDatum(1, (1,), (1,)), (Wedge(Vec2(0, 1), Vec2(1, 0)),), direction
        )
    data = _read_json(None if spec == "-" else spec, "quadrangulation")
    ref = {"ref_dir": direction.to_json()}
    return _decode(
        lambda obj: LabeledQuadrangulation.from_json({**obj, **ref}), data, "quadrangulation"
    )


def _decode(build, data, what: str):
    """``build(data)``, where valid JSON of the wrong shape is a parse failure
    naming ``what`` is read and, for a missing key, the field."""
    try:
        return build(data)
    except KeyError as exc:  # str() of a KeyError is the key's repr
        raise _ParseFailure(f"malformed {what} JSON: missing field {exc}") from exc
    except TypeError as exc:
        raise _ParseFailure(f"malformed {what} JSON: {exc}") from exc


def _cmd_trace(args) -> int:
    from . import octagon

    _int_arg(args.steps, "--steps", 0, _MAX_COUNT)
    direction, approximate = _parse_direction(args.u, args.side)
    trace = octagon.run_expansion(direction, args.steps, _policy(args))
    record = _printed(trace.to_json)
    if approximate:
        record["approximate"] = True
    return _emit_json(args, record)


def _cmd_verify(args) -> int:
    import random

    from . import octagon

    _int_arg(args.samples, "--samples", 1, _MAX_COUNT)
    _int_arg(args.random_samples, "--random-samples", 0, _MAX_COUNT)
    if args.random_samples:
        text = os.environ.get("OCTOCF_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise _ParseFailure(f"OCTOCF_SEED must be an integer, got {text!r}") from None
    sectors = [args.sector] if args.sector else range(1, 8)
    report = octagon.verify_theorem(args.samples, sectors)
    record = report.to_json()
    if args.random_samples:
        rng = random.Random(seed)
        extra = []
        for i in sectors:
            for _ in range(args.random_samples):
                d = octagon.sector_direction(i, _random_parameter(rng, i))
                extra.append(octagon.verify_sector(i, d))
        record["random_samples"] = [r.to_json() for r in extra]
        record["seed"] = seed
        passed = report.passed and all(r.passed for r in extra)
        record["passed"] = passed
    else:
        passed = report.passed
    _emit_json(args, record)
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


def _random_parameter(rng: random.Random, sector: int) -> QuadNum:
    """A random :func:`octagon.sector_direction` parameter of a sector 1..7."""
    if sector == 7:
        return QuadNum(rng.randint(1, 10**6)) / 10**3
    return QuadNum(rng.randint(1, 10**6 - 1)) / 10**6


def _cmd_dump_matrices(args) -> int:
    from . import h2moves

    record = {
        "moves": {m.value: [list(r) for r in m.matrix] for m in h2moves.ReducedMove},
        "sectors": {
            str(i): [list(r) for r in h2moves.sector_matrix(i)] for i in range(1, 8)
        },
    }
    return _emit_json(args, record)


def _cmd_render(args) -> int:
    from . import octagon, render

    if args.input == "qprime":
        states = [octagon.qprime(octagon.sector_midpoint(4))]
    elif args.input.startswith("sector:"):
        text = args.input.split(":", 1)[1]
        sector = _plain_int(text, f"sector index {text!r}")
        _int_arg(sector, "sector index", 1, 7)  # only the seven words exist
        states = octagon.sector_move_states(sector, octagon.sector_midpoint(sector))
    else:
        data = _read_json(None if args.input == "-" else args.input, "trace")
        states = _decode(render.trace_panels, data, "trace")
    overlay = None
    if args.direction is not None:
        overlay, _ = _parse_direction(args.direction, args.side)
    spec = render.RenderSpec(
        scale=args.scale,
        show_labels=not args.no_labels,
        direction_overlay=overlay,
    )
    return _emit(args, [render.render_states(states, spec)])


# -- argument parsing ---------------------------------------------------------------


def _add_direction_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--u",
        required=True,
        help="inverse slope: exact 'p/q+r/s*sqrt2', 'inf', or decimal"
        " (write negative values as --u=-3/2)",
    )
    p.add_argument(
        "--side",
        choices=("pos", "neg"),
        default="pos",
        help="at u=inf: 'pos' is the angle-0 ray, 'neg' the angle-pi ray",
    )


def _add_policy(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policy", choices=("low", "high"), default="low")


def _add_expand(p: argparse.ArgumentParser) -> None:
    _add_direction_args(p)
    p.add_argument("--depth", type=int, default=16)
    _add_policy(p)
    p.add_argument("--dual", action="store_true", help="include the dual expansion when terminating")


def _add_reconstruct(p: argparse.ArgumentParser) -> None:
    p.add_argument("--entries", required=True, help="comma separated, e.g. '2,1,1,7'")


def _add_convergents(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", required=True, help="'sqrt2', 'golden', exact literal, or decimal")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--format", choices=("json", "text"), default="json")


def _add_simulate(p: argparse.ArgumentParser) -> None:
    _add_direction_args(p)
    p.add_argument(
        "--quad",
        default="qprime",
        help="'qprime', 'q0', 'torus', a quadrangulation JSON file, or '-' for stdin",
    )
    p.add_argument("--steps", type=int, default=10)


def _add_trace(p: argparse.ArgumentParser) -> None:
    _add_direction_args(p)
    p.add_argument("--steps", type=int, default=8)
    _add_policy(p)


def _add_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sector", type=int, choices=range(1, 8))
    p.add_argument("--samples", type=int, default=3, help="exact grid samples per sector")
    p.add_argument(
        "--random-samples",
        type=int,
        default=0,
        help="extra random interior directions per sector (OCTOCF_SEED)",
    )


def _add_render(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--input",
        required=True,
        help="trace JSON file, '-' for stdin, 'qprime', or 'sector:<i>'",
    )
    p.add_argument("--scale", type=int, default=60)
    p.add_argument("--no-labels", action="store_true")
    p.add_argument("--direction", help="overlay direction (same syntax as --u)")
    p.add_argument("--side", choices=("pos", "neg"), default="pos")


#: Each subcommand's help, its command and the builder of its own arguments,
#: in the order ``--help`` lists them; every subcommand also takes ``--out``.
_SUBCOMMANDS = {
    "expand": ("octagon Farey expansion of a direction", _cmd_expand, _add_expand),
    "reconstruct": (
        "exact direction interval of an expansion prefix", _cmd_reconstruct, _add_reconstruct
    ),
    "convergents": ("torus continued fraction convergents", _cmd_convergents, _add_convergents),
    "simulate": (
        "plain diagonal-changes run (first available move)", _cmd_simulate, _add_simulate
    ),
    "trace": ("renormalized diagonal-changes trace of an expansion", _cmd_trace, _add_trace),
    "verify": ("machine-check the acceleration theorem", _cmd_verify, _add_verify),
    "dump-matrices": (
        "emit the move matrices and A1..A7 as JSON", _cmd_dump_matrices, lambda p: None
    ),
    "render": ("render a trace or quadrangulation to SVG", _cmd_render, _add_render),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone when it names one.

    A parser of one subcommand still names all of them in its usage line, so
    it prints exactly what the full parser prints for that subcommand.
    """
    parser = argparse.ArgumentParser(
        prog="octocf",
        description="Exact octagon continued fractions and diagonal-changes renormalization",
    )
    if command in _SUBCOMMANDS:
        metavar = "{" + ",".join(_SUBCOMMANDS) + "}"
        sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
        names = [command]
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        names = _SUBCOMMANDS
    for name in names:
        help_text, cmd, add_own = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_own(p)
        p.add_argument("--out")
        p.set_defaults(func=cmd)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_IOFailure, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, _IOFailure) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
