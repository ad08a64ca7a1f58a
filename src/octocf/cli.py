"""Command-line front end: expansions, convergents, traces, verification, SVG.

All subcommands print JSON on stdout unless ``--out`` redirects to a file.
Exit codes are fixed for CI use: 0 success, 1 verification failure, 2 parse
failure, 3 I/O failure.  Directions may be given exactly (``3/2+1/4*sqrt2``,
``inf``) or as decimals, which are converted to a nearby rational (marked
approximate in the output).  OCTOCF_SEED fixes the random sampling used by
``verify --random-samples``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import classical, h2moves, octagon, render
from .farey import (
    Direction,
    TiePolicy,
    dual_expansion,
    expand,
    reconstruct,
)
from .numerics import INFINITY, ProjVal, QuadNum, QuadNumParseError, Vec2

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_IO = 3

_MAX_DENOMINATOR = 10**6


class _ParseFailure(Exception):
    pass


def _parse_u(text: str) -> tuple[ProjVal, bool]:
    """An exact or decimal inverse-slope literal; returns (value, approximate)."""
    text = text.strip()
    if text.lower() in ("inf", "infinity", "oo"):
        return INFINITY, False
    try:
        return ProjVal(QuadNum.parse(text)), False
    except QuadNumParseError:
        pass
    try:
        approx = Fraction(text).limit_denominator(_MAX_DENOMINATOR)
    except (ValueError, ZeroDivisionError) as exc:
        raise _ParseFailure(f"cannot parse {text!r} as a direction") from exc
    print(
        f"warning: decimal input {text!r} replaced by the nearby rational {approx}",
        file=sys.stderr,
    )
    return ProjVal(QuadNum(approx)), True


def _parse_direction(args) -> tuple[Direction, bool]:
    u, approximate = _parse_u(args.u)
    return Direction.from_u(u, side=args.side), approximate


def _policy(args) -> TiePolicy:
    return TiePolicy.HIGH if getattr(args, "policy", "low") == "high" else TiePolicy.LOW


def _emit(args, payload: str) -> int:
    out = getattr(args, "out", None)
    try:
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _emit_json(args, obj) -> int:
    return _emit(args, json.dumps(obj, indent=2) + "\n")


# -- subcommands -----------------------------------------------------------------


def _cmd_expand(args) -> int:
    direction, approximate = _parse_direction(args)
    e = expand(direction, args.depth, _policy(args))
    record = e.to_json()
    if approximate:
        record["approximate"] = True
    if args.dual and e.terminating:
        record["dual"] = dual_expansion(e).to_json()
    return _emit_json(args, record)


def _cmd_reconstruct(args) -> int:
    try:
        entries = [int(tok) for tok in args.entries.replace(",", " ").split()]
    except ValueError:
        raise _ParseFailure(f"cannot parse entries {args.entries!r}")
    interval = reconstruct(entries)
    record = interval.to_json()
    record["lo_u"] = str(interval.lo.u())
    record["hi_u"] = str(interval.hi.u())
    record["theta_width"] = interval.theta_width()
    return _emit_json(args, record)


def _cmd_convergents(args) -> int:
    alpha = _parse_alpha(args.alpha)
    result = classical.geometric_convergents(alpha, args.steps)
    if args.format == "text":
        lines = ["step  digit  p/q" + " " * 12 + "intermediates"]
        for idx, (digit, vec) in enumerate(zip(result.digits, result.vectors)):
            inter = " ".join(f"{p}/{q}" for p, q in result.intermediates[idx])
            frac = f"{vec[0]}/{vec[1]}"
            lines.append(f"{idx:4d}  {digit:5d}  {frac:<14} {inter}")
        if result.halted:
            lines.append("halted: the direction is rational")
        return _emit(args, "\n".join(lines) + "\n")
    return _emit_json(args, result.to_json())


def _parse_alpha(text: str):
    text = text.strip()
    if text.lower() in ("sqrt2", "sqrt(2)"):
        return classical.QuadraticIrrational.sqrt_of(2)
    if text.lower() in ("golden", "phi"):
        return classical.QuadraticIrrational.golden_ratio()
    try:
        return QuadNum.parse(text)
    except QuadNumParseError:
        pass
    try:
        return Fraction(text).limit_denominator(_MAX_DENOMINATOR)
    except (ValueError, ZeroDivisionError) as exc:
        raise _ParseFailure(f"cannot parse {text!r} as a positive number") from exc


def _cmd_simulate(args) -> int:
    if args.steps < 0:
        raise _ParseFailure("step count must be >= 0")
    direction, approximate = _parse_direction(args)
    state = _initial_state(args.quad, direction)
    steps = []
    for _ in range(args.steps):
        moves = state.available_moves()
        if not moves:
            break
        move = moves[0]
        state = state.apply(move)
        steps.append(
            {
                "side": move.side.value,
                "cycle": list(move.cycle),
                "state": state.to_json(),
            }
        )
    record = {
        "initial": _initial_state(args.quad, direction).to_json(),
        "steps": steps,
        "halted": len(steps) < args.steps,
    }
    if approximate:
        record["approximate"] = True
    return _emit_json(args, record)


def _initial_state(spec: str, direction: Direction):
    from .diagch import CombDatum, LabeledQuadrangulation, Wedge

    if spec == "qprime":
        return octagon.qprime(direction)
    if spec == "q0":
        return octagon.q_zero(direction)
    if spec == "torus":
        return LabeledQuadrangulation(
            CombDatum(1, (1,), (1,)), (Wedge(Vec2(0, 1), Vec2(1, 0)),), direction
        )
    try:
        with open(spec, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read quadrangulation: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    except json.JSONDecodeError as exc:
        raise _ParseFailure(f"invalid quadrangulation JSON: {exc}")
    ref = {"ref_dir": direction.to_json()}
    return _decode(lambda obj: LabeledQuadrangulation.from_json({**obj, **ref}), data)


def _decode(build, data):
    """``build(data)``, where valid JSON of the wrong shape is a parse failure."""
    try:
        return build(data)
    except TypeError as exc:
        raise _ParseFailure(f"malformed JSON input: {exc}") from exc


def _cmd_trace(args) -> int:
    direction, approximate = _parse_direction(args)
    trace = octagon.run_expansion(direction, args.steps, _policy(args))
    record = trace.to_json()
    if approximate:
        record["approximate"] = True
    return _emit_json(args, record)


def _cmd_verify(args) -> int:
    if args.random_samples < 0:
        raise _ParseFailure("random sample count must be >= 0")
    sectors = [args.sector] if args.sector else range(1, 8)
    report = octagon.verify_theorem(args.samples, sectors)
    record = report.to_json()
    if args.random_samples:
        seed = int(os.environ.get("OCTOCF_SEED", "0"))
        rng = random.Random(seed)
        extra = []
        for i in sectors:
            for _ in range(args.random_samples):
                d = _random_interior_direction(rng, i)
                extra.append(octagon.verify_sector(i, d))
        record["random_samples"] = [r.to_json() for r in extra]
        record["seed"] = seed
        passed = report.passed and all(r.passed for r in extra)
        record["passed"] = passed
    else:
        passed = report.passed
    code = _emit_json(args, record)
    if code != EXIT_OK:
        return code
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


def _random_interior_direction(rng: random.Random, sector: int) -> Direction:
    from .farey import SECTOR_BOUNDS, classify

    while True:
        if sector == 0:
            u = SECTOR_BOUNDS[0] + QuadNum(Fraction(rng.randint(1, 10**6), 10**3))
        elif sector == 7:
            u = SECTOR_BOUNDS[6] - QuadNum(Fraction(rng.randint(1, 10**6), 10**3))
        else:
            hi, lo = SECTOR_BOUNDS[sector - 1], SECTOR_BOUNDS[sector]
            t = QuadNum(Fraction(rng.randint(1, 10**6 - 1), 10**6))
            u = lo + (hi - lo) * t
        d = Direction(Vec2(u, QuadNum(1)))
        if classify(d) == (sector,):
            return d


def _cmd_dump_matrices(args) -> int:
    record = {
        "moves": {m.value: [list(r) for r in m.matrix] for m in h2moves.ReducedMove},
        "sectors": {
            str(i): [list(r) for r in h2moves.sector_matrix(i)] for i in range(1, 8)
        },
    }
    return _emit_json(args, record)


def _cmd_render(args) -> int:
    if args.input == "-":
        try:
            data = json.load(sys.stdin)
        except json.JSONDecodeError as exc:
            raise _ParseFailure(f"invalid trace JSON: {exc}")
    elif args.input == "qprime" or args.input.startswith("sector:"):
        if args.input == "qprime":
            direction = octagon.sector_midpoint(4)
            data = octagon.qprime(direction).to_json()
        else:
            sector = int(args.input.split(":", 1)[1])
            direction = octagon.sector_midpoint(sector)
            states = octagon.sector_move_states(sector, direction)
            data = {"panels": [s.to_json() for s in states]}
    else:
        try:
            with open(args.input, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            print(f"error: cannot read trace: {exc}", file=sys.stderr)
            return EXIT_IO
        except json.JSONDecodeError as exc:
            raise _ParseFailure(f"invalid trace JSON: {exc}")
    overlay = None
    if args.direction:
        u, _ = _parse_u(args.direction)
        overlay = Direction.from_u(u, side="pos" if args.side == "pos" else "neg")
    spec = render.RenderSpec(
        scale=Fraction(args.scale),
        show_labels=not args.no_labels,
        direction_overlay=overlay,
    )
    states = _decode(render.trace_panels, data)
    return _emit(args, render.render_states(states, spec))


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octocf",
        description="Exact octagon continued fractions and diagonal-changes renormalization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="octagon Farey expansion of a direction")
    _add_direction_args(p)
    p.add_argument("--depth", type=int, default=16)
    p.add_argument("--policy", choices=("low", "high"), default="low")
    p.add_argument("--dual", action="store_true", help="include the dual expansion when terminating")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("reconstruct", help="exact direction interval of an expansion prefix")
    p.add_argument("--entries", required=True, help="comma separated, e.g. '2,1,1,7'")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("convergents", help="torus continued fraction convergents")
    p.add_argument("--alpha", required=True, help="'sqrt2', 'golden', exact literal, or decimal")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_convergents)

    p = sub.add_parser("simulate", help="plain diagonal-changes run (first available move)")
    _add_direction_args(p)
    p.add_argument(
        "--quad",
        default="qprime",
        help="'qprime', 'q0', 'torus', or a quadrangulation JSON file",
    )
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("trace", help="renormalized diagonal-changes trace of an expansion")
    _add_direction_args(p)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--policy", choices=("low", "high"), default="low")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("verify", help="machine-check the acceleration theorem")
    p.add_argument("--sector", type=int, choices=range(1, 8))
    p.add_argument("--samples", type=int, default=3, help="exact grid samples per sector")
    p.add_argument(
        "--random-samples",
        type=int,
        default=0,
        help="extra random interior directions per sector (OCTOCF_SEED)",
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dump-matrices", help="emit the move matrices and A1..A7 as JSON")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dump_matrices)

    p = sub.add_parser("render", help="render a trace or quadrangulation to SVG")
    p.add_argument(
        "--input",
        required=True,
        help="trace JSON file, '-' for stdin, 'qprime', or 'sector:<i>'",
    )
    p.add_argument("--scale", type=int, default=60)
    p.add_argument("--no-labels", action="store_true")
    p.add_argument("--direction", help="overlay direction (same syntax as --u)")
    p.add_argument("--side", choices=("pos", "neg"), default="pos")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
