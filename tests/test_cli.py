"""Command-line interface: subcommands, JSON output, exit-code contract."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import DEFAULT_MAX_STR_DIGITS
from octocf.cli import EXIT_IO, EXIT_OK, EXIT_PARSE, EXIT_VERIFY_FAIL, main
from octocf.jsonout import json_text
from octocf.numerics import _max_int_digits


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestExpand:
    def test_pi(self, capsys):
        record = run_json(capsys, "expand", "--u", "inf", "--side", "neg", "--depth", "4")
        assert record["entries"] == [7, 7, 7, 7]
        assert record["terminating"] is True

    def test_first_entry_of_two(self, capsys):
        record = run_json(capsys, "expand", "--u", "2", "--depth", "1")
        assert record["entries"] == [1]

    def test_boundary_flag(self, capsys):
        record = run_json(capsys, "expand", "--u", "1", "--depth", "3")
        assert record["boundary_hit"] is True

    def test_decimal_input_marked_approximate(self, capsys):
        code, out, err = run_cli(capsys, "expand", "--u", "2.414", "--depth", "2")
        assert code == EXIT_OK
        assert json.loads(out)["approximate"] is True
        assert "nearby rational" in err

    def test_parse_failure_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--u", "not-a-number", "--depth", "2")
        assert code == EXIT_PARSE
        assert "error" in err

    def test_zero_denominator_is_parse_failure(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--u", "1/0", "--depth", "2")
        assert code == EXIT_PARSE
        assert "Traceback" not in err

    def test_dual_of_terminating(self, capsys):
        record = run_json(capsys, "expand", "--u", "1+sqrt2", "--depth", "4", "--dual")
        assert record["entries"] == [0, 1, 1, 1]
        assert record["dual"]["entries"] == [1, 1, 1, 1]


class TestDirectionLiterals:
    """Literals of --u and --direction, pinned by their output before they
    were parsed straight to a direction."""

    @pytest.mark.parametrize("literal", ["inf", "INF", "infinity", "oo"])
    @pytest.mark.parametrize("side, entries", [("pos", [0, 7, 7]), ("neg", [7, 7, 7])])
    def test_infinity_is_the_horizontal_ray_of_the_side(self, capsys, literal, side, entries):
        code, out, err = run_cli(capsys, "expand", "--u", literal, "--side", side, "--depth", "3")
        assert (code, err) == (EXIT_OK, "")
        record = json.loads(out)
        assert record["entries"] == entries and "approximate" not in record

    @pytest.mark.parametrize("literal, entries", [(" 3/2 ", [1, 4, 5]), ("1+sqrt2", [0, 1, 1])])
    def test_exact_literals(self, capsys, literal, entries):
        code, out, err = run_cli(capsys, "expand", "--u", literal, "--depth", "3")
        assert (code, err) == (EXIT_OK, "")
        record = json.loads(out)
        assert record["entries"] == entries and "approximate" not in record

    def test_decimal_is_approximate_with_a_warning(self, capsys):
        code, out, err = run_cli(capsys, "expand", "--u", "0.3", "--depth", "3")
        assert code == EXIT_OK
        assert json.loads(out)["approximate"] is True
        assert err == "warning: decimal input '0.3' replaced by the nearby rational 3/10\n"

    @pytest.mark.parametrize(
        "argv",
        [("expand", "--u"), ("render", "--input", "qprime", "--direction")],
        ids=["expand", "render"],
    )
    def test_empty_literal_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "")
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "error: cannot parse '' as a direction\n"

    def test_negative_infinity_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "expand", "--u=-inf", "--depth", "3")
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "error: cannot parse '-inf' as a direction\n"
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--u", "-inf"])
        assert exc.value.code == EXIT_PARSE

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("render", "--input", "qprime", "--direction", "inf", "--side", "neg"),
                "ae130436563777271fa533f20bbc907bbbbb5f381c659d3fbcb66b710649f331",
            ),
            (
                ("render", "--input", "qprime", "--direction", "inf"),
                "8f2d46bf47c03adf45e59511c200980849fa9ec08100298f8e815d5e031b8a1c",
            ),
            (
                ("trace", "--u", "inf", "--side", "neg", "--steps", "2"),
                "1888c1578d6cb2a6a49fb2bb7c8c5497905a109ade932671322e053fd0e58c1c",
            ),
            (
                ("simulate", "--u", "inf", "--quad", "torus", "--steps", "2"),
                "e3389e107d4c388112870d1da41e3b548a55ce37bf0207e919e475bb011b4d32",
            ),
        ],
        ids=["render-neg", "render-pos", "trace", "simulate"],
    )
    def test_output_at_infinity_is_pinned(self, capsys, argv, digest):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "entries, lo_u, hi_u",
        [
            ("0", "inf", "1+sqrt(2)"),
            ("0,7", "inf", "3+3*sqrt(2)"),
            ("7,7", "-3-3*sqrt(2)", "inf"),
            ("1", "1+sqrt(2)", "1"),
        ],
    )
    def test_interval_ends_at_infinity_print_inf(self, capsys, entries, lo_u, hi_u):
        record = run_json(capsys, "reconstruct", "--entries", entries)
        assert (record["lo_u"], record["hi_u"]) == (lo_u, hi_u)


class TestReconstruct:
    def test_sector_interval(self, capsys):
        record = run_json(capsys, "reconstruct", "--entries", "7")
        assert record["lo_u"] == "-1-sqrt(2)"
        assert record["hi_u"] == "inf"

    def test_round_trip_contains_direction(self, capsys):
        record = run_json(capsys, "reconstruct", "--entries", "2,1,1")
        assert record["theta_width"] > 0

    def test_inadmissible(self, capsys):
        code, _, err = run_cli(capsys, "reconstruct", "--entries", "2,0,1")
        assert code == EXIT_PARSE

    @pytest.mark.parametrize(
        "entries, token",
        [
            ("2,1,0_1", "0_1"), ("02,+1,1", "02"), ("2,+1,1", "+1"), ("2,\u0661,1", "\u0661"),
            ("2 1 \uff11", "\uff11"), ("2,-0", "-0"), ("2,1_1", "1_1"),
            ("2,x,1", "x"), ("1.5", "1.5"), ("2,1e1", "1e1"),
        ],
    )
    def test_entries_are_plain_decimals(self, capsys, entries, token):
        # int() takes the first seven tokens and refuses the last three; one
        # rule reads every integer token, so all share one message
        assert run_cli(capsys, "reconstruct", "--entries", entries) == (
            EXIT_PARSE, "", f"error: cannot parse entry {token!r} in {entries!r}\n"
        )

    @pytest.mark.parametrize("entries", ["8", "2,-1", "2,1,9"])
    def test_plain_tokens_outside_the_sectors_are_inadmissible(self, capsys, entries):
        code, out, err = run_cli(capsys, "reconstruct", "--entries", entries)
        assert (code, out) == (EXIT_PARSE, "") and err.startswith("error: inadmissible prefix (")


class TestConvergents:
    def test_sqrt2_json(self, capsys):
        record = run_json(capsys, "convergents", "--alpha", "sqrt2", "--steps", "4")
        assert record["vectors"] == [[1, 1], [3, 2], [7, 5], [17, 12]]

    def test_golden_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "convergents", "--alpha", "golden", "--steps", "5", "--format", "text"
        )
        assert code == EXIT_OK
        assert "8/5" in out

    def test_rational_halts(self, capsys):
        record = run_json(capsys, "convergents", "--alpha", "2", "--steps", "5")
        assert record["halted"] is True

    @pytest.mark.parametrize("alpha", ["1e400", "1/10000000000"])
    def test_huge_partial_quotient_exits_2(self, capsys, alpha):
        code, out, err = run_cli(capsys, "convergents", "--alpha", alpha)
        assert code == EXIT_PARSE and out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: more than 1000000 intermediate convergents to list"
        ]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_convergent_past_the_digit_limit_exits_2_before_any_output(
        self, capsys, monkeypatch, fmt
    ):
        # Step 29 ends at 832040/514229, step 30 at 1346269/832040; the real
        # limit of 4300 digits takes about 20600 steps of the golden ratio.
        monkeypatch.setattr("octocf.cli._max_int_digits", lambda: 6)
        argv = ("convergents", "--alpha", "golden", "--format", fmt, "--steps")
        assert run_cli(capsys, *argv, "29")[0] == EXIT_OK
        code, out, err = run_cli(capsys, *argv, "30")
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "error: convergents with more than 6 digits to list\n"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_negative_steps_name_the_flag(self, capsys, fmt):
        argv = ("convergents", "--alpha", "sqrt2", "--format", fmt, "--steps", "-1")
        assert run_cli(capsys, *argv) == (EXIT_PARSE, "", "error: --steps must be >= 0\n")

    def test_refuses_at_the_step_past_the_digit_limit(self, capsys, monkeypatch):
        # a billion steps would never finish; the limit is crossed at step 30
        monkeypatch.setattr("octocf.cli._max_int_digits", lambda: 6)
        argv = ("convergents", "--alpha", "golden", "--steps", "1000000000")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "error: convergents with more than 6 digits to list\n"

    @pytest.mark.parametrize(
        "alpha, fmt, digest",
        [
            ("sqrt2", "json", "75dd1ded506828586403c524087cc243342433b8d22af44268ca25698144befc"),
            ("sqrt2", "text", "945b9a65467a70be47ed0e329457fcf63c147f4ed9ee8fc5257831f5adb66e30"),
            ("golden", "json", "998e2926e215c71e21679fc3803e8b7443d50ab81c336ba03a3684bf3e7aff0d"),
            ("golden", "text", "467cde800e00d93b3314a689e43537c0590a6c1118f20cf1dd0cf6eaa80a069f"),
            ("1+sqrt2", "json", "23791d4b835033b539ee0b6745b1a3a917c721bd3741023a2385efbd0abd7eff"),
            ("1+sqrt2", "text", "1e2a1e9741da3227b66da5c26528e504ea460182299f7573e2d9d9fb30773472"),
            (
                "3/7-1/5*sqrt2",
                "json",
                "e19a6baa48925236b6a6602f6b99fdfc062cc8cf54ffd30df7ff01d95aa0701f",
            ),
            (
                "3/7-1/5*sqrt2",
                "text",
                "d3232039e32633271c50317498270bb26f53ff376f4cf607c432d4e07da82546",
            ),
            ("355/113", "json", "2323365c639ac328ab1ba423dffc78bda8f4893b3d5bd03af9a2cbee09de6cae"),
            ("355/113", "text", "5b5e31c5dcf3924748f24afa5acc809bac57572f44446fc2a0647471f5f99895"),
            ("1.5", "json", "3cedbf6b10e4541a68b696a9a79490c0a65b92b9325518cdcc88df51b32b75bd"),
            ("1.5", "text", "7b945d039c92d5370b9f0f3a16d71b7e709ba08ae08c16688119a4d69b2a1514"),
        ],
    )
    def test_output_is_pinned(self, capsys, alpha, fmt, digest):
        code, out, _ = run_cli(capsys, "convergents", "--alpha", alpha, "--format", fmt)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "alpha, steps, digest",
        [
            ("golden", "27", "17d5711a5fc56a83520bd685febc6f1a100ed6b4fccbeeb93e7efaf6a182ed99"),
            ("1/1000000", "3", "5ec474261ee09644a94d7602e77ff4602250fb4498d8b16cf1392d54c1760b9d"),
        ],
    )
    def test_text_table_is_pinned(self, capsys, alpha, steps, digest):
        argv = ("convergents", "--alpha", alpha, "--steps", steps, "--format", "text")
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_text_table_is_written_as_it_is_formed(self, monkeypatch):
        # 10**6 intermediate convergents on one line, 8.9 MB in all
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(len(text))
                return len(text)

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(["convergents", "--alpha", "1/1000000", "--format", "text"]) == EXIT_OK
        assert sum(writes) > 8_800_000
        assert max(writes) < 100_000

    @pytest.mark.parametrize(
        "alpha, steps",
        [
            ("sqrt2", "6"),
            ("golden", "12"),
            ("3/7-1/5*sqrt2", "8"),
            ("355/113", "10"),
            ("2", "5"),
            ("1/1000", "3"),
            ("1.5", "4"),
        ],
    )
    def test_json_equals_the_indented_record(self, capsys, alpha, steps):
        from octocf.classical import geometric_convergents
        from octocf.cli import _parse_alpha

        value, approximate = _parse_alpha(alpha)
        record = geometric_convergents(value, int(steps)).to_json()
        if approximate:
            record["approximate"] = True
        code, out, _ = run_cli(capsys, "convergents", "--alpha", alpha, "--steps", steps)
        assert code == EXIT_OK
        assert out == json.dumps(record, indent=2) + "\n"

    def test_json_is_written_as_it_is_formed(self, monkeypatch):
        # 10**6 intermediate convergents in one group, 42.9 MB in all: each
        # write follows at most one batch of 4096 newly formed convergents,
        # where building the record first would form them all before any write
        from octocf import classical

        multiples, formed, writes = classical._multiples, [0], []

        def counted(*args):
            for pair in multiples(*args):
                formed[0] += 1
                yield pair

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append((len(text), formed[0]))
                return len(text)

        monkeypatch.setattr(classical, "_multiples", counted)
        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(["convergents", "--alpha", "1/1000000"]) == EXIT_OK
        assert sum(n for n, _ in writes) > 42_800_000 and formed[0] == 999_999
        counts = [0] + [f for _, f in writes]
        assert max(b - a for a, b in zip(counts, counts[1:])) <= 4096

    def test_decimal_alpha_is_approximate(self, capsys):
        code, out, err = run_cli(capsys, "convergents", "--alpha", "1.5", "--steps", "2")
        assert code == EXIT_OK
        assert json.loads(out)["approximate"] is True
        assert "replaced by the nearby rational 3/2" in err
        assert "approximate" not in run_json(capsys, "convergents", "--alpha", "3/2")

    def test_tiny_decimal_alpha_warns_before_the_error(self, capsys):
        code, _, err = run_cli(capsys, "convergents", "--alpha", "1e-30")
        assert code == EXIT_PARSE
        assert err.splitlines() == [
            "warning: decimal input '1e-30' replaced by the nearby rational 0",
            "error: alpha must be positive",
        ]


@pytest.mark.usefixtures("default_digit_limit")
class TestDigitLimit:
    """An int past Python's 4300-digit conversion limit, read or written, is a
    parse failure that names the limit, not Python's own hint."""

    LITERAL = "error: an exact literal has more than 4300 digits, past Python's int-to-string limit"
    OUTPUT = "error: a coordinate has more than 4300 digits, past Python's int-to-string limit"

    def test_direction_literal(self, capsys):
        code, out, err = run_cli(capsys, "expand", "--u", "1" * 5000)
        assert (code, out, err.splitlines()) == (EXIT_PARSE, "", [self.LITERAL])

    def test_quadrangulation_coefficient(self, capsys, monkeypatch):
        side, zero = {"a": "1" * 5000, "b": "0"}, {"a": "0", "b": "0"}
        wedge = {"l": {"x": zero, "y": side}, "r": {"x": side, "y": zero}}
        doc = json.dumps({"k": 1, "pi_l": [1], "pi_r": [1], "wedges": [wedge]})
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run_cli(capsys, "simulate", "--quad", "-", "--u", "1+sqrt2")
        assert (code, out, err.splitlines()) == (EXIT_PARSE, "", [self.LITERAL])

    def test_reconstructed_interval(self, capsys):
        rng = random.Random(33)
        entries = ",".join(str(rng.randint(2, 6)) for _ in range(12000))
        code, out, err = run_cli(capsys, "reconstruct", "--entries", entries)
        assert (code, out, err.splitlines()) == (EXIT_PARSE, "", [self.OUTPUT])

    def test_renormalized_directions(self, capsys):
        rng = random.Random(33)
        p, q = (rng.randint(10**4289, 10**4290 - 1) for _ in range(2))
        code, out, _ = run_cli(capsys, "trace", "--u", f"{p}/{q}", "--steps", "100")
        assert code == EXIT_OK and out
        code, out, err = run_cli(capsys, "trace", "--u", f"{p}/{q}", "--steps", "400")
        assert (code, out, err.splitlines()) == (EXIT_PARSE, "", [self.OUTPUT])


@pytest.fixture
def digit_limit():
    """Sets Python's int-to-string limit for one test, and restores it after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-string limit")
    previous = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(previous)


class TestLiveDigitLimit:
    """The digit limit named and enforced is the one Python runs with.

    CI runs these once more under ``PYTHONINTMAXSTRDIGITS=640``, so that the
    limit also comes from interpreter start-up.
    """

    def test_direction_literal(self, capsys, digit_limit):
        digit_limit(640)
        code, out, err = run_cli(capsys, "expand", "--u", "1" * 700, "--depth", "2")
        assert (code, out, err.splitlines()) == (EXIT_PARSE, "", [
            "error: an exact literal has more than 640 digits, past Python's int-to-string limit"
        ])

    def test_reconstructed_interval(self, capsys, digit_limit):
        digit_limit(640)
        rng = random.Random(33)
        entries = ",".join(str(rng.randint(2, 6)) for _ in range(3000))
        code, out, err = run_cli(capsys, "reconstruct", "--entries", entries)
        assert (code, out, err.splitlines()) == (EXIT_PARSE, "", [
            "error: a coordinate has more than 640 digits, past Python's int-to-string limit"
        ])

    def test_decimal_literal(self, capsys, digit_limit):
        digit_limit(640)
        u = "9" * 635 + ".5"
        code, out, err = run_cli(capsys, "expand", "--u", u, "--depth", "2")
        assert (code, out, err.splitlines()) == (EXIT_PARSE, "", [
            f"error: decimal input '{u}' has more than 634 integer digits"
        ])
        # the widest decimal still prints its rational, with a 640-digit numerator
        u = "9" * 634 + ".000001"
        code, _, err = run_cli(capsys, "expand", "--u", u, "--depth", "2")
        assert code == EXIT_OK
        assert err.startswith(f"warning: decimal input '{u}' replaced by the nearby rational ")

    def test_no_limit_keeps_the_default_bounds(self, capsys, digit_limit):
        digit_limit(0)
        code, out, err = run_cli(capsys, "expand", "--u", "1e30000000", "--depth", "2")
        assert (code, out, err.splitlines()) == (EXIT_PARSE, "", [
            "error: decimal input '1e30000000' has more than 4294 integer digits"
        ])


@pytest.mark.usefixtures("default_digit_limit")
class TestDecimalExponents:
    """A decimal's exponent is read before any exact rational is built from it,
    under Python's default 4300-digit limit."""

    @pytest.mark.parametrize(
        "u",
        [
            "1e5000",
            "1e100000000",
            # Refused whatever the fraction; at 4300 digits the rational of .3
            # would have a 4301-digit numerator, past Python's int-to-str limit.
            pytest.param("9" * 4299 + ".3", id="4299-digits.3"),
            pytest.param("9" * 4300 + ".3", id="4300-digits.3"),
        ],
    )
    def test_huge_decimal_exits_2(self, capsys, u):
        code, out, err = run_cli(capsys, "expand", "--u", u, "--depth", "2")
        assert code == EXIT_PARSE and out == ""
        assert err.splitlines() == [f"error: decimal input '{u}' has more than 4294 integer digits"]

    @pytest.mark.parametrize("digits", [4299, 4300])
    def test_long_integer_is_exact(self, capsys, digits):
        code, out, err = run_cli(capsys, "expand", "--u", "9" * digits, "--depth", "2")
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["entries"] == [0, 7]

    def test_widest_decimal_prints_its_rational(self, capsys):
        # The nearby rational of this literal has denominator 10**6 and a
        # 4300-digit numerator.
        u = "9" * 4294 + ".000001"
        code, _, err = run_cli(capsys, "expand", "--u", u, "--depth", "2")
        assert code == EXIT_OK
        assert err.startswith(f"warning: decimal input '{u}' replaced by the nearby rational ")

    def test_tiny_decimal_reads_as_zero(self, capsys):
        code, _, err = run_cli(capsys, "convergents", "--alpha", "1e-100000000")
        assert code == EXIT_PARSE
        assert err.splitlines() == [
            "warning: decimal input '1e-100000000' replaced by the nearby rational 0",
            "error: alpha must be positive",
        ]
        code, out, _ = run_cli(capsys, "expand", "--u=-1e-100000000", "--depth", "3")
        assert code == EXIT_OK
        assert json.loads(out)["entries"] == run_json(capsys, "expand", "--u", "0", "--depth", "3")["entries"]


class TestVerify:
    def test_default_passes(self, capsys):
        record = run_json(capsys, "verify", "--samples", "1")
        assert record["passed"] is True
        assert record["proved"] == {str(i): True for i in range(1, 8)}

    def test_sector_filter(self, capsys):
        record = run_json(capsys, "verify", "--sector", "1", "--samples", "2")
        assert [r["sector"] for r in record["sectors"]] == [1, 1]
        assert record["proved"] == {"1": True}

    def test_random_samples_seeded(self, capsys, monkeypatch):
        monkeypatch.setenv("OCTOCF_SEED", "42")
        first = run_json(capsys, "verify", "--sector", "2", "--samples", "1", "--random-samples", "2")
        second = run_json(capsys, "verify", "--sector", "2", "--samples", "1", "--random-samples", "2")
        assert first == second
        assert first["seed"] == 42
        assert all(r["passed"] for r in first["random_samples"])

    def test_unparsable_seed_is_named(self, capsys, monkeypatch):
        monkeypatch.setenv("OCTOCF_SEED", "abc")
        code, out, err = run_cli(capsys, "verify", "--sector", "1", "--random-samples", "1")
        assert (code, out, err) == (
            EXIT_PARSE, "", "error: OCTOCF_SEED must be an integer, got 'abc'\n"
        )

    def test_corrupted_constant_fails_with_located_mismatch(
        self, capsys, monkeypatch, unproved_sectors
    ):
        # scaled constants form a valid quadrangulation of the wrong surface
        import octocf.octagon as octagon_module

        scaled = tuple(v.scale(2) for v in octagon_module.QPRIME_VECTORS)
        monkeypatch.setattr(octagon_module, "QPRIME_VECTORS", scaled)
        code, out, _ = run_cli(capsys, "verify", "--sector", "1", "--samples", "1")
        assert code == EXIT_VERIFY_FAIL
        record = json.loads(out)
        assert record["passed"] is False
        failure = record["sectors"][0]["failure"]
        assert failure is not None and "area" in failure
        assert record["proved"] == {"1": False}

    def test_inconsistent_constant_reported_as_verification_failure(
        self, capsys, monkeypatch, unproved_sectors
    ):
        import octocf.octagon as octagon_module
        from octocf.numerics import Vec2

        broken = list(octagon_module.QPRIME_VECTORS)
        broken[3] = Vec2(1, 1)  # violates the train-track relations
        monkeypatch.setattr(octagon_module, "QPRIME_VECTORS", tuple(broken))
        code, out, _ = run_cli(capsys, "verify", "--sector", "1", "--samples", "1")
        assert code == EXIT_VERIFY_FAIL
        record = json.loads(out)
        failure = record["sectors"][0]["failure"]
        assert failure is not None and "quadrilateral" in failure
        assert record["proved"] == {"1": False}


class TestTraceAndSimulate:
    def test_trace_steps(self, capsys):
        record = run_json(capsys, "trace", "--u", "19/7", "--steps", "3")
        assert len(record["steps"]) == 3
        assert record["halted"] is None

    def test_trace_of_a_decimal_is_approximate(self, capsys):
        code, out, err = run_cli(capsys, "trace", "--u", "0.37", "--steps", "3")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["approximate"] is True and len(record["steps"]) == 3
        assert err == "warning: decimal input '0.37' replaced by the nearby rational 37/100\n"

    def test_simulate_torus(self, capsys):
        record = run_json(
            capsys, "simulate", "--u", "1+sqrt2", "--quad", "torus", "--steps", "5"
        )
        assert len(record["steps"]) == 5

    #: SHA-256 of ``simulate --quad torus --u 1+sqrt2 --steps 200``, taken when
    #: the whole record was built before it was written.
    SIMULATE_200 = "eebc5196f7df029ee8d6ffe90c8762a2fba093ea61468ab87cff05d8c0f0fb9c"

    def test_simulate_output_is_pinned(self, capsys, tmp_path):
        argv = ("simulate", "--quad", "torus", "--u", "1+sqrt2", "--steps", "200")
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == self.SIMULATE_200
        path = tmp_path / "steps.json"
        assert run_cli(capsys, *argv, "--out", str(path)) == (EXIT_OK, "", "")
        assert path.read_bytes() == out.encode()

    @pytest.mark.parametrize(
        "argv",
        [("--u", "1/2", "--steps", "0"), ("--u", "0.3", "--quad", "torus", "--steps", "50")],
    )
    def test_simulate_writes_the_indented_record(self, capsys, argv):
        # no steps at all, and a run that halts after 5 of its 50 steps
        code, out, _ = run_cli(capsys, "simulate", *argv)
        assert code == EXIT_OK
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert json.loads(out)["halted"] is (argv[-1] != "0")

    def test_simulate_streams_its_steps(self):
        # Peak RSS of the command, measured from a bare interpreter that starts
        # it: a child's peak counts the memory of the process it was forked from.
        launcher = (
            "import resource, subprocess, sys\n"
            "subprocess.run([sys.executable, '-m', 'octocf.cli', *sys.argv[1:]],"
            " stdout=subprocess.DEVNULL, check=True)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        # 4000 steps print ints of more than 640 digits: the child runs with
        # Python's default limit, whatever limit this interpreter has
        env = dict(os.environ, PYTHONPATH=src, PYTHONINTMAXSTRDIGITS=str(DEFAULT_MAX_STR_DIGITS))

        def peak(steps):
            argv = ["simulate", "--quad", "torus", "--u", "1+sqrt2", "--steps", str(steps)]
            result = subprocess.run(
                [sys.executable, "-c", launcher, *argv], capture_output=True, env=env, check=True
            )
            return int(result.stdout)

        # 0.5 MB of JSON at 500 steps, 9.5 MB at 4000
        assert peak(4000) <= 1.1 * peak(500)

    @pytest.mark.usefixtures("default_digit_limit")
    def test_simulate_past_the_digit_limit_exits_2_after_the_steps_before(self, capsys, tmp_path):
        # 4290-digit sides pass Python's 4300-digit int-to-string limit after
        # a few dozen steps; the steps made before it are already written
        side, zero = {"a": str(10**4290), "b": "0"}, {"a": "0", "b": "0"}
        wedge = {"l": {"x": zero, "y": side}, "r": {"x": side, "y": zero}}
        path = tmp_path / "torus.json"
        path.write_text(json.dumps({"k": 1, "pi_l": [1], "pi_r": [1], "wedges": [wedge]}))
        code, out, err = run_cli(
            capsys, "simulate", "--quad", str(path), "--u", "1+sqrt2", "--steps", "1000"
        )
        assert code == EXIT_PARSE
        assert err == (
            "error: a coordinate has more than 4300 digits, past Python's int-to-string limit\n"
        )
        assert out.startswith('{\n  "initial": {')

    def test_simulate_reads_the_quad_file_once(self, capsys, tmp_path, monkeypatch):
        import builtins

        from octocf.octagon import qprime, sector_midpoint

        path = tmp_path / "quad.json"
        path.write_text(json.dumps(qprime(sector_midpoint(4)).to_json()))
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        record = run_json(capsys, "simulate", "--u", "1/3", "--quad", str(path), "--steps", "2")
        assert opened.count(str(path)) == 1
        assert record["initial"]["wedges"] == qprime(sector_midpoint(4)).to_json()["wedges"]

    def test_simulate_reads_the_quad_from_stdin(self, capsys, monkeypatch):
        from octocf.octagon import qprime, sector_midpoint

        argv = ("simulate", "--u", "1/3", "--steps", "3", "--quad")
        expected = run_cli(capsys, *argv, "qprime")
        stdin = io.StringIO(json.dumps(qprime(sector_midpoint(4)).to_json()))
        monkeypatch.setattr("sys.stdin", stdin)
        assert run_cli(capsys, *argv, "-") == expected
        assert expected[0] == EXIT_OK

    def test_trace_json_round_trips(self, capsys):
        from octocf.diagch import LabeledQuadrangulation

        record = run_json(capsys, "trace", "--u", "19/7", "--steps", "2")
        state = LabeledQuadrangulation.from_json(record["steps"][0]["state"])
        assert state.to_json() == record["steps"][0]["state"]


#: Text with the characters JSON escapes: quote, backslash, controls, DEL
#: (written as \u007f) and non-BMP characters (written as surrogate pairs).
_JSON_TEXTS = st.text(
    st.sampled_from('"\\\x00\x08\t\n\x0c\r\x1f\x7f\x80é€\U0001f600') | st.characters()
)


def _json_values():
    """Nested values of the types octocf writes as JSON, ints up to the digit limit."""
    bound = 10 ** _max_int_digits() - 1
    leaves = (
        st.none()
        | st.booleans()
        | st.integers(-bound, bound)
        | st.integers()
        | st.floats()
        | _JSON_TEXTS
    )
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_JSON_TEXTS, inner, max_size=4),
        max_leaves=24,
    )


class TestJsonWriter:
    @given(_json_values())
    @example([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e300, 5e-324])
    @example({"": [[], {}, ()], "\x7f": [[[]]], "\U0001f600": None})
    def test_writes_what_json_dumps_writes(self, value):
        text = json.dumps(value, indent=2)
        assert json_text(value) == text
        # a JSON string holds no raw newline, so the pad indents every line but the first
        assert json_text(value, "\n    ") == text.replace("\n", "\n    ")

    @pytest.mark.parametrize(
        "value",
        [{1: 2}, {None: 1}, {("a",): 1}, [{"a": {2.5: 0}}], object(), {1, 2}, b"x", [bytearray()]],
        ids=["int key", "None key", "tuple key", "nested float key", "object", "set", "bytes",
             "nested bytearray"],
    )
    def test_refuses_other_keys_and_values(self, value):
        with pytest.raises(TypeError):
            json_text(value)


class TestDumpAndRender:
    def test_dump_matrices(self, capsys):
        record = run_json(capsys, "dump-matrices")
        assert len(record["moves"]) == 5
        assert len(record["sectors"]) == 7
        assert record["sectors"]["1"][0] == [1, 0, 0, 1, 0, 0]

    def test_render_deterministic(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        code, _, _ = run_cli(capsys, "render", "--input", "sector:1", "--out", str(out1))
        assert code == EXIT_OK
        code, _, _ = run_cli(capsys, "render", "--input", "sector:1", "--out", str(out2))
        assert code == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes().startswith(b"<svg")

    def test_render_from_trace_file(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        code, out, _ = run_cli(capsys, "trace", "--u", "19/7", "--steps", "2")
        assert code == EXIT_OK
        trace_path.write_text(out)
        code, svg, _ = run_cli(capsys, "render", "--input", str(trace_path))
        assert code == EXIT_OK
        assert svg.count("<g id=") == 2

    def test_render_bad_file_is_io_error(self, capsys):
        code, _, err = run_cli(capsys, "render", "--input", "/nonexistent/trace.json")
        assert code == 3


class TestIOFailure:
    """Every unreadable input file and every unwritable --out exits 3."""

    def _assert_io_failure(self, capsys, message, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_IO, "")
        assert err.startswith(f"error: cannot {message}: ") and err.count("\n") == 1

    def test_simulate_missing_quad_file(self, capsys, tmp_path):
        argv = ("simulate", "--u", "2", "--quad", str(tmp_path / "missing.json"))
        self._assert_io_failure(capsys, "read quadrangulation", *argv)

    @pytest.mark.parametrize("argv", [("trace", "--u", "19/7"), ("verify", "--sector", "1")])
    def test_out_into_a_missing_directory(self, capsys, tmp_path, argv):
        out = str(tmp_path / "no-such-dir" / "out.json")
        self._assert_io_failure(capsys, "write output", *argv, "--out", out)


class TestMalformedInput:
    """Valid JSON of the wrong shape and negative counts are parse failures."""

    def _assert_parse_failure(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_render_sector_zero_has_no_word(self, capsys):
        code, out, err = run_cli(capsys, "render", "--input", "sector:0")
        assert (code, out, err) == (
            EXIT_PARSE, "", "error: sector index must be between 1 and 7\n"
        )

    @pytest.mark.parametrize("index", ["9", "-1", "08", "+3", " 3", "abc", ""])
    def test_render_sector_index_outside_the_words(self, capsys, index):
        # a plain integer outside 1..7 is out of range; any other token does not parse
        code, out, err = run_cli(capsys, "render", "--input", f"sector:{index}")
        message = (
            "sector index must be between 1 and 7"
            if index in ("9", "-1")
            else f"cannot parse sector index {index!r}"
        )
        assert (code, out, err) == (EXIT_PARSE, "", f"error: {message}\n")

    def test_render_stdin_panels_not_a_list(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"panels": 3}'))
        self._assert_parse_failure(capsys, "render", "--input", "-")

    def test_render_file_holding_a_list(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text("[]")
        self._assert_parse_failure(capsys, "render", "--input", str(path))

    def test_simulate_quad_file_holding_a_list(self, capsys, tmp_path):
        path = tmp_path / "quad.json"
        path.write_text("[]")
        self._assert_parse_failure(capsys, "simulate", "--u", "2", "--quad", str(path))

    # each coefficient equals the "0" it replaces, so only the type is wrong
    @pytest.mark.parametrize("coefficient", [0.0, False])
    def test_render_stdin_non_string_coordinate(self, capsys, monkeypatch, coefficient):
        from octocf.octagon import qprime, sector_midpoint

        record = qprime(sector_midpoint(4)).to_json()
        record["wedges"][0]["l"]["y"]["a"] = coefficient
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(record)))
        self._assert_parse_failure(capsys, "render", "--input", "-")

    @pytest.mark.parametrize("coefficient", [0.0, False])
    def test_simulate_quad_non_string_coordinate(self, capsys, tmp_path, coefficient):
        from octocf.octagon import qprime, sector_midpoint

        record = qprime(sector_midpoint(4)).to_json()
        record["wedges"][0]["l"]["y"]["b"] = coefficient
        path = tmp_path / "quad.json"
        path.write_text(json.dumps(record))
        self._assert_parse_failure(capsys, "simulate", "--u", "2", "--quad", str(path))

    # Fraction would expand the exponent, and the run would fail minutes later
    @pytest.mark.parametrize(
        "argv", [("render", "--input", "-"), ("simulate", "--u", "2", "--quad", "-")]
    )
    def test_stdin_exponent_coordinate(self, capsys, monkeypatch, argv):
        from octocf.octagon import qprime, sector_midpoint

        record = qprime(sector_midpoint(4)).to_json()
        record["wedges"][0]["l"]["y"]["a"] = "1e30000000"
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(record)))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "error: expected an exact rational like -3/2, got '1e30000000'\n"

    @pytest.mark.parametrize(
        "argv, what",
        [
            (("render", "--input", "-"), "trace"),
            (("simulate", "--u", "2", "--quad", "-"), "quadrangulation"),
        ],
    )
    @pytest.mark.parametrize(
        "record, field",
        [
            ({}, "k"),
            ({"panels": [{}]}, "k"),
            ({"k": 1, "pi_l": [1], "pi_r": [1]}, "wedges"),
            ({"k": 1, "pi_l": [1], "pi_r": [1], "wedges": [{"l": {"x": {"a": "0"}}}]}, "b"),
        ],
    )
    def test_missing_field_is_named(self, capsys, monkeypatch, argv, what, record, field):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(record)))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: malformed {what} JSON: missing field {field!r}\n"

    # True == 1, so only the type tells these apart from valid gluing data
    @pytest.mark.parametrize("field, value", [("k", True), ("pi_l", [True])])
    def test_render_stdin_boolean_gluing_data(self, capsys, monkeypatch, field, value):
        record = _torus_json()
        record[field] = value
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(record)))
        self._assert_parse_failure(capsys, "render", "--input", "-")

    def test_simulate_quad_boolean_gluing_data(self, capsys, tmp_path):
        record = _torus_json()
        record.update(k=True, pi_l=[True])
        path = tmp_path / "quad.json"
        path.write_text(json.dumps(record))
        self._assert_parse_failure(capsys, "simulate", "--u", "1+sqrt2", "--quad", str(path))

    def test_render_stdin_nested_too_deeply(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 10**5 + "]" * 10**5))
        self._assert_parse_failure(capsys, "render", "--input", "-")

    def test_simulate_quad_file_nested_too_deeply(self, capsys, tmp_path):
        path = tmp_path / "quad.json"
        path.write_text("[" * 10**5 + "]" * 10**5)
        self._assert_parse_failure(capsys, "simulate", "--u", "2", "--quad", str(path))

    def test_simulate_negative_steps(self, capsys):
        self._assert_parse_failure(capsys, "simulate", "--u", "2", "--steps", "-1")

    @pytest.mark.parametrize(
        "argv, least",
        [
            (("expand", "--u", "1", "--depth", "100000000000000000000"), 1),
            (("expand", "--u", "1", "--depth", "0"), 1),
            (("trace", "--u", "19/7", "--steps", "100000000000000000000"), 0),
            (("simulate", "--u", "2", "--steps", "1000001"), 0),
            (("verify", "--sector", "1", "--samples", "0"), 1),
            (("verify", "--sector", "1", "--samples", "1000001"), 1),
            (("verify", "--sector", "1", "--random-samples", "100000000000000000000"), 0),
        ],
    )
    def test_count_flags_are_capped(self, capsys, argv, least):
        # a depth of 10**20 once ended in an OverflowError traceback and exit code 1
        code, out, err = run_cli(capsys, *argv)
        flag = argv[-2]
        assert (code, out, err) == (
            EXIT_PARSE, "", f"error: {flag} must be between {least} and 1000000\n"
        )

    def test_the_count_cap_is_inclusive(self, capsys, tmp_path):
        path = tmp_path / "expansion.json"
        code, _, _ = run_cli(capsys, "expand", "--u", "1", "--depth", "1000000", "--out", str(path))
        assert code == EXIT_OK
        assert len(json.loads(path.read_text())["entries"]) == 10**6

    def test_verify_negative_random_samples(self, capsys):
        self._assert_parse_failure(
            capsys, "verify", "--sector", "1", "--samples", "1", "--random-samples", "-1"
        )


def _torus_json():
    """The one-square torus state of ``simulate --quad torus --u 1+sqrt2``, as JSON."""
    from octocf.diagch import CombDatum, LabeledQuadrangulation, Wedge
    from octocf.farey import Direction
    from octocf.numerics import QuadNum, Vec2

    wedge = Wedge(Vec2(0, 1), Vec2(1, 0))
    ref = Direction(Vec2(QuadNum(1, 1), 1))
    return LabeledQuadrangulation(CombDatum(1, (1,), (1,)), (wedge,), ref).to_json()


# -- fuzzing the whole command line ----------------------------------------------

_INTS = st.integers(-(10**4), 10**4)
_DENS = st.integers(0, 10**4)

#: Number and direction literals, exponent forms such as ``1e400`` included.
_LITERALS = st.one_of(
    _INTS.map(str),
    st.builds("{}/{}".format, _INTS, _DENS),
    st.builds("{}/{}+{}/{}*sqrt2".format, _INTS, _DENS, _INTS, _DENS),
    st.builds("{}.{}".format, _INTS, st.integers(0, 9999)),
    st.builds("{}e{}".format, _INTS, st.integers(-400, 400)),
    st.sampled_from(["inf", "oo", "sqrt2", "golden", "-sqrt2", "1+sqrt2", "sqrt(2)"]),
    st.text(alphabet="0123456789/+-*.sqrtinfo() ", max_size=4),
)
_COUNTS = st.integers(-3, 20)

_STDIN_PAYLOADS = [
    "",
    "not json",
    "[]",
    "null",
    '{"panels": 3}',
    '{"panels": []}',
    '{"panels": [{}]}',
    '{"k": 1, "pi_l": [1], "pi_r": [1], "wedges": []}',
]


@st.composite
def _argv(draw):
    """A subcommand with options drawn from small valid and invalid values."""
    command = draw(
        st.sampled_from(
            ["expand", "reconstruct", "convergents", "simulate", "trace", "verify",
             "dump-matrices", "render"]
        )
    )
    argv = [command]

    def maybe(flag, values):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")

    if command in ("expand", "simulate", "trace"):
        argv.append(f"--u={draw(_LITERALS)}")
        maybe("--side", st.sampled_from(["pos", "neg"]))
    if command in ("expand", "trace"):
        maybe("--policy", st.sampled_from(["low", "high", "mid"]))
    if command == "expand":
        maybe("--depth", _COUNTS)
        if draw(st.booleans()):
            argv.append("--dual")
    elif command == "reconstruct":
        entries = st.lists(st.integers(-1, 8).map(str), max_size=8).map(",".join)
        argv.append(f"--entries={draw(entries | st.text(alphabet='0127, x-', max_size=6))}")
    elif command == "convergents":
        argv.append(f"--alpha={draw(_LITERALS)}")
        maybe("--steps", _COUNTS)
        maybe("--format", st.sampled_from(["json", "text"]))
    elif command == "simulate":
        maybe("--quad", st.sampled_from(["qprime", "q0", "torus", "no-such-quad.json"]))
        maybe("--steps", _COUNTS)
    elif command == "trace":
        maybe("--steps", _COUNTS)
    elif command == "verify":
        maybe("--sector", st.integers(0, 8))
        maybe("--samples", st.integers(-1, 2))
        maybe("--random-samples", st.integers(-1, 2))
    elif command == "render":
        sectors = st.builds("sector:{}".format, st.integers(-1, 8) | st.just("x"))
        inputs = st.sampled_from(["qprime", "-", "no-such-trace.json"]) | sectors
        argv.append(f"--input={draw(inputs)}")
        maybe("--scale", st.integers(-2, 200))
        maybe("--direction", _LITERALS)
        maybe("--side", st.sampled_from(["pos", "neg"]))
        if draw(st.booleans()):
            argv.append("--no-labels")
    return argv


def _run_in_process(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(argv=_argv(), stdin_text=st.sampled_from(_STDIN_PAYLOADS))
def test_fuzzed_command_lines_keep_the_exit_code_contract(argv, stdin_text):
    code, out, err = _run_in_process(argv, stdin_text)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code != EXIT_OK:
        return
    if argv[0] == "render":
        assert ET.fromstring(out).tag.endswith("svg")
    elif argv[0] == "convergents" and "--format=text" in argv:
        assert out.startswith("step")
    else:
        json.loads(out)
