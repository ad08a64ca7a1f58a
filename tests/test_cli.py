"""Command-line interface: subcommands, JSON output, exit-code contract."""

import json

from octocf.cli import EXIT_OK, EXIT_PARSE, EXIT_VERIFY_FAIL, main


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


class TestVerify:
    def test_default_passes(self, capsys):
        record = run_json(capsys, "verify", "--samples", "1")
        assert record["passed"] is True

    def test_sector_filter(self, capsys):
        record = run_json(capsys, "verify", "--sector", "1", "--samples", "2")
        assert [r["sector"] for r in record["sectors"]] == [1, 1]

    def test_random_samples_seeded(self, capsys, monkeypatch):
        monkeypatch.setenv("OCTOCF_SEED", "42")
        first = run_json(capsys, "verify", "--sector", "2", "--samples", "1", "--random-samples", "2")
        second = run_json(capsys, "verify", "--sector", "2", "--samples", "1", "--random-samples", "2")
        assert first == second
        assert first["seed"] == 42
        assert all(r["passed"] for r in first["random_samples"])

    def test_corrupted_constant_fails_with_located_mismatch(self, capsys, monkeypatch):
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

    def test_inconsistent_constant_reported_as_verification_failure(self, capsys, monkeypatch):
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


class TestTraceAndSimulate:
    def test_trace_steps(self, capsys):
        record = run_json(capsys, "trace", "--u", "19/7", "--steps", "3")
        assert len(record["steps"]) == 3
        assert record["halted"] is None

    def test_simulate_torus(self, capsys):
        record = run_json(
            capsys, "simulate", "--u", "1+sqrt2", "--quad", "torus", "--steps", "5"
        )
        assert len(record["steps"]) == 5

    def test_trace_json_round_trips(self, capsys):
        from octocf.diagch import LabeledQuadrangulation

        record = run_json(capsys, "trace", "--u", "19/7", "--steps", "2")
        state = LabeledQuadrangulation.from_json(record["steps"][0]["state"])
        assert state.to_json() == record["steps"][0]["state"]


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
