"""End-to-end command-line checks: output schemas, exit codes, config merging."""

import csv
import json

import numpy as np
import pytest

from fueter import jets
from fueter.cli import main
from fueter.clifford import Multivector, Paravector
from fueter.forward import FueterConfig, fueter_fields, fueter_map
from fueter.inverse import invert
from fueter.oracles import axial_field
from fueter.polynomials import builtin_pk


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestForward:
    def test_json_matches_library(self, capsys):
        code, out = run(
            capsys, "forward", "--h", "recip", "--m", "3",
            "--rect", "0.3,1.0,0.4,1.2", "--grid", "2,2",
        )
        assert code == 0
        data = json.loads(out)
        assert data["meta"]["m"] == 3
        assert data["meta"]["h"] == "recip"
        assert len(data["points"]) == 4
        pt = data["points"][-1]
        direct = fueter_map(
            jets.recip(), builtin_pk(3, 0), FueterConfig(3, 0),
            Paravector(pt["x0"], pt["r"] * np.array([1.0, 0.0, 0.0])),
        )
        # JSON floats round-trip exactly, so equality is bit level
        assert Multivector.from_pairs(3, pt["value"]) == direct

    def test_csv_columns(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, _ = run(
            capsys, "forward", "--h", "z^2", "--m", "3", "--grid", "2,3",
            "--format", "csv", "--out", str(out_file),
        )
        assert code == 0
        rows = list(csv.reader(out_file.open()))
        assert rows[0][:2] == ["x0", "r"]
        assert len(rows[0]) == 2 + 8
        assert len(rows) == 1 + 6

    def test_missing_function_is_config_error(self, capsys):
        code, _ = run(capsys, "forward", "--m", "3")
        assert code == 2

    def test_unknown_function_is_config_error(self, capsys):
        code, _ = run(capsys, "forward", "--h", "nosuch", "--m", "3")
        assert code == 2

    def test_even_dimension_is_config_error(self, capsys):
        code, _ = run(capsys, "forward", "--h", "recip", "--m", "4")
        assert code == 2

    def test_profiles_match_field_closures(self, capsys):
        # one fueter_profile call per point gives what fueter_fields' A and
        # B closures give, bit for bit
        code, out = run(
            capsys, "forward", "--h", "arctan", "--m", "5", "--k", "1", "--profiles",
            "--rect", "0.3,1.0,0.4,1.2", "--grid", "3,4",
        )
        assert code == 0
        A, B = fueter_fields(jets.arctan(), FueterConfig(5, 1))
        points = json.loads(out)["points"]
        assert len(points) == 12
        for pt in points:
            assert pt["value"] == [A(pt["x0"], pt["r"]), B(pt["x0"], pt["r"])]

    def test_kernel_member_gives_zero_grid(self, capsys):
        code, out = run(capsys, "forward", "--h", "z^1", "--m", "3", "--k", "0", "--grid", "3,3")
        assert code == 0
        data = json.loads(out)
        for pt in data["points"]:
            assert all(abs(c) <= 1e-9 for _, c in pt["value"])


class TestInvert:
    def test_json_payload(self, capsys):
        code, out = run(capsys, "invert", "--field", "cubic", "--grid", "2,2")
        assert code == 0
        data = json.loads(out)
        assert data["meta"]["field"] == "cubic"
        traj = data["trajectories"]
        assert traj["K_N"] == "1/2"
        assert traj["N"] == 1
        z = complex(data["points"][3]["x0"], data["points"][3]["r"])
        u, v = data["points"][3]["value"]
        want = z**3 + 0.25 * z
        assert complex(u, v) == pytest.approx(want, abs=1e-10)

    def test_grid_values_match_pointwise_eval(self, capsys):
        # the grid goes through one array eval; each point keeps the bits of
        # a scalar eval (JSON floats round-trip exactly)
        code, out = run(capsys, "invert", "--field", "example1", "--grid", "3,4")
        assert code == 0
        points = json.loads(out)["points"]
        assert len(points) == 12
        prim = invert(axial_field("example1"))
        for p in points:
            assert tuple(p["value"]) == prim.eval(p["x0"], p["r"])

    def test_csv_output(self, capsys):
        code, out = run(capsys, "invert", "--field", "cubic", "--grid", "2,2", "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "x0,r,u,v"
        assert len(rows) == 5

    def test_init_length_checked(self, capsys):
        code, _ = run(capsys, "invert", "--field", "cubic", "--init", "1,2,3")
        assert code == 2

    def test_unknown_field(self, capsys):
        code, _ = run(capsys, "invert", "--field", "example9")
        assert code == 2

    def test_quadrature_failure_exits_3(self, capsys):
        code, _ = run(
            capsys, "invert", "--field", "example1", "--grid", "2,2",
            "--quad-tol", "1e-300",
        )
        assert code == 3

    def test_non_finite_edge_trace_exits_3(self, capsys, monkeypatch):
        from fueter import cli
        from fueter.inverse import AxialFunction, Rectangle

        def nan_field(name, rect, m=None):
            return AxialFunction(
                lambda x0, r: np.full(np.shape(r), np.nan),
                lambda x0, r: np.zeros(np.shape(r)),
                3, 0, Rectangle(*cli.DEFAULT_RECT), name=name,
            )

        monkeypatch.setattr(cli, "axial_field", nan_field)
        code = main(["invert", "--field", "nan-trace", "--grid", "2,2"])
        err = capsys.readouterr().err
        assert code == 3
        assert "non-finite edge trace at x0=" in err

    def test_dimension_conflict_rejected(self, capsys):
        code, _ = run(capsys, "invert", "--field", "example1", "--m", "3")
        assert code == 2
        code, _ = run(capsys, "invert", "--field", "example1", "--k", "1")
        assert code == 2

    def test_worked_field_matches_oracle_up_to_gauge(self, capsys):
        from fueter.oracles import example1_oracle
        from fueter.verify import polynomial_fit_residual

        code, out = run(
            capsys, "invert", "--field", "example1", "--m", "5", "--k", "0",
            "--rect", "0,1,0.5,1.5", "--grid", "5,5",
        )
        assert code == 0
        data = json.loads(out)
        samples = []
        for pt in data["points"]:
            z = complex(pt["x0"], pt["r"])
            got = complex(*pt["value"])
            want = complex(
                example1_oracle("u", x0=pt["x0"], r=pt["r"]),
                example1_oracle("v", x0=pt["x0"], r=pt["r"]),
            )
            samples.append((z, got - want))
        # zero-init inversion differs from the closed form by a kernel
        # polynomial (real coefficients, degree <= 3)
        assert polynomial_fit_residual(samples, 3) <= 1e-6


class TestPipeline:
    def test_profiles_feed_inversion(self, capsys, tmp_path):
        field_file = tmp_path / "field.json"
        code, _ = run(
            capsys, "forward", "--h", "poly:0,0,0,1", "--m", "3", "--profiles",
            "--rect", "0.0,1.0,0.5,1.5", "--grid", "9,9", "--out", str(field_file),
        )
        assert code == 0
        blob = json.loads(field_file.read_text())
        assert blob["meta"]["profiles"] is True
        assert len(blob["points"][0]["value"]) == 2

        code, out = run(
            capsys, "invert", "--field-json", str(field_file), "--grid", "3,3"
        )
        assert code == 0
        data = json.loads(out)
        for pt in data["points"]:
            z = complex(pt["x0"], pt["r"])
            got = complex(*pt["value"])
            assert got == pytest.approx(z**3 + 0.25 * z, abs=1e-7)


class TestRoundtrip:
    def test_cubic_reports_small_residuals(self, capsys):
        code, out = run(capsys, "roundtrip", "--h", "z^3", "--m", "3", "--grid", "4,4")
        assert code == 0
        data = json.loads(out)
        assert data["gauge_fit_residual"] <= 1e-8
        assert data["field_residual"] <= 1e-4
        assert data["cr_residual"]["max"] <= 1e-6
        assert data["vekua_residual"]["max"] <= 1e-6

    def test_second_order_case(self, capsys):
        code, out = run(capsys, "roundtrip", "--h", "recip", "--m", "5", "--grid", "4,4")
        assert code == 0
        data = json.loads(out)
        assert data["gauge_fit_residual"] <= 1e-8
        assert data["field_residual"] <= 1e-4


class TestKernel:
    def test_scan_boundary(self, capsys):
        code, out = run(capsys, "kernel", "--m", "3", "--k", "0", "--nmax", "3")
        assert code == 0
        data = json.loads(out)
        flags = [row["expected_zero"] for row in data["results"]]
        assert flags == [True, True, False, False]
        for row in data["results"]:
            if row["expected_zero"]:
                assert row["max_norm"] <= 1e-9
            else:
                assert row["max_norm"] > 0.1
        # first survivor at the reference point (1, e1) is the scalar -4
        ref = dict(data["results"][2]["value_at_ref"])
        assert ref[""] == pytest.approx(-4.0, abs=1e-12)


class TestSuites:
    def test_selftest_passes(self, capsys):
        code, out = run(capsys, "selftest")
        assert code == 0
        assert "9/9 acceptance criteria passed" in out

    def test_oracles_pass(self, capsys):
        code, out = run(capsys, "oracles")
        assert code == 0
        assert "PASS" in out


class TestConfigMerging:
    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": "recip", "m": 5, "grid": "2,2"}))
        code, out = run(
            capsys, "forward", "--config", str(cfg), "--grid", "3,2"
        )
        assert code == 0
        data = json.loads(out)
        assert data["meta"]["m"] == 5
        assert data["meta"]["nx0"] == 3 and data["meta"]["nr"] == 2

    def test_file_values_apply(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"field": "cubic", "grid": "2,2", "format": "csv"}))
        code, out = run(capsys, "invert", "--config", str(cfg))
        assert code == 0
        assert out.startswith("x0,r,u,v")

    def test_non_object_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _ = run(capsys, "forward", "--config", str(cfg), "--h", "recip")
        assert code == 2

    def test_missing_config_file(self, capsys):
        code, _ = run(capsys, "forward", "--config", "/nonexistent.json", "--h", "recip")
        assert code == 2

    def test_unknown_flag_raises_system_exit(self):
        with pytest.raises(SystemExit) as err:
            main(["forward", "--nope"])
        assert err.value.code == 2

