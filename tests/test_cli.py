"""End-to-end command-line checks: output schemas, exit codes, config merging."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fueter import cli, jets
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


@pytest.fixture
def payloads(monkeypatch):
    """The payloads the CLI renders as JSON, in order."""
    seen, real = [], cli._dumps
    monkeypatch.setattr(cli, "_dumps", lambda payload: seen.append(payload) or real(payload))
    return seen


@pytest.fixture
def encoded(monkeypatch):
    """The number of points of each payload handed to json.dumps."""
    seen, real = [], json.dumps
    monkeypatch.setattr(json, "dumps", lambda obj, **kw: seen.append(len(obj.get("points", ()))) or real(obj, **kw))
    return seen


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

    def test_point_outside_the_domain_names_the_rectangle(self, capsys):
        # the default rectangle's x0 = 0 edge lies on arctan's cut for r >= 1
        code = main(["forward", "--h", "arctan"])
        err = capsys.readouterr().err
        assert code == 2
        assert "arctan is not defined at z=" in err
        assert "on the default rectangle [0, 1] x [0.5, 1.5]; choose one inside the domain of arctan with --rect" in err
        code = main(["forward", "--h", "arctan", "--rect", "0,0.5,0.5,1.5", "--grid", "2,2"])
        assert code == 2
        assert "on the rectangle [0, 0.5] x [0.5, 1.5]; " in capsys.readouterr().err

    def test_infinite_rect_edge_is_config_error(self, capsys):
        code = main(["forward", "--h", "recip", "--rect", "0,1,0.5,inf", "--grid", "2,2"])
        assert code == 2
        assert "rectangle edge d must be finite, got inf" in capsys.readouterr().err

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

    def test_non_finite_init_is_config_error(self, capsys):
        code = main(["invert", "--field", "cubic", "--grid", "2,2", "--init", "nan,0"])
        assert code == 2
        assert "init must be finite, but entry 0 is nan" in capsys.readouterr().err

    def test_infinite_rect_edge_is_config_error(self, capsys):
        code = main(["invert", "--field", "cubic", "--rect", "0,inf,0.5,1.5", "--grid", "2,2"])
        assert code == 2
        assert "rectangle edge b must be finite, got inf" in capsys.readouterr().err

    def test_nan_quadrature_tolerance_is_config_error(self, capsys):
        code = main(["invert", "--field", "cubic", "--grid", "2,2", "--quad-tol", "nan"])
        assert code == 2
        assert "abs_tol must be positive, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["joined", "separate", "abbreviated"])
    def test_negative_rect_and_init_as_separate_values(self, capsys, form):
        # a value starting with a minus sign is read as a value, not an option
        rect, init = "-0.5,0.5,0.5,1.5", "-1,-2.5e-1"
        argv = ["invert", "--field", "cubic", "--grid", "2,2"]
        argv += {
            "joined": [f"--rect={rect}", f"--init={init}"],
            "separate": ["--rect", rect, "--init", init],
            "abbreviated": ["--re", rect, "--ini", init],
        }[form]
        code, out = run(capsys, *argv)
        assert code == 0
        data = json.loads(out)
        assert data["meta"]["rect"] == [-0.5, 0.5, 0.5, 1.5]
        assert data["trajectories"]["init"] == [-1.0, -0.25]

    def test_option_after_number_list_option_is_still_an_option(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["invert", "--field", "cubic", "--rect", "--grid", "2,2"])
        assert err.value.code == 2
        assert "--rect: expected one argument" in capsys.readouterr().err

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

    def test_readme_pipeline_recovers_arctan(self, capsys, tmp_path):
        # 40 x 40 profiles of Ft[arctan]; the interpolated field's primitive
        # is arctan up to a real linear gauge, within the interpolation error
        from fueter.verify import polynomial_fit_residual

        field_file = tmp_path / "profiles.json"
        code, _ = run(
            capsys, "forward", "--h", "arctan", "--m", "3", "--profiles",
            "--rect", "0.2,1.0,0.5,1.5", "--grid", "40,40", "--out", str(field_file),
        )
        assert code == 0
        code, out = run(capsys, "invert", "--field-json", str(field_file), "--grid", "6,6")
        assert code == 0
        samples = []
        for pt in json.loads(out)["points"]:
            z = complex(pt["x0"], pt["r"])
            samples.append((z, complex(*pt["value"]) - complex(np.arctan(z))))
        assert polynomial_fit_residual(samples, 1) <= 1e-8


class TestRoundtrip:
    def test_cubic_reports_small_residuals(self, capsys):
        code, out = run(capsys, "roundtrip", "--h", "z^3", "--m", "3", "--grid", "4,4")
        assert code == 0
        data = json.loads(out)
        assert data["gauge_fit_residual"] <= 1e-8
        assert data["field_residual"] <= 1e-4
        assert data["cr_residual"]["max"] <= 1e-6
        assert data["vekua_residual"]["max"] <= 1e-6

    def test_primitive_evaluated_once_per_grid(self, capsys, monkeypatch):
        # the gauge samples take one array eval and the CR stencil one per
        # offset; only the finite-difference forward image stays pointwise
        from fueter.inverse import FueterPrimitive

        sizes, real = [], FueterPrimitive.eval
        monkeypatch.setattr(FueterPrimitive, "eval", lambda self, x0, r: sizes.append(np.size(r)) or real(self, x0, r))
        code, _ = run(capsys, "roundtrip", "--h", "z^3", "--m", "3", "--grid", "4,4")
        assert code == 0
        assert [n for n in sizes if n > 1] == [16] * 5
        assert sizes.count(1) == 16 * 3  # 4 x 4 points, 2N + 1 = 3 radial samples each

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



RECT = "0.2,1.0,0.5,1.5"


class TestJsonOutput:
    """Every JSON output is json.dumps(payload, indent=2) + newline, byte for byte."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("forward", "--h", "arctan", "--m", "3", "--profiles", "--rect", RECT, "--grid", "7,5"),
            # k = 0 on the e1 axis: exactly two nonzero blades, so value is two pairs
            ("forward", "--h", "recip", "--m", "3", "--rect", RECT, "--grid", "3,2"),
            ("forward", "--h", "arctan", "--m", "5", "--k", "1", "--rect", RECT, "--grid", "2,2"),
            ("invert", "--field", "example1", "--grid", "3,4"),
            ("kernel", "--m", "3", "--k", "1"),
            ("roundtrip", "--h", "z^3", "--m", "3", "--grid", "4,4"),
        ],
    )
    def test_cli_output_equals_stdlib_rendering(self, capsys, payloads, argv):
        code, out = run(capsys, *argv)
        assert code == 0
        assert len(payloads) == 1
        assert out == json.dumps(payloads[0], indent=2) + "\n"

    def test_two_blade_values_are_pairs(self, capsys, payloads):
        code, _ = run(capsys, "forward", "--h", "recip", "--m", "3", "--rect", RECT, "--grid", "2,2")
        assert code == 0
        for pt in payloads[0]["points"]:
            assert [label for label, _ in pt["value"]] == ["", "1"]

    def test_float_points_skip_the_stdlib_encoder(self, capsys, encoded):
        run(capsys, "forward", "--h", "arctan", "--m", "3", "--profiles", "--rect", RECT, "--grid", "4,4")
        run(capsys, "invert", "--field", "cubic", "--grid", "3,3")
        assert encoded == [0, 0]
        run(capsys, "forward", "--h", "recip", "--m", "3", "--rect", RECT, "--grid", "2,2")
        assert encoded == [0, 0, 4]

    @pytest.mark.parametrize(
        "points",
        [
            [{"x0": 0.5, "r": -0.0, "value": [-0.0, 1e-300]}, {"x0": 1e22, "r": 2.5e-8, "value": [0.1, -7.0]}],
            [{"x0": 0.5, "r": 1.0, "value": [float("nan"), 1.0]}],
            [{"x0": 0.5, "r": 1.0, "value": [float("inf"), 1.0]}],
            [{"x0": 0.5, "r": 1.0, "value": [1.0, float("-inf")]}],
            [{"x0": 1.7e308, "r": 1.7e308, "value": [1.7e308]}],
            [{"x0": 0, "r": 1.0, "value": [1.0, 2.0]}],
            [{"x0": 0.5, "r": 1.0, "value": [True, 2.0]}],
            [{"x0": 0.5, "r": 1.0, "value": [1.0, 2]}],
            [{"x0": 0.5, "r": 1.0, "value": [1.0]}, {"x0": 0.5, "r": 1.0, "value": [1.0, 2.0]}],
            [{"x0": 0.5, "r": 1.0, "value": [1.0, 2.0]}, {"x0": 0.5, "r": 1.0, "value": [1.0]}],
            [{"x0": 0.5, "r": 1.0, "value": v} for v in ([1.0, 2.0], [1.0], [1.0, 2.0, 3.0])],
            [{"x0": 0.5, "r": 1.0, "value": []}],
            [{"x0": 0.5, "r": 1.0, "value": (1.0, 2.0)}],
            [{"x0": 0.5, "r": 1.0, "value": {1.0: 2.0}}],
            [{"x0": 0.5, "r": 1.0, "value": [["", 1.0], ["1", 2.0]]}],
            [{"r": 1.0, "x0": 0.5, "value": [1.0, 2.0]}],
            [{"x0": 0.5, "r": 1.0, "value": [1.0, 2.0], "w": 1.0}],
            [{"x0": 0.5, "r": 1.0}],
            [[0.5, 1.0, [1.0, 2.0]]],
            [],
            None,
        ],
    )
    @pytest.mark.parametrize("last", [True, False])
    def test_helper_equals_stdlib_rendering(self, points, last):
        meta = {"n": 3, "flag": True, "off": False, "gap": None, "x": -0.0, "bad": [float("nan"), float("-inf")]}
        payload = {"meta": meta, "points": points} if last else {"points": points, "meta": meta}
        assert cli._dumps(payload) == json.dumps(payload, indent=2)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.fixed_dictionaries({
        "x0": st.floats(), "r": st.floats(width=32),
        "value": st.lists(st.one_of(st.floats(), st.integers(), st.booleans()), max_size=3),
    }), max_size=4))
    def test_helper_equals_stdlib_on_random_points(self, points):
        payload = {"meta": {"n": len(points)}, "points": points}
        assert cli._dumps(payload) == json.dumps(payload, indent=2)

    def test_csv_rows_match_json_values(self, capsys):
        argv = ("forward", "--h", "arctan", "--m", "3", "--rect", RECT, "--grid", "3,2")
        for extra, coeffs in (((), lambda v: Multivector.from_pairs(3, v).coeffs.tolist()),
                              (("--profiles",), lambda v: v)):
            _, out = run(capsys, *argv, *extra)
            points = json.loads(out)["points"]
            _, out = run(capsys, *argv, *extra, "--format", "csv")
            rows = list(csv.reader(out.splitlines()))
            assert rows[1:] == [[repr(v) for v in [p["x0"], p["r"]] + coeffs(p["value"])] for p in points]
        _, out = run(capsys, "invert", "--field", "cubic", "--grid", "2,3")
        points = json.loads(out)["points"]
        _, out = run(capsys, "invert", "--field", "cubic", "--grid", "2,3", "--format", "csv")
        rows = list(csv.reader(out.splitlines()))
        assert rows[1:] == [[repr(v) for v in [p["x0"], p["r"], *p["value"]]] for p in points]


class TestParserReuse:
    def test_one_parser_serves_successive_calls(self, capsys):
        argv = ["forward", "--h", "recip", "--m", "3", "--rect", RECT, "--grid", "2,2"]
        _, out = run(capsys, *argv, "--profiles")
        assert json.loads(out)["meta"]["profiles"] is True
        _, out = run(capsys, *argv)
        data = json.loads(out)
        assert data["meta"]["profiles"] is False
        assert all(isinstance(pair, list) for pt in data["points"] for pair in pt["value"])
        _, out = run(capsys, *argv, "--format", "csv")
        assert out.startswith("x0,r,c,")
        _, out = run(capsys, *argv)
        assert json.loads(out)["meta"]["command"] == "forward"
        with pytest.raises(SystemExit) as err:
            main(argv + ["--nope"])
        assert err.value.code == 2
        code, out = run(capsys, *argv)
        assert code == 0 and json.loads(out)["points"]

    def test_build_parser_is_fresh(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()
