"""End-to-end command-line checks: output schemas, exit codes, config merging."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fueter import cli, jets
from fueter.cli import main
from fueter.clifford import Multivector, Paravector
from fueter.forward import FueterConfig, fueter_fields, fueter_map, fueter_profile
from fueter.inverse import Rectangle, invert
from fueter.oracles import axial_field
from fueter.polynomials import builtin_pk


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def grid_points(xs, rs, values) -> list[dict]:
    """The "points" list json.dumps would be handed for the grid xs, rs and value rows."""
    columns = zip(*(np.asarray(c, dtype=np.float64).tolist() for c in (xs, rs, *values)))
    return [{"x0": x0, "r": r, "value": value} for x0, r, *value in columns]


@pytest.fixture
def payloads(monkeypatch):
    """The payloads the CLI writes, in order; a grid's points spelled out as the stdlib's dicts."""
    seen, real = [], cli._emit

    def emit(opts, payload, csv_rows=None, grid=None):
        seen.append(payload if grid is None else {**payload, "points": grid_points(*grid[1:])})
        return real(opts, payload, csv_rows, grid)

    monkeypatch.setattr(cli, "_emit", emit)
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

    @pytest.mark.parametrize("h, coefficient", [("poly:1,nan", "c1 must be finite, got nan"),
                                                ("const:1e400", "value must be finite, got inf")])
    def test_non_finite_coefficient_is_config_error(self, capsys, h, coefficient):
        code = main(["forward", "--h", h, "--m", "3", "--grid", "1,1", "--profiles"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and coefficient in captured.err

    @pytest.mark.parametrize("profiles", [["--profiles"], []])
    def test_overflowing_image_is_numerical_failure(self, capsys, profiles):
        # finite coefficients whose image overflows float64: exit 3, not -Infinity
        code = main(["forward", "--h", "poly:0,0,1e308", "--m", "3", "--grid", "2,2", *profiles])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "the profile of poly:0,0,1e+308 overflows float64 at x0=0, r=0.5" in captured.err

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

    def test_profiles_need_no_inner_monogenic(self, capsys):
        # the built-in P_k stop at k = 1, but --profiles never evaluates P_k
        code, out = run(capsys, "forward", "--h", "log", "--m", "5", "--k", "2", "--profiles", "--grid", "3,3")
        assert code == 0
        points = json.loads(out)["points"]
        x0, r = (np.array([pt[key] for pt in points]) for key in ("x0", "r"))
        A, B = fueter_profile(jets.log(), FueterConfig(5, 2), x0, r)
        assert [pt["value"] for pt in points] == np.stack([A, B], axis=1).tolist()
        code, _ = run(capsys, "forward", "--h", "log", "--m", "5", "--k", "2", "--grid", "3,3")
        assert code == 2

    def test_pk_selects_the_inner_monogenic(self, capsys):
        code, out = run(capsys, "forward", "--h", "arctan", "--m", "5", "--k", "1", "--pk", "1,3,-",
                        "--rect", "0.3,1.0,0.4,1.2", "--grid", "2,3")
        assert code == 0
        P, cfg, e1 = builtin_pk(5, 1, 1, 3, -1), FueterConfig(5, 1), np.eye(5)[0]
        points = json.loads(out)["points"]
        assert len(points) == 6
        for pt in points:
            want = fueter_map(jets.arctan(), P, cfg, Paravector(pt["x0"], pt["r"] * e1))
            assert Multivector.from_pairs(5, pt["value"]) == want

    @pytest.mark.parametrize("argv", [["forward", "--h", "arctan"], ["kernel"]])
    def test_malformed_pk_is_config_error(self, capsys, argv):
        code = main(argv + ["--m", "5", "--k", "1", "--pk", "1,3"])
        assert code == 2
        assert "--pk needs i,j,+ or i,j,-, got '1,3'" in capsys.readouterr().err

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
        # near r = 0.05 the m = 9 Cauchy kernel's integrals need a per-leaf
        # absolute tolerance below one ulp (ROADMAP item 1)
        code = main(["invert", "--field", "cauchy-kernel", "--m", "9", "--rect", "0.1,1.5,0.05,1", "--grid", "2,2"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "no convergence on [" in captured.err and "at depth 40" in captured.err, captured.err

    def test_overflowing_chain_exits_3(self, capsys):
        code = main(["invert", "--field", "cubic", "--init", "1e308,1e308", "--grid", "2,2"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: numerical failure: coefficient chain overflowed on [0, 1]\n"

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


def _second_point(grid, point):
    """grid with its second point replaced."""
    return {**grid, "points": [grid["points"][0], point, *grid["points"][2:]]}


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

    def test_rect_past_the_tabulated_points_is_config_error(self, capsys, tmp_path):
        field_file = tmp_path / "field.json"
        code, _ = run(capsys, "forward", "--h", "z^3", "--m", "3", "--profiles",
                      "--rect", "0.2,1.0,0.5,1.5", "--grid", "6,6", "--out", str(field_file))
        assert code == 0
        blob = json.loads(field_file.read_text())
        blob["meta"]["rect"] = [0.0, 1.0, 0.5, 1.5]
        field_file.write_text(json.dumps(blob))
        code = main(["invert", "--field-json", str(field_file), "--grid", "2,2"])
        assert code == 2
        assert "reaches past the tabulated [0.2, 1] x [0.5, 1.5]" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_rect_selects_a_sub_rectangle_of_the_grid(self, capsys, tmp_path, source):
        # --rect (or a config rect) replaces meta.rect: the primitive lives on the
        # sub-rectangle and is arctan up to a real linear gauge there
        from fueter.verify import polynomial_fit_residual

        field_file = tmp_path / "profiles.json"
        code, _ = run(capsys, "forward", "--h", "arctan", "--m", "3", "--profiles",
                      "--rect", "0.2,1.0,0.5,1.5", "--grid", "40,40", "--out", str(field_file))
        assert code == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rect": [0.4, 0.6, 0.6, 0.9]}))
        extra = ("--rect", "0.4,0.6,0.6,0.9") if source == "flag" else ("--config", str(config))
        code, out = run(capsys, "invert", "--field-json", str(field_file), "--grid", "3,3", *extra)
        assert code == 0
        data = json.loads(out)
        assert data["meta"]["rect"] == data["trajectories"]["rect"] == [0.4, 0.6, 0.6, 0.9]
        zs = [complex(pt["x0"], pt["r"]) for pt in data["points"]]
        assert {z.real for z in zs} == {0.4, 0.5, 0.6} and {z.imag for z in zs} == {0.6, 0.75, 0.9}
        samples = [(z, complex(*pt["value"]) - complex(np.arctan(z))) for z, pt in zip(zs, data["points"])]
        assert polynomial_fit_residual(samples, 1) <= 1e-8

    def test_rect_flag_past_the_tabulated_points_is_config_error(self, capsys, tmp_path):
        field_file = tmp_path / "field.json"
        code, _ = run(capsys, "forward", "--h", "z^3", "--m", "3", "--profiles",
                      "--rect", "0.2,1.0,0.5,1.5", "--grid", "6,6", "--out", str(field_file))
        assert code == 0
        code = main(["invert", "--field-json", str(field_file), "--rect", "0.1,0.6,0.6,0.9", "--grid", "2,2"])
        assert code == 2
        assert "[0.1, 0.6] x [0.6, 0.9] reaches past the tabulated [0.2, 1] x [0.5, 1.5]" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_rect_past_the_grid_is_named_as_the_rectangle(self, capsys, tmp_path, source):
        # the rectangle came from --rect or the config, not from the file's meta.rect
        field_file = tmp_path / "field.json"
        code, _ = run(capsys, "forward", "--h", "z^3", "--m", "3", "--profiles",
                      "--rect", "0.2,1.0,0.5,1.5", "--grid", "6,6", "--out", str(field_file))
        assert code == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rect": [0.1, 0.9, 0.6, 1.4]}))
        extra = ["--rect", "0.1,0.9,0.6,1.4"] if source == "flag" else ["--config", str(config)]
        assert main(["invert", "--field-json", str(field_file), "--grid", "2,2", *extra]) == 2
        err = capsys.readouterr().err
        assert "rectangle [0.1, 0.9] x [0.6, 1.4] reaches past the tabulated [0.2, 1] x [0.5, 1.5]" in err
        assert "meta.rect" not in err

    @pytest.mark.parametrize("malformed, message", [
        (lambda g: {"points": []}, 'grid JSON must be an object with a "meta" object and a "points" list'),
        (lambda g: [1, 2], 'grid JSON must be an object with a "meta" object and a "points" list'),
        (lambda g: {**g, "meta": {k: v for k, v in g["meta"].items() if k != "m"}},
         "grid meta needs integers m, k, nx0 and nr, got {'k': 0, "),
        (lambda g: {**g, "meta": {**g["meta"], "rect": [0.0, 1.0, 0.5]}},
         "grid meta.rect must be four numbers a, b, c, d, got [0.0, 1.0, 0.5]"),
        (lambda g: {**g, "points": 5}, 'grid JSON must be an object with a "meta" object and a "points" list'),
        (lambda g: _second_point(g, {"r": 1.5, "value": [1.0, 2.0]}), "grid point {'r': 1.5, 'value': [1.0, 2.0]}"),
        (lambda g: _second_point(g, {"x0": None, "r": 1.5, "value": [1.0, 2.0]}), "grid point {'x0': None,"),
        (lambda g: _second_point(g, {"x0": 0.0, "r": 1.5, "value": 3.0}), "'value': 3.0} is not {x0, r, value"),
        (lambda g: _second_point(g, {"x0": 0.0, "r": 1.5, "value": [1]}), "'value': [1]} is not {x0, r, value"),
        (lambda g: _second_point(g, {"x0": 0.0, "r": 1.5, "value": [True, 2.0]}), "'value': [True, 2.0]} is not"),
        (lambda g: _second_point(g, {"x0": 0.0, "r": "1.5", "value": [1.0, 2.0]}), "{'x0': 0.0, 'r': '1.5', "),
        (lambda g: {**g, "meta": {**g["meta"], "m": True}},
         "grid meta needs integers m, k, nx0 and nr, got {'m': True, "),
    ], ids=["no-meta", "not-an-object", "meta-without-m", "three-number-rect", "points-not-a-list",
            "point-without-x0", "null-x0", "scalar-value", "one-number-value", "bool-sample", "string-r", "bool-m"])
    def test_malformed_grid_is_config_error(self, capsys, tmp_path, malformed, message):
        grid = {"meta": {"m": 3, "k": 0, "rect": [0.0, 1.0, 0.5, 1.5], "nx0": 2, "nr": 2},
                "points": [{"x0": x, "r": r, "value": [1.0, 2.0]} for x in (0.0, 1.0) for r in (0.5, 1.5)]}
        field_file = tmp_path / "field.json"
        field_file.write_text(json.dumps(malformed(grid)))
        code = main(["invert", "--field-json", str(field_file), "--grid", "2,2"])
        assert code == 2
        assert message in capsys.readouterr().err

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


def field_scale(h_name: str, m: int, k: int, rect) -> float:
    """max|(A, B)| of h's image over roundtrip's residual grid: 4 x 4 points on
    the rectangle shrunk by a quarter of its smaller side."""
    a, b, c, d = rect
    margin = min(b - a, d - c) / 4
    x0, r = Rectangle(a + margin, b - margin, c + margin, d - margin).grid(4, 4)
    return float(np.max(np.abs(np.stack(fueter_profile(jets.by_name(h_name), FueterConfig(m, k), x0, r)))))


def relative_field_residual(data: dict, h_name: str) -> float:
    meta = data["meta"]
    return data["field_residual"] / field_scale(h_name, meta["m"], meta["k"], meta["rect"])


def roundtrip_draws(seed: int, count: int) -> list[tuple[str, int, int, tuple[float, ...]]]:
    """Seeded (h, m, k, rect) draws, each rectangle about the default one's size and
    at least 0.2 from the singular points of h (0 for recip and log, +-i for arctan
    and z*arctan), so the circles of the Cauchy-integral jets stay well inside.

    recip and log at N = 6 (m = 9, k = 2) are not drawn: with init = 0 their primitive
    is h plus a kernel polynomial (max|u + iv| 4.1e5 and 4.0e4 on the default
    rectangle, against |h| <= 2), whose rounding the roundtrip reports truthfully
    as 3.8e-10 and 1.7e-10 of the field, above the 1e-10 bound.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        m, k = int(rng.choice([3, 5, 7, 9])), int(rng.integers(0, 3))
        h = str(rng.choice(["recip", "arctan", "log", "z*arctan", f"z^{2 * k + m}"]))
        a, c = rng.uniform(0.2, 0.4), rng.uniform(0.5, 0.7)
        rect = tuple(float(t) for t in (a, a + rng.uniform(0.8, 1.0), c, c + rng.uniform(0.8, 1.0)))
        if not (h in ("recip", "log") and (m, k) == (9, 2)):
            out.append((h, m, k, rect))
    return out


class TestRoundtrip:
    def test_cubic_reports_small_residuals(self, capsys):
        code, out = run(capsys, "roundtrip", "--h", "z^3", "--m", "3", "--grid", "4,4")
        assert code == 0
        data = json.loads(out)
        assert data["gauge_fit_residual"] <= 1e-8
        assert relative_field_residual(data, "z^3") <= 1e-10
        assert type(data["cr_residual"]) is float and data["cr_residual"] <= 1e-13
        assert sorted(data) == ["cr_residual", "field_residual", "gauge_fit_residual", "meta"]

    def test_primitive_evaluated_once_per_grid(self, capsys, monkeypatch):
        # one call for the gauge samples, then one on the 32-point circles
        # around the 4 x 4 residual grid, whose FFT gives both the jets and
        # the Cauchy-Riemann residual; none point by point
        from fueter.inverse import FueterPrimitive

        sizes, real = [], FueterPrimitive.eval
        monkeypatch.setattr(FueterPrimitive, "eval", lambda self, x0, r: sizes.append(np.size(r)) or real(self, x0, r))
        code, _ = run(capsys, "roundtrip", "--h", "z^3", "--m", "3", "--grid", "4,4")
        assert code == 0
        assert sizes == [16, 16 * jets.CIRCLE_POINTS]

    @pytest.mark.parametrize("argv", [("--h", "recip", "--m", "3"),
                                      ("--h", "arctan", "--m", "7", "--k", "1", "--quad-tol", "1e-7")])
    def test_cr_residual_detects_planted_non_holomorphic_term(self, capsys, monkeypatch, argv):
        # the computed primitive is holomorphic to rounding; adding 1e-9 conj(z)^2,
        # whose residual is 4e-9 |z0| per circle, lifts the report above 1e-9
        code, out = run(capsys, "roundtrip", *argv)
        assert code == 0
        assert json.loads(out)["cr_residual"] <= 1e-10
        from fueter.inverse import FueterPrimitive

        real = FueterPrimitive.eval

        def planted(self, x0, r):
            u, v = real(self, x0, r)
            w = 1e-9 * (np.asarray(x0) - 1j * np.asarray(r)) ** 2
            return u + w.real, v + w.imag

        monkeypatch.setattr(FueterPrimitive, "eval", planted)
        code, out = run(capsys, "roundtrip", *argv)
        assert code == 0
        assert json.loads(out)["cr_residual"] > 1e-9

    def test_second_order_case(self, capsys):
        code, out = run(capsys, "roundtrip", "--h", "recip", "--m", "5", "--grid", "4,4")
        assert code == 0
        data = json.loads(out)
        assert data["gauge_fit_residual"] <= 1e-8
        assert relative_field_residual(data, "recip") <= 1e-10

    @pytest.mark.parametrize("h,m,k,rect", roundtrip_draws(seed=2026, count=6))
    def test_seeded_sweep(self, capsys, h, m, k, rect):
        # the default absolute tolerance, halved at every split, falls below
        # one ulp of large fields and fails to converge; scale it with the field
        tol = 1e-12 * field_scale(h, m, k, rect)
        code, out = run(capsys, "roundtrip", "--h", h, "--m", str(m), "--k", str(k),
                        "--rect", ",".join(map(repr, rect)), "--quad-tol", repr(tol), "--grid", "4,4")
        assert code == 0
        data = json.loads(out)
        assert data["gauge_fit_residual"] <= 1e-8
        assert relative_field_residual(data, h) <= 1e-10
        assert data["cr_residual"] <= 1e-10


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


    def test_pk_selects_the_inner_monogenic(self, capsys):
        code, out = run(capsys, "kernel", "--m", "5", "--k", "1", "--pk", "1,3,-", "--grid", "2,2")
        assert code == 0
        P, cfg = builtin_pk(5, 1, 1, 3, -1), FueterConfig(5, 1)
        xs, rs = Rectangle(0.3, 1.3, 0.4, 1.4).grid(2, 2)
        results = json.loads(out)["results"]
        assert [row["n"] for row in results] == list(range(cfg.kernel_degree + 2))
        for row in results:
            h = jets.power(row["n"])
            ref = fueter_map(h, P, cfg, Paravector(1.0, np.eye(5)[0]))
            assert Multivector.from_pairs(5, row["value_at_ref"]) == ref
            scan = max(fueter_map(h, P, cfg, Paravector(x0, r * np.eye(5)[0])).norm() for x0, r in zip(xs, rs))
            assert (row["max_norm"], row["expected_zero"]) == (scan, row["n"] <= cfg.kernel_degree)

    def test_thin_rectangle_is_scanned(self, capsys):
        # a rectangle 1e-5 high was once refused as too thin for an inset grid
        code, out = run(capsys, "kernel", "--m", "5", "--k", "1", "--rect", "0.3,1.3,0.4,0.40001")
        assert code == 0
        for row in json.loads(out)["results"]:
            assert (row["max_norm"] <= 1e-9) if row["expected_zero"] else (row["max_norm"] > 0.1)

    @pytest.mark.parametrize("pk", [(), ("--pk", "1,3,-")], ids=["default", "pk"])
    def test_scans_the_points_forward_evaluates(self, capsys, pk):
        # kernel and forward --h z^n share --rect and --grid, and so the points x0 + r e_1
        argv = ("--m", "5", "--k", "1", *pk, "--rect", "0.3,1.3,0.4,1.4", "--grid", "3,4")
        code, out = run(capsys, "kernel", *argv)
        assert code == 0
        for row in json.loads(out)["results"]:
            code, field = run(capsys, "forward", "--h", f"z^{row['n']}", *argv)
            assert code == 0
            values = [Multivector.from_pairs(5, pt["value"]).norm() for pt in json.loads(field)["points"]]
            assert row["max_norm"] == max(values)

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_negative_nmax_is_config_error(self, capsys, tmp_path, via_config):
        # an empty scan would read as a pass, like --grid 0,3 it is refused
        argv = ["kernel", "--m", "3", "--nmax", "-1"]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"nmax": -1}))
            argv[3:] = ["--config", str(cfg)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert "--nmax must be nonnegative, got -1" in captured.err
        assert captured.out == ""


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

    @pytest.mark.parametrize("command, config, message", [
        (["forward", "--h", "recip"], {"m": [3]}, "--m must be an integer, got [3]"),
        (["forward", "--h", "recip"], {"m": 3.5}, "--m must be an integer, got 3.5"),
        (["forward", "--h", "recip"], {"rect": 5}, "--rect needs 4 comma-separated numbers, got 5"),
        (["forward", "--h", "recip"], {"rect": [0, 1, "x", 1.5]}, "--rect must be a number, got 'x'"),
        (["forward", "--h", "recip", "--grid", "2,2"], {"profiles": "no"}, "profiles must be true or false, got 'no'"),
        (["forward", "--h", "recip"], {"grid": [2, None]}, "--grid must be an integer, got None"),
        (["kernel", "--m", "3"], {"nmax": [2]}, "--nmax must be an integer, got [2]"),
        (["invert", "--field", "cubic", "--grid", "2,2"], {"init": 5}, "--init needs 2 comma-separated numbers, got 5"),
        (["invert", "--field", "cubic", "--grid", "2,2"], {"quad_tol": [1e-9]}, "--quad-tol must be a number"),
        (["invert", "--grid", "2,2"], {"field_json": [1]}, "--field-json must be a string, got [1]"),
        (["invert", "--grid", "2,2"], {"field": 3}, "--field must be a string, got 3"),
        (["forward", "--grid", "2,2"], {"h": ["recip"]}, "--h must be a string, got ['recip']"),
        (["forward", "--h", "recip", "--grid", "2,2"], {"out": 5}, "--out must be a string, got 5"),
        (["forward", "--h", "recip", "--grid", "2,2"], {"format": "xml"}, "--format must be json or csv, got 'xml'"),
    ], ids=["m-list", "m-fraction", "rect-number", "rect-string-entry", "profiles-string", "grid-null",
            "nmax-list", "init-number", "quad-tol-list", "field-json-list", "field-number", "h-list",
            "out-number", "format-unknown"])
    def test_wrongly_typed_config_value_is_config_error(self, capsys, tmp_path, command, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main([*command, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert captured.out == ""  # no output is written

    def test_config_number_lists_match_flags(self, capsys, tmp_path):
        # a JSON list and a comma string are one parser: the same payload
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rect": [-0.5, 0.5, 0.5, 1.5], "grid": [2, 3], "init": [-1, 0.25], "profiles": False}))
        code, from_file = run(capsys, "invert", "--field", "cubic", "--config", str(cfg))
        assert code == 0
        code, from_flags = run(capsys, "invert", "--field", "cubic", "--rect=-0.5,0.5,0.5,1.5", "--grid", "2,3",
                               "--init=-1,0.25")
        assert code == 0
        assert from_file == from_flags

    def test_unknown_flag_raises_system_exit(self):
        with pytest.raises(SystemExit) as err:
            main(["forward", "--nope"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["forward", "--h", "recip", "--quad-tol", "1e-9"],
        ["kernel", "--quad-tol", "-5"],
        ["roundtrip", "--h", "recip", "--format", "json"],
    ], ids=["forward-quad-tol", "kernel-quad-tol", "roundtrip-format"])
    def test_flag_the_subcommand_does_not_read_exits_2(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2

    def test_roundtrip_refuses_csv_before_any_field_call(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "fueter_fields", lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "invert", lambda *args, **kw: calls.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "csv"}))
        code = main(["roundtrip", "--h", "arctan", "--m", "9", "--k", "2", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and calls == [] and captured.out == ""
        assert "--format must be json, got 'csv'" in captured.err

    @pytest.mark.parametrize("argv", [
        ["forward", "--h", "recip", "--grid", "2,2"],
        ["invert", "--field", "cubic", "--grid", "2,2"],
        ["roundtrip", "--h", "z^3", "--grid", "4,4"],
        ["kernel", "--m", "3", "--grid", "2,2"],
    ], ids=["forward", "invert", "roundtrip", "kernel"])
    def test_config_keys_of_other_subcommands_stay_valid(self, capsys, tmp_path, argv):
        # one config file may serve every subcommand: forward and kernel ignore its
        # quad_tol, roundtrip takes its format json
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quad_tol": 1e-9, "format": "json", "profiles": False}))
        code, out = run(capsys, *argv, "--config", str(cfg))
        assert code == 0 and json.loads(out)["meta"]["command"] == argv[0]



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

    # each grid is (x0s, rs, value rows); None is the CLI's default 20 x 20 grid
    @pytest.mark.parametrize(
        "points",
        [
            ([0.0, -0.0, 0.0, -0.0], [-0.0, -0.0, 0.0, 0.0], [[-0.0, 1e-300, 0.0, 2.5e-8], [1e22, -0.0, -7.0, 0.1]]),
            ([0.5, 1e22], [2.5e-8, 1e-300], [[-0.0, 1e-300], [0.1, -7.0]]),
            ([0.5], [1.0], [[math.nan], [1.0]]),
            ([0.5], [1.0], [[math.inf], [1.0]]),
            ([0.5], [1.0], [[1.0], [-math.inf]]),
            ([0.5, math.nan], [1.0, 1.0], [[1.0, 2.0], [3.0, 4.0]]),
            ([0.5, 0.5], [math.inf, 1.0], [[1.0, 2.0], [3.0, 4.0]]),
            ([0.5, 0.7], [1.0, -math.inf], [[1.0, 2.0]]),
            ([1.7e308], [1.7e308], [[1.7e308]]),
            ([0.5, 0.5, 0.5], [1.0, 1.25, 1.5], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [-0.0, 1e-300, 1e22]]),
            ([5e-324, -5e-324], [2.2250738585072014e-308, 1.0], [[5e-324, -5e-324], [1.0, 2.0]]),
            ([1e15, 1e16], [1e17, 0.1], [[1e16, 123456789012345680.0], [9007199254740993.0, 1e-5]]),
            ([-0.5, -1.5], [0.5, 1.5], [[-0.25, -2.5e-8], [-1e22, -1e-300]]),
            ([0.1], [0.2], [[0.30000000000000004], [1 / 3]]),
            (np.float32([0.1, 0.7]).tolist(), np.float32([1.1, 2.3]).tolist(), [[0.1, 0.2]]),
            ([0.0, 0.0, -0.0, -0.0], [0.5, -0.0, 0.5, 0.0], [[0.0, -0.0, 0.0, -0.0], [1.0, 2.0, 3.0, 4.0]]),
            ([0.25, 0.75], [0.5, 0.5], [[1.0, 2.0], [3.0, 4.0], [5.0, math.nan]]),
            ([0.25] * 3, [0.5, 1.0, 1.5], [[2.5e-8] * 3, [1e22] * 3]),
            ([0.25, 0.75], [0.5, 0.5], [[1.0, 2.0]]),
            ([], [], [[], []]),
            None,
        ],
    )
    @pytest.mark.parametrize("trajectories", [True, False])
    def test_helper_equals_stdlib_rendering(self, points, trajectories):
        # the grid follows meta alone (forward --profiles) or meta and trajectories (invert)
        if points is None:
            xs, rs = Rectangle(*cli.DEFAULT_RECT).grid(*cli.DEFAULT_GRID)
            points = xs, rs, [np.cos(xs * rs), np.sin(xs - rs), xs - rs]
        xs, rs, values = (np.array(c, dtype=np.float64) for c in points)
        meta = {"n": 3, "flag": True, "off": False, "gap": None, "x": -0.0, "bad": [float("nan"), float("-inf")]}
        payload = {"meta": meta, "trajectories": {"init": [0.0, -0.0]}} if trajectories else {"meta": meta}
        want = json.dumps({**payload, "points": grid_points(xs, rs, values)}, indent=2)
        assert cli._grid_json(payload, xs, rs, list(values)) == want

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda width: st.lists(
        st.tuples(st.floats(), st.floats(width=32), *[st.floats()] * width), max_size=4,
    ).map(lambda rows: (width, rows))))
    def test_helper_equals_stdlib_on_random_points(self, grid):
        width, rows = grid
        columns = np.array(rows, dtype=np.float64).reshape(-1, width + 2).T
        payload = {"meta": {"n": len(rows)}}
        want = json.dumps({**payload, "points": grid_points(columns[0], columns[1], columns[2:])}, indent=2)
        assert cli._grid_json(payload, columns[0], columns[1], list(columns[2:])) == want

    def test_grid_coordinates_are_formatted_once_each(self, monkeypatch):
        # 0.0 and -0.0 are two coordinates; equal floats share one repr
        xs, rs = np.array([0.0, -0.0, 0.0, 0.5, 0.5]), np.array([-0.0, 1.0, 1.0, 1.0, -0.0])
        formatted, real = [], repr
        monkeypatch.setattr(cli, "repr", lambda x: formatted.append(x) or real(x), raising=False)
        text = cli._grid_json({"meta": {}}, xs, rs, [xs + rs])
        assert sorted(map(str, formatted[:-1])) == sorted(["0.0", "-0.0", "0.5", "-0.0", "1.0"])
        assert text == json.dumps({"meta": {}, "points": grid_points(xs, rs, [xs + rs])}, indent=2)

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
