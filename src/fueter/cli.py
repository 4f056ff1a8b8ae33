"""Command-line front end.

Subcommands: forward, invert, roundtrip, kernel, oracles, selftest.
Option precedence is flags > --config JSON file > built-in defaults.
Exit codes: 0 ok, 1 failed acceptance/agreement checks, 2 invalid
configuration, 3 numerical failure.  forward evaluates its whole grid's
profiles in one array call, kernel one per power of z, invert its primitive
in one eval call and roundtrip in one per grid or set of circles (its
Cauchy-integral field residual and its Cauchy-Riemann residual).  Every grid
is Rectangle.grid's.  invert --field-json evaluates on --rect (or a config
rect) in place of the file's meta.rect when one is given.
JSON output is json.dumps(payload, indent=2): 2-space indent, Python float
repr, NaN/Infinity if non-finite, stable byte for byte.  forward --profiles
and invert write their grid points with the same bytes straight from the
flat (x0, r) arrays and value rows, without a dict per point.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import acceptance, jets
from .clifford import Multivector, _blade_label
from .errors import NumericalError
from .forward import FueterConfig, axial_image, e1_point, fueter_map, fueter_profile
from .inverse import AxialFunction, Rectangle, invert
from .oracles import axial_field
from .polynomials import builtin_pk
from .quadrature import QuadratureConfig
from .verify import cr_residual, kernel_check, polynomial_fit_residual

DEFAULT_RECT = (0.0, 1.0, 0.5, 1.5)
DEFAULT_GRID = (20, 20)


# -- option plumbing -----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, quad_tol: bool, csv_out: bool) -> None:
    """The options of the grid subcommands; --quad-tol only where one inverts, --format only
    where csv can be written."""
    p.add_argument("--config", help="JSON file with option defaults (flags win)")
    p.add_argument("--m", type=int, help="vector dimension (odd, >= 3)")
    p.add_argument("--k", type=int, help="spherical monogenic degree (default 0)")
    p.add_argument("--rect", help="rectangle a,b,c,d in the (x0, r) half plane")
    p.add_argument("--grid", help="evaluation grid nx0,nr")
    if quad_tol:
        p.add_argument("--quad-tol", type=float, dest="quad_tol", help="quadrature abs tolerance")
    p.add_argument("--out", help="output file (default stdout)")
    if csv_out:
        p.add_argument("--format", choices=("json", "csv"), help="output format (default json)")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return data


def _number(value, kind: type, what: str):
    """value, a string or a JSON number (an integer when kind is int), as kind; else ValueError."""
    try:
        if type(value) in ((str, int) if kind is int else (str, int, float)):  # a bool is no number here
            return kind(value)
    except ValueError:
        pass
    raise ValueError(f"{what} must be {'an integer' if kind is int else 'a number'}, got {value!r}")


def _string(value, what: str, choices: tuple[str, ...] | None = None) -> str:
    """value, a string (one of choices when given); else ValueError."""
    if type(value) is str and (choices is None or value in choices):
        return value
    raise ValueError(f"{what} must be {' or '.join(choices) if choices else 'a string'}, got {value!r}")


class _Options:
    """Merged view of CLI flags, config file and defaults."""

    def __init__(self, args: argparse.Namespace):
        self._args = args
        self._file = _load_config(getattr(args, "config", None))

    def get(self, key: str, default=None):
        flag = getattr(self._args, key, None)
        if flag is not None:
            return flag
        if key in self._file:
            return self._file[key]
        return default

    def string(self, key: str, default=None, choices: tuple[str, ...] | None = None) -> str | None:
        raw = self.get(key, default)
        return None if raw is None else _string(raw, f"--{key.replace('_', '-')}", choices)

    def integer(self, key: str, default=None) -> int | None:
        raw = self.get(key, default)
        return None if raw is None else _number(raw, int, f"--{key}")

    def numbers(self, key: str, count: int, kind: type = float, default=None) -> list | None:
        """Option key as count numbers of kind: a comma string or a JSON list; None when unset."""
        raw = self.get(key, default)
        if raw is None:
            return None
        items = raw.split(",") if isinstance(raw, str) else raw
        if not isinstance(items, (list, tuple)) or len(items) != count:
            raise ValueError(f"--{key} needs {count} comma-separated numbers, got {raw!r}")
        return [_number(t, kind, f"--{key}") for t in items]

    def rect(self, default=DEFAULT_RECT) -> Rectangle:
        return Rectangle(*self.numbers("rect", 4, default=default))

    def grid(self, default=DEFAULT_GRID) -> tuple[int, int]:
        nx0, nr = self.numbers("grid", 2, int, default)
        if nx0 < 1 or nr < 1:
            raise ValueError(f"--grid needs two positive ints nx0,nr, got {nx0},{nr}")
        return nx0, nr

    def quad(self) -> QuadratureConfig:
        tol = self.get("quad_tol")
        return QuadratureConfig() if tol is None else QuadratureConfig(_number(tol, float, "--quad-tol"))

    def mk(self, default_m=3, default_k=0) -> tuple[int, int]:
        return self.integer("m", default_m), self.integer("k", default_k)

    def pk(self, m: int, k: int):
        raw = self.get("pk")
        if raw is None:
            return builtin_pk(m, k)
        try:
            i, j, sign = str(raw).split(",")
            i, j, sign = int(i), int(j), {"+": 1, "-": -1}[sign]
        except (ValueError, KeyError):
            raise ValueError(f"--pk needs i,j,+ or i,j,-, got {raw!r}") from None
        return builtin_pk(m, k, i, j, sign)


def _grid_json(payload: dict, xs: np.ndarray, rs: np.ndarray, values: Sequence[np.ndarray]) -> str:
    """json.dumps({**payload, "points": [{"x0", "r", "value": [...]}, ...]}, indent=2), byte for
    byte, from the flat float64 coordinates xs and rs and one or more value rows of their length.

    A finite grid takes one %-template per point (json writes floats as repr does), filled from
    the coordinates' reprs and one repr of the flat value list, and spliced into json's
    rendering of the rest; an empty grid or one with a non-finite number is json's.
    """
    table = np.stack([xs, rs, *values], axis=-1)  # one row (x0, r, values) per point
    if not (table.size and np.isfinite(table).all()):
        points = [{"x0": x0, "r": r, "value": value} for x0, r, *value in table.tolist()]
        return json.dumps({**payload, "points": points}, indent=2)
    n, width = table.shape[0], len(values)
    text = [""] * (n * (width + 2))
    for i, bits in enumerate(table[:, :2].view(np.int64).T.tolist()):
        # a grid repeats each coordinate: format each distinct bit pattern once (a float-keyed
        # cache would merge 0.0 and -0.0)
        reprs = {b: repr(x) for b, x in dict(zip(bits, table[:, i].tolist())).items()}
        text[i::width + 2] = [reprs[b] for b in bits]
    reprs = repr(table[:, 2:].ravel().tolist())[1:-1].split(", ")
    for j in range(width):
        text[2 + j::width + 2] = reprs[j::width]
    items = ",\n".join(["        %s"] * width)
    item = f'    {{\n      "x0": %s,\n      "r": %s,\n      "value": [\n{items}\n      ]\n    }}'
    head = json.dumps({**payload, "points": []}, indent=2)
    return head[:-4] + "[\n" + ",\n".join([item] * n) % tuple(text) + "\n  ]\n}"


def _emit(opts: _Options, payload: dict, csv_rows: Callable | None = None, grid: tuple | None = None) -> None:
    """Write payload as JSON, or, when csv_rows is given, as CSV from csv_rows() -> (header,
    rows), built only when asked for.  A grid (names, xs, rs, value rows) adds the JSON's last
    "points" list, written by _grid_json, and gives the CSV columns x0, r and names."""
    if grid is not None:
        names, xs, rs, values = grid
        csv_rows = lambda: (["x0", "r", *names], [list(row) for row in zip(*(c.tolist() for c in (xs, rs, *values)))])
    if csv_rows is not None and opts.string("format", "json", ("json", "csv")) == "csv":
        header, rows = csv_rows()
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = (_grid_json(payload, *grid[1:]) if grid else json.dumps(payload, indent=2)) + "\n"
    out = opts.string("out")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands ---------------------------------------------------------------


def _cmd_forward(args) -> int:
    opts = _Options(args)
    m, k = opts.mk()
    h_name = opts.string("h")
    if not h_name:
        raise ValueError("forward needs --h <function name>")
    h = jets.by_name(h_name)
    cfg = FueterConfig(m, k)
    profiles = opts.get("profiles", False)
    if not isinstance(profiles, bool):
        raise ValueError(f"profiles must be true or false, got {profiles!r}")
    P = None if profiles else opts.pk(m, k)  # the scalar profiles never use P_k
    rect = opts.rect()
    nx0, nr = opts.grid()

    xs, rs = rect.grid(nx0, nr)
    try:
        ab = fueter_profile(h, cfg, xs, rs)
    except ValueError as exc:  # h undefined at a grid point
        which = "the default rectangle" if opts.get("rect") is None else "the rectangle"
        raise ValueError(
            f"{exc} on {which} [{rect.a:g}, {rect.b:g}] x [{rect.c:g}, {rect.d:g}]; "
            f"choose one inside the domain of {h.name} with --rect a,b,c,d"
        ) from exc
    payload = {
        "meta": {
            "command": "forward",
            "m": m,
            "k": k,
            "h": h.name,
            "profiles": profiles,
            "rect": list(rect.as_tuple()),
            "nx0": nx0,
            "nr": nr,
        },
    }
    if profiles:
        _emit(opts, payload, grid=(("A", "B"), xs, rs, ab))
        return 0
    points = payload["points"] = [
        {"x0": x0, "r": r, "value": axial_image(P, e1_point(m, x0, r), a, b).to_pairs()}
        for x0, r, a, b in zip(xs.tolist(), rs.tolist(), *(c.tolist() for c in ab))
    ]

    def csv_rows():
        rows = [[p["x0"], p["r"]] + Multivector.from_pairs(m, p["value"]).coeffs.tolist() for p in points]
        return ["x0", "r"] + ["c" + _blade_label(idx) for idx in range(1 << m)], rows

    _emit(opts, payload, csv_rows)
    return 0


def _resolve_field(opts: _Options, rect: Rectangle | None) -> AxialFunction:
    grid_path = opts.string("field_json")
    if grid_path:
        with open(grid_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if rect is not None and isinstance(data, dict) and isinstance(data.get("meta"), dict):
            data["meta"]["rect"] = list(rect.as_tuple())  # checked against the tabulated points
        return AxialFunction.from_grid(data)
    name = opts.string("field")
    if not name:
        raise ValueError("need --field <name> or --field-json <path>")
    return axial_field(name, rect, m=opts.integer("m"))


def _cmd_invert(args) -> int:
    opts = _Options(args)
    rect = opts.rect(default=None) if opts.get("rect") is not None else None
    H = _resolve_field(opts, rect)
    m_flag, k_flag = opts.integer("m"), opts.integer("k")
    if m_flag is not None and m_flag != H.m:
        raise ValueError(f"--m {m_flag} conflicts with field {H.name!r} (m={H.m})")
    if k_flag is not None and k_flag != H.k:
        raise ValueError(f"--k {k_flag} conflicts with field {H.name!r} (k={H.k})")
    init = opts.numbers("init", 2 * H.N)
    prim = invert(H, init=init, quad=opts.quad())
    nx0, nr = opts.grid()

    xs, rs = H.rect.grid(nx0, nr)
    uv = prim.eval(xs, rs)
    payload = {
        "meta": {
            "command": "invert",
            "field": H.name,
            "m": H.m,
            "k": H.k,
            "rect": list(H.rect.as_tuple()),
            "nx0": nx0,
            "nr": nr,
        },
        "trajectories": prim.to_json(),
    }
    _emit(opts, payload, grid=(("u", "v"), xs, rs, uv))
    return 0


def _cmd_roundtrip(args) -> int:
    opts = _Options(args)
    m, k = opts.mk()
    h_name = opts.string("h")
    if not h_name:
        raise ValueError("roundtrip needs --h <function name>")
    h = jets.by_name(h_name)
    cfg = FueterConfig(m, k)
    opts.string("format", "json", ("json",))  # a config file's csv is refused before the inversion
    rect = opts.rect(default=(0.2, 1.0, 0.5, 1.5))
    nx0, nr = opts.grid(default=(8, 8))
    # one fueter_profile call per field evaluation
    H = AxialFunction.from_pair(lambda x0, r: fueter_profile(h, cfg, x0, r), m, k, rect, f"forward:{h.name}")
    prim = invert(H, quad=opts.quad())

    xs, rs = rect.grid(nx0, nr)
    z = xs + 1j * rs
    w = prim(z) - h(z)
    fit = polynomial_fit_residual(list(zip(z.tolist(), w.tolist())), cfg.kernel_degree)

    # field and Cauchy-Riemann residuals from one FFT of the primitive's samples on circles
    # inside rect: its image through Cauchy-integral jets, and its departure from holomorphic
    margin = min(rect.b - rect.a, rect.d - rect.c) / 4
    radius = 0.9 * margin
    xv, rv = Rectangle(rect.a + margin, rect.b - margin, rect.c + margin, rect.d - margin).grid(4, 4)
    centres = xv + 1j * rv
    coeffs = jets.circle_coefficients(prim, centres, radius)
    image = fueter_profile(jets.HolomorphicFn.from_circle_coefficients(centres, coeffs, radius), cfg, xv, rv)
    worst = float(np.max(np.abs(np.stack(image) - np.stack(H.pair(xv, rv)))))
    cr = cr_residual(coeffs, radius)
    payload = {
        "meta": {"command": "roundtrip", "m": m, "k": k, "h": h.name,
                 "rect": list(rect.as_tuple()), "kernel_degree": cfg.kernel_degree},
        "gauge_fit_residual": fit,
        "field_residual": worst,
        "cr_residual": cr,
    }
    _emit(opts, payload)
    return 0


def _cmd_kernel(args) -> int:
    opts = _Options(args)
    m, k = opts.mk()
    cfg = FueterConfig(m, k)
    nmax = opts.integer("nmax", cfg.kernel_degree + 1)
    if nmax < 0:
        raise ValueError(f"--nmax must be nonnegative, got {nmax}")
    rect = opts.rect(default=(0.3, 1.3, 0.4, 1.4))
    nx0, nr = opts.grid(default=(5, 5))
    P = opts.pk(m, k)
    results = []
    for n in range(nmax + 1):
        max_norm, expected_zero = kernel_check(n, k, m, rect, nx0, nr, P=P)
        ref = fueter_map(jets.power(n), P, cfg, e1_point(m, 1.0, 1.0))
        results.append(
            {
                "n": n,
                "max_norm": max_norm,
                "expected_zero": expected_zero,
                "value_at_ref": ref.to_pairs(),
            }
        )
    payload = {
        "meta": {"command": "kernel", "m": m, "k": k,
                 "kernel_degree": cfg.kernel_degree, "rect": list(rect.as_tuple())},
        "results": results,
    }
    header = ["n", "max_norm", "expected_zero"]
    _emit(opts, payload, lambda: (header, [[r["n"], r["max_norm"], r["expected_zero"]] for r in results]))
    return 0


def _cmd_oracles(args) -> int:
    del args
    failures = 0
    for fn in (acceptance.criterion_2, acceptance.criterion_3, acceptance.criterion_7):
        res = fn()
        print(acceptance.format_result(res))
        failures += 0 if res.passed else 1
    return 1 if failures else 0


def _cmd_selftest(args) -> int:
    del args
    results = acceptance.run_all()
    for res in results:
        print(acceptance.format_result(res))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} acceptance criteria passed")
    return 1 if failed else 0


# -- entry points ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of the fueter command line."""
    parser = argparse.ArgumentParser(
        prog="fueter",
        description="Axial monogenic transforms: forward evaluation, inversion, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="evaluate the forward transform of h on a grid")
    _add_common(p, quad_tol=False, csv_out=True)
    p.add_argument("--h", help="holomorphic function (recip, arctan, z^n, z*arctan, poly:...)")
    p.add_argument("--pk", help="degree-1 polynomial variant i,j,+ or i,j,-")
    p.add_argument(
        "--profiles",
        action="store_true",
        default=None,
        help="emit scalar profiles [A, B] instead of full multivectors (feeds invert --field-json)",
    )
    p.set_defaults(fn=_cmd_forward)

    p = sub.add_parser("invert", help="construct a holomorphic primitive of an axial field")
    _add_common(p, quad_tol=True, csv_out=True)
    p.add_argument("--field", help="built-in field name (example1, example2-nplus, ...)")
    p.add_argument("--field-json", dest="field_json", help="tabulated field grid JSON")
    p.add_argument("--init", help="2N initial constants a0,..,b0,..")
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("roundtrip", help="forward-map h, invert the image, report residuals")
    _add_common(p, quad_tol=True, csv_out=False)
    p.add_argument("--h", help="holomorphic function to round-trip")
    p.set_defaults(fn=_cmd_roundtrip)

    p = sub.add_parser("kernel", help="scan |Ft[z^n]| against the predicted kernel")
    _add_common(p, quad_tol=False, csv_out=True)
    p.add_argument("--nmax", type=int, help="largest power to scan (default kernel degree + 1)")
    p.add_argument("--pk", help="degree-1 polynomial variant i,j,+ or i,j,-")
    p.set_defaults(fn=_cmd_kernel)

    p = sub.add_parser("oracles", help="run the worked-example and sphere-integral agreement suites")
    p.set_defaults(fn=_cmd_oracles)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    p.set_defaults(fn=_cmd_selftest)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process (parse_args keeps no state): a
    saving only for callers that run main more than once in one process."""
    return build_parser()


def _attach_number_lists(argv: Sequence[str]) -> list[str]:
    """argv with "--rect -0.5,0.5,0.5,1.5" joined into "--rect=-0.5,0.5,0.5,1.5".

    argparse reads a separate value that starts with a minus sign as an
    option unless it is one plain negative number; no option of this
    command line starts with a minus sign and a digit or a point.  The
    options may be abbreviated, as argparse allows.
    """
    out = []
    for token in argv:
        prev = out[-1] if out else ""
        if len(prev) > 2 and any(opt.startswith(prev) for opt in ("--rect", "--init")) and re.match(r"-\.?\d", token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(_attach_number_lists(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
