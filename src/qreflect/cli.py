"""Command-line front end.

Subcommands:

* ``reflect``    reflection probabilities over an energy grid, by one or all
                 solver routes, with per-row diagnostics and exit-code gates
* ``badlands``   tabulate the WKB-breakdown function Q(z)
* ``wall``       tabulate the Liouville wall (per-field or universal shapes)
* ``scatlength`` complex scattering length of a potential with an
                 inverse-quartic far-end tail

Outputs are deterministic CSV (with ``#`` metadata header) or JSON; energies
are given either as the universal dimensionless product kappa*ell or in
units of the first gravitational-state energy (requires mass and g, atomic
units for strengths and lengths).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import liouville, mathieu, potentials, scattering, wkb

_FMT = "{:.12g}"

# the field flags default to None, so that the universal wall, which reads
# no field, can tell a given flag from an absent one: these are their values
# where a command reads them and they were not given
_FIELD_DEFAULTS = {"n": 3, "cn": 1.0, "mass_amu": potentials.M_HYDROGEN_AMU,
                   "q_match": wkb.Q_MATCH_REL}
# the flag of each SolverControl field, which names it in an error line
_CONTROL_FLAGS = {"rtol": "--rtol", "q_match_rel": "--q-match"}


def _field_flag(args, name: str):
    value = getattr(args, name)
    return _FIELD_DEFAULTS[name] if value is None else value


def _control(args) -> scattering.SolverControl:
    """The solver control of --rtol and --q-match; a value out of range is
    reported under its flag, not under the library's field."""
    try:
        return scattering.SolverControl(rtol=args.rtol, q_match_rel=_field_flag(args, "q_match"))
    except ValueError as exc:
        field, rest = str(exc).split(" ", 1)
        raise ValueError(f"{_CONTROL_FLAGS[field]} {rest}") from None


def _fmt(value) -> str:
    if value is None:   # the cell of a route that failed
        return ""
    if isinstance(value, float):
        return _FMT.format(value)
    return str(value)


def _row_key(label: dict) -> str:
    return _fmt(label.get("kappa_ell", label.get("energy_e1")))


def _grid_value(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:   # also false for nan
        raise ValueError("grid values must be finite and positive")
    return value


def _parse_grid(spec: str) -> list[float]:
    """Comma list of values, or ``start:stop:count[:log]`` ranges."""
    values: list[float] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if ":" in chunk:
            parts = chunk.split(":")
            if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
                raise ValueError(f"bad grid spec {chunk!r}")
            start, stop, count = _grid_value(parts[0]), _grid_value(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError(f"bad grid spec {chunk!r}: a range needs a count of at least 1")
            if len(parts) == 4:
                values.extend(np.geomspace(start, stop, count).tolist())
            else:
                values.extend(np.linspace(start, stop, count).tolist())
        elif chunk:
            values.append(_grid_value(chunk))
    if not values:
        raise ValueError("grid must be non-empty")
    return values


def _check_points(args) -> None:
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")


def _build_potential(args) -> tuple[object, float | None]:
    """Potential in reduced units plus ell (far-end length) when defined.

    With an --energy-e1 grid the strength is taken in atomic units
    (hartree a0**n) and converted like a table; with --kappa-ell it is
    already the reduced strength.
    """
    mass = _field_flag(args, "mass_amu") * potentials.AMU
    if args.table:
        pot = potentials.load_potential_table(args.table, mass_kg=mass)
    elif args.model not in ("v4", "vn"):
        raise ValueError("specify --model v4, --model vn or --table")
    else:
        c_n = _field_flag(args, "cn")
        if getattr(args, "energy_e1", None):
            c_n *= potentials.to_reduced(mass)
        n = 4 if args.model == "v4" else _field_flag(args, "n")
        pot = potentials.HomogeneousPotential(n, c_n)
    n, c_n, _ = pot.tails[1]
    return pot, math.sqrt(c_n) if n == 4 else None


def _energies(args, ell: float | None) -> tuple[list[float], list[dict]]:
    """Reduced energies (kappa**2) and per-row labels from the grid flags."""
    rows: list[dict] = []
    energies: list[float] = []
    if args.kappa_ell:
        if ell is None:
            raise ValueError("kappa-ell grids need a potential with a C4 tail")
        for kl in _parse_grid(args.kappa_ell):
            kappa = kl / ell
            energies.append(kappa * kappa)
            rows.append({"kappa_ell": kl})
    elif args.energy_e1:
        mass = _field_flag(args, "mass_amu") * potentials.AMU
        for x in _parse_grid(args.energy_e1):
            e_j = x * potentials.e1_unit(mass, args.g)
            kappa = potentials.kappa_si(e_j, mass) * potentials.BOHR_RADIUS
            energies.append(kappa * kappa)
            row = {"energy_e1": x}
            if ell is not None:
                row["kappa_ell"] = kappa * ell
            rows.append(row)
    else:
        raise ValueError("give an energy grid: --kappa-ell or --energy-e1")
    return energies, rows


def _emit(path, fmt: str, meta: dict, columns: list[str], rows: list[dict]) -> None:
    if fmt == "json":
        payload = {"config": meta, "rows": rows}
        text = json.dumps(payload, sort_keys=True, indent=2, default=_fmt) + "\n"
    else:
        lines = [f"# {key}={_fmt(val)}" for key, val in sorted(meta.items())]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row.get(c, "")) for c in columns))
        text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _solve_route(name, pot, energy, row, ctl):
    """One route's solution at one grid row: a ScatteringResult or a MathieuSolution."""
    if name == "mathieu":
        return mathieu.solve_v4(row["kappa_ell"])
    if name == "direct":
        return scattering.solve_direct(pot, energy, ctl)
    if name == "coupled":
        return scattering.solve_coupled(pot, energy, ctl)
    _, prob = liouville.special_gauge(wkb.WkbField(pot, energy), trunc_rel=ctl.q_match_rel)
    return scattering.solve_transformed(prob, ctl)


def _pure_quartic(pot) -> bool:
    """The Mathieu route applies: the closed form exists for -C4/z**4 only."""
    return potentials.one_law(pot) and pot.tails[1][0] == 4


def _reflect_row(pot, energy, row, args, ctl) -> dict:
    if args.method == "all":
        methods = ["direct", "coupled", "transformed"]
        if row.get("kappa_ell") is not None and _pure_quartic(pot):
            methods.append("mathieu")
    else:
        methods = [args.method]
    r_by_method: dict[str, complex] = {}
    worst_unitarity = 0.0
    failures = []
    for name in methods:
        try:
            res = _solve_route(name, pot, energy, row, ctl)
        except (RuntimeError, ArithmeticError) as exc:
            # a numerical failure at this energy fails this row only
            row[f"R_{name}"] = None
            failures.append(f"{name}: {exc}")
            continue
        r_by_method[name] = res.r
        row[f"R_{name}"] = res.R
        if name != "mathieu":
            worst_unitarity = max(worst_unitarity, res.diagnostics.unitarity_residual)
    refs = list(r_by_method.values())
    spread = max((abs(a - b) for a in refs for b in refs), default=0.0)
    row["method_spread"] = float(spread)
    if "direct" in r_by_method and "transformed" in r_by_method:
        row["gauge_residual"] = float(abs(r_by_method["direct"] - r_by_method["transformed"]))
    row["unitarity_residual"] = worst_unitarity
    ok = not failures and spread <= args.max_spread and worst_unitarity <= args.max_unitarity
    row["status"] = "ok" if ok else "fail"
    if failures:
        label = next(f"{key}={_fmt(row[key])}" for key in ("kappa_ell", "energy_e1") if key in row)
        print(f"warning: {label}: " + "; ".join(failures), file=sys.stderr)
    return row


def cmd_reflect(args) -> int:
    pot, ell = _build_potential(args)
    ctl = _control(args)
    # 0 and inf are usable gates (inf switches one off); nan and negatives pass nothing
    if not (args.max_spread >= 0.0 and args.max_unitarity >= 0.0):
        raise ValueError("--max-spread and --max-unitarity must be non-negative numbers")
    if args.method == "mathieu" and not _pure_quartic(pot):
        raise ValueError("the mathieu route applies to the inverse-quartic model only")
    energies, rows = _energies(args, ell)
    rows = [_reflect_row(pot, e, row, args, ctl) for e, row in zip(energies, rows)]
    columns = sorted({key for row in rows for key in row},
                     key=lambda c: (c not in ("kappa_ell", "energy_e1"), c))
    meta = {"command": "reflect", "method": args.method, "rtol": args.rtol,
            "q_match": ctl.q_match_rel, "potential": args.table or args.model}
    _emit(args.output, args.format, meta, columns, rows)
    return 0 if all(r["status"] == "ok" for r in rows) else 1


def cmd_badlands(args) -> int:
    _check_points(args)
    pot, ell = _build_potential(args)
    energies, labels = _energies(args, ell)
    rows = []
    meta = {"command": "badlands", "potential": args.table or args.model}
    for energy, label in zip(energies, labels):
        field = wkb.WkbField(pot, energy)
        z_lo, z_hi = field.matching_domain(args.q_match)   # never None: badlands sets 1e-7
        z_peak, q_peak = field.q_peak()
        grid = np.unique(np.concatenate([
            np.geomspace(z_lo, z_hi, args.points),
            np.geomspace(z_peak / 2.0, 2.0 * z_peak, 51),  # peak resolved regardless
        ]))
        for z, q in zip(grid.tolist(), field.q(grid).tolist()):
            rows.append({**label, "z": z, "Q": q})
        key = _row_key(label)
        meta[f"q_peak[{key}]"], meta[f"z_peak[{key}]"] = q_peak, z_peak
    first_cols = [c for c in ("kappa_ell", "energy_e1") if any(c in r for r in rows)]
    _emit(args.output, args.format, meta, first_cols + ["z", "Q"], rows)
    return 0


def cmd_wall(args) -> int:
    _check_points(args)
    if not 0.0 < args.x_min < args.x_max < math.inf:   # also false for nan
        raise ValueError("--x-min and --x-max must be finite with 0 < x-min < x-max")
    rows: list[dict] = []
    meta: dict = {"command": "wall"}
    if args.universal_n is not None:
        n = args.universal_n
        xs = np.geomspace(args.x_min, args.x_max, args.points).tolist()
        for x in xs:
            zb, vb = liouville.universal_wall(x, n)
            rows.append({"z_bold": zb, "V_bold": vb})
        meta.update({"universal_n": n,
                     "integral_closed": liouville.wall_integral_closed(n),
                     "peak_x": wkb.badlands_peak_x(n)})
        if n == 4:
            # the wall is even under x -> 1/x about z*: z_bold(x) + z_bold(1/x)
            # = 2 z*, read relative to |z_bold(x)| + |z_bold(1/x)| >= 2 z* since
            # far out the two cancel, and V_bold(x) = V_bold(1/x), at each printed x
            z_star = wkb.inversion_center()
            mirror = [liouville.universal_wall(1.0 / x, 4) for x in xs]
            meta["inversion_center"] = z_star
            meta["symmetry_residual"] = max(
                max(abs(row["z_bold"] + zb - 2.0 * z_star) / (abs(row["z_bold"]) + abs(zb)),
                    abs(row["V_bold"] - vb))
                for row, (zb, vb) in zip(rows, mirror))
        # checked after the wall, so that an exponent's own error comes first
        unread = ["--" + dest.replace("_", "-")
                  for dest in ("table", "model", "n", "cn", "mass_amu", "kappa_ell",
                               "energy_e1", "q_match", "overlay_universal")
                  if getattr(args, dest) is not None]
        if unread:
            raise ValueError("--universal-n draws the universal wall alone: drop "
                             + ", ".join(unread))
    else:
        pot, ell = _build_potential(args)
        energies, labels = _energies(args, ell)
        for energy, label in zip(energies, labels):
            field = wkb.WkbField(pot, energy)
            _, prob = liouville.special_gauge(field, trunc_rel=_field_flag(args, "q_match"))
            zts, vbs = prob.probe(args.points)
            for zt, vb in zip(zts, vbs):
                rows.append({**label, "curve": "field", "z_bold": float(zt),
                             "V_bold": float(vb)})
            key = _row_key(label)
            meta[f"E_bold[{key}]"] = prob.e_bold
            meta[f"integral[{key}]"] = liouville.wall_integral(prob)
            # the wall of a two-tail potential may dip below zero: how far, and how often
            meta[f"wall_min[{key}]"] = float(vbs.min())
            meta[f"wall_negative_fraction[{key}]"] = float(np.mean(vbs < 0.0))
        if args.overlay_universal:
            n_far = pot.tails[1][0]
            for x in np.geomspace(args.x_min, args.x_max, args.points):
                zb, vb = liouville.universal_wall(float(x), n_far)
                rows.append({"curve": "universal", "z_bold": zb, "V_bold": vb})
            meta["overlay_universal_n"] = n_far
    first_cols = [c for c in ("kappa_ell", "energy_e1", "curve") if any(c in r for r in rows)]
    _emit(args.output, args.format, meta, first_cols + ["z_bold", "V_bold"], rows)
    return 0


def cmd_scatlength(args) -> int:
    pot, ell = _build_potential(args)
    ctl = _control(args)
    result = scattering.scattering_length(pot, ctl)
    record = {
        "a_re": result.a.real,
        "a_im": result.a.imag,
        "b": result.b,
        "ell": result.ell,
        "b_over_ell": result.b / result.ell,
        "fit_residual": result.fit_residual,
    }
    meta = {"command": "scatlength", "potential": args.table or args.model,
            "rtol": args.rtol}
    _emit(args.output, args.format, meta, list(record), [record])
    return 0


def _add_common(sub: argparse.ArgumentParser, energy: bool = True, rtol: bool = False) -> None:
    sub.add_argument("--model", choices=("v4", "vn"), default=None,
                     help="homogeneous potential family")
    sub.add_argument("--n", type=int, default=None, help="exponent for --model vn")
    sub.add_argument("--cn", type=float, default=None,
                     help="strength c_n (reduced units, or atomic units with --energy-e1)")
    sub.add_argument("--table", default=None, help="tabulated potential file (atomic units)")
    sub.add_argument("--mass-amu", type=float, default=None,
                     help="atom mass in amu for unit conversions")
    if energy:
        sub.add_argument("--g", type=float, default=potentials.G_STANDARD,
                         help="gravitational acceleration for the E1 unit")
        # one grid: --energy-e1 also sets the units of --cn
        grid = sub.add_mutually_exclusive_group()
        grid.add_argument("--kappa-ell", default=None,
                          help="dimensionless kappa*ell grid: list or start:stop:count[:log]")
        grid.add_argument("--energy-e1", default=None,
                          help="energy grid in units of the first gravitational state")
    if rtol:
        sub.add_argument("--rtol", type=float, default=scattering.RTOL)
    sub.add_argument("--q-match", type=float, default=None)
    sub.add_argument("--output", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``main`` reuses it on every call."""
    parser = argparse.ArgumentParser(
        prog="qreflect",
        description="quantum reflection on attractive surface potentials")
    subs = parser.add_subparsers(dest="command", required=True)

    p_reflect = subs.add_parser("reflect", help="reflection probabilities over a grid")
    _add_common(p_reflect, rtol=True)
    p_reflect.add_argument("--method", default="all",
                           choices=("direct", "coupled", "transformed", "mathieu", "all"))
    p_reflect.add_argument("--max-spread", type=float, default=1e-5,
                           help="gate on the spread of r between methods")
    p_reflect.add_argument("--max-unitarity", type=float, default=1e-9,
                           help="gate on the unitarity residual")
    p_reflect.set_defaults(func=cmd_reflect)

    p_bad = subs.add_parser("badlands", help="tabulate the WKB-breakdown function")
    _add_common(p_bad)
    p_bad.add_argument("--points", type=int, default=400)
    p_bad.set_defaults(func=cmd_badlands, q_match=1e-7)

    p_wall = subs.add_parser("wall", help="tabulate the Liouville wall")
    _add_common(p_wall)
    p_wall.add_argument("--universal-n", type=int, default=None,
                        help="emit the universal wall of V_n instead of a field's wall")
    p_wall.add_argument("--overlay-universal", action="store_true", default=None,
                        help="append the matching universal wall to a field's table")
    p_wall.add_argument("--x-min", type=float, default=0.02)
    p_wall.add_argument("--x-max", type=float, default=50.0)
    p_wall.add_argument("--points", type=int, default=400)
    p_wall.set_defaults(func=cmd_wall)

    p_len = subs.add_parser("scatlength", help="low-energy scattering length")
    _add_common(p_len, energy=False, rtol=True)
    p_len.set_defaults(func=cmd_scatlength)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
