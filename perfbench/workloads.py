"""The benchmark's three workloads: seeded inputs, operations and output checks.

Inputs come from the seed alone. The package sees only the generated inputs:
kappa*ell values and, for ``table-cli``, a potential table file read through
``--table``. One pass runs every operation of a workload once; a run repeats
identical passes. The checks use the package's own gates and loosen none:

* CLI exit status; unitarity <= 1e-9 and method spread <= 1e-5 (CLI defaults);
* |r - r_Mathieu| <= 1e-5;
* Mathieu R in (0, 1) and strictly decreasing along the grid;
* scatlength b > 0 and fit residual < 1e-4 (``SolverControl.fit_residual_max``).

Only the standard library is imported at module level: qreflect is imported
inside ``setup``, which the set-up probe times.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

MAX_UNITARITY = 1e-9   # qreflect reflect --max-unitarity default
MAX_SPREAD = 1e-5      # qreflect reflect --max-spread default
MAX_ORACLE_ERR = 1e-5
MAX_FIT_RESIDUAL = 1e-4


class Workload:
    """Hooks a workload overrides where it needs them; the runner calls each once."""

    def write_inputs(self):
        """Write input files under the scratch prefix, before any set-up."""

    def prepare(self):
        """Work the checks need, done once after set-up and outside the timing."""


class V4Sweep(Workload):
    """The universal quartic curve by the three numeric routes at the default cut."""

    name = "v4-sweep"
    cut = 1e-10                       # SolverControl default, shared by all routes
    anchors = (1e-3, 0.119, 1.0, 10.0)  # grid ends and the ROADMAP baseline points

    def __init__(self, seed: int, scratch):
        rng = random.Random(seed)
        # one jittered point per decade between the fixed anchors; the jitter
        # of +-10% in kappa*ell moves a pass's cost by well under 1%
        interior = [10.0 ** e * rng.uniform(0.9, 1.1) for e in (-2.5, -1.5, -0.5, 0.5)]
        self.grid = sorted({*self.anchors, *interior})
        self.oracle: dict[float, complex | None] = {}

    def describe(self) -> str:
        return "kappa_ell grid: " + " ".join(f"{kl:.6g}" for kl in self.grid)

    def setup(self):
        from qreflect import potentials, scattering

        self.pots = {kl: potentials.HomogeneousPotential(4, kl) for kl in self.grid}
        self.ctl = scattering.SolverControl(q_match_rel=self.cut)

    def prepare(self):
        """Closed-form oracle, computed once outside the timed operations."""
        from qreflect import mathieu

        for kl in self.grid:
            try:
                sol = mathieu.solve_v4(kl)
                self.oracle[kl] = sol.r if 0.0 < sol.R < 1.0 else None
            except (ValueError, ArithmeticError, RuntimeError):
                self.oracle[kl] = None

    def ops(self):
        from qreflect import liouville, scattering, wkb

        def route(name, kl):
            pot, ctl = self.pots[kl], self.ctl
            if name == "direct":
                return lambda: scattering.solve_direct(pot, kl, ctl)
            if name == "coupled":
                return lambda: scattering.solve_coupled(pot, kl, ctl)

            def transformed():
                _, prob = liouville.special_gauge(wkb.WkbField(pot, kl), trunc_rel=self.cut)
                return scattering.solve_transformed(prob, ctl)
            return transformed

        return [((name, kl), route(name, kl))
                for kl in self.grid for name in ("direct", "coupled", "transformed")]

    def check(self, results):
        ok = []
        err = 0.0
        for (_, kl), res in results:
            r_exact = self.oracle.get(kl)
            good = res is not None and r_exact is not None
            if good:
                e = abs(res.r - r_exact)
                err = max(err, e)
                good = e <= MAX_ORACLE_ERR and res.diagnostics.unitarity_residual <= MAX_UNITARITY
            ok.append(good)
        spread_big_r = 0.0
        for i in range(0, len(results), 3):
            trio = [res for _, res in results[i:i + 3]]
            if any(res is None for res in trio):
                continue
            s = max(abs(a.r - b.r) for a in trio for b in trio)
            spread_big_r = max(spread_big_r, max(abs(a.R - b.R) for a in trio for b in trio))
            if s > MAX_SPREAD:
                ok[i:i + 3] = [False] * 3
        return ok, {"max_err_vs_mathieu": err, "max_method_spread": spread_big_r}


class MathieuCurve(Workload):
    """A dense R4(kappa*ell) curve from the closed form alone."""

    name = "mathieu-curve"
    points = 300

    def __init__(self, seed: int, scratch):
        rng = random.Random(seed)
        # one point per log cell of 1e-3 .. 10; jitter within +-45% of a cell
        # keeps the order, so R must fall strictly from point to point
        width = 4.0 / self.points
        self.grid = [10.0 ** (-3.0 + (i + 0.5 + rng.uniform(-0.45, 0.45)) * width)
                     for i in range(self.points)]

    def describe(self) -> str:
        return (f"{self.points} log-jittered kappa_ell points in "
                f"[{self.grid[0]:.6g}, {self.grid[-1]:.6g}]")

    def setup(self):
        import qreflect  # noqa: F401  (the closed form needs no construction)

    def ops(self):
        from qreflect import mathieu

        return [(kl, (lambda kl=kl: mathieu.solve_v4(kl))) for kl in self.grid]

    def check(self, results):
        ok = []
        prev = None
        for _, sol in results:
            big_r = sol.R if sol is not None else None
            good = big_r is not None and 0.0 < big_r < 1.0
            if good and prev is not None:
                good = big_r < prev
            ok.append(good)
            prev = big_r
        return ok, {}


class TableCli(Workload):
    """The real-surface CLI pipeline on a synthetic -C3/z**3 -> -C4/z**4 table."""

    name = "table-cli"
    energies = ("30", "100", "300")   # --energy-e1 values for reflect --method direct
    coupled_energy = "100"
    q_match = "1e-7"
    wall_points = "8"
    nodes = 500

    def __init__(self, seed: int, scratch):
        rng = random.Random(seed)
        # shaped like the table of tests/test_cli.py: C3 = 0.25, lambda = 500
        # (atomic units), 500 nodes on 1 .. 40000 a0; both jittered by +-5%
        self.c3 = 0.25 * rng.uniform(0.95, 1.05)
        self.lam = 500.0 * rng.uniform(0.95, 1.05)
        self.table = f"{scratch}.pot"

    def describe(self) -> str:
        return f"table C3={self.c3:.6g} lambda={self.lam:.6g} nodes={self.nodes} at {self.table}"

    def write_inputs(self):
        lines = ["# synthetic two-tail surface potential, atomic units",
                 f"# C3={self.c3!r} C4={self.c3 * self.lam!r}"]
        step = math.log(40000.0) / (self.nodes - 1)
        for i in range(self.nodes):
            z = math.exp(i * step)
            lines.append(f"{z:.10e} {-self.c3 / (z ** 3 * (1.0 + z / self.lam)):.10e}")
        with open(self.table, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def setup(self):
        from qreflect import potentials

        potentials.load_potential_table(self.table)

    def ops(self):
        from qreflect import cli

        def command(argv):
            def run():
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                return code, out.getvalue()
            return run

        table = ["--table", self.table]
        ops = [(("reflect", e), command(["reflect", *table, "--energy-e1", e,
                                         "--method", "direct", "--q-match", self.q_match]))
               for e in self.energies]
        ops.append((("coupled", self.coupled_energy),
                    command(["reflect", *table, "--energy-e1", self.coupled_energy,
                             "--method", "coupled", "--q-match", self.q_match])))
        ops.append((("wall", self.coupled_energy),
                    command(["wall", *table, "--energy-e1", self.coupled_energy,
                             "--points", self.wall_points])))
        ops.append((("scatlength", None),
                    command(["scatlength", *table, "--q-match", self.q_match])))
        return ops

    def check(self, results):
        ok = []
        big_r = {}
        spread = 0.0
        for (kind, energy), res in results:
            good = res is not None and res[0] == 0
            if good:
                meta, rows = _parse_csv(res[1])
                good = len(rows) > 0
            if good and kind in ("reflect", "coupled"):
                row = rows[0]
                value = float(row["R_direct" if kind == "reflect" else "R_coupled"])
                good = (row["status"] == "ok" and 0.0 < value < 1.0
                        and float(row["unitarity_residual"]) <= MAX_UNITARITY)
                if kind == "reflect":
                    big_r[energy] = value
                elif energy not in big_r:
                    good = False
                else:
                    spread = abs(value - big_r[energy])
                    good = good and spread <= MAX_SPREAD
            elif good and kind == "wall":
                integrals = [float(v) for k, v in meta.items() if k.startswith("integral[")]
                good = (len(rows) == int(self.wall_points) and len(integrals) == 1
                        and integrals[0] > 0.0
                        and all(math.isfinite(float(r["V_bold"])) for r in rows))
            elif good and kind == "scatlength":
                row = rows[0]
                good = float(row["b"]) > 0.0 and float(row["fit_residual"]) < MAX_FIT_RESIDUAL
            ok.append(good)
        return ok, {"max_method_spread": spread}


def _parse_csv(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """The CLI's CSV: ``# key=value`` metadata lines, a header, then rows."""
    meta: dict[str, str] = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            body.append(line.split(","))
    if not body:
        return meta, []
    header = body[0]
    return meta, [dict(zip(header, row)) for row in body[1:]]


WORKLOADS = {cls.name: cls for cls in (V4Sweep, TableCli, MathieuCurve)}
