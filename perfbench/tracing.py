"""Spans and counters around qreflect's public functions, installed from outside.

Each traced function is replaced, under the name the package looks it up by,
with a wrapper that times the call and charges its duration to the enclosing
traced call, so every entry's self time is its own duration minus that of its
traced children. Route-level functions also leave a span record (name, start,
end, parent span, operation id); hot scalar evaluators only add to counters,
because a record per call would cost more than the call.

Nothing in the package changes: ``Tracer.install`` patches module attributes
and class methods, ``Tracer.uninstall`` puts the originals back.
"""

from __future__ import annotations

import json
import time
import warnings
from collections import defaultdict

ROUTES = ("direct", "coupled", "transformed")

# (metric, unit, source kind, source key); every value is per pass of
# the workload's input set, so counts repeat exactly between runs of one seed
PER_LAYER = (
    *[m for r in ROUTES for m in (
        (f"scattering.{r}.rhs_evals", "count", "count", f"scattering.{r}.rhs_evals"),
        (f"scattering.{r}.steps", "count", "count", f"scattering.{r}.steps"),
        (f"scattering.{r}.integrate_s", "s", "busy", f"scattering.{r}.integrate"),
        (f"scattering.{r}.self_s", "s", "self", f"scattering.{r}"),
    )],
    ("scattering.scattering_length.s", "s", "busy", "scattering.scattering_length"),
    ("wkb.phase_span_rad", "rad", "count", "wkb.phase_span_rad"),
    ("wkb.q.calls", "count", "calls", "wkb.q"),
    ("wkb.q.self_s", "s", "self", "wkb.q"),
    ("wkb.phi.calls", "count", "calls", "wkb.phi"),
    ("wkb.phi.self_s", "s", "self", "wkb.phi"),
    ("wkb.matching_domain.self_s", "s", "self", "wkb.matching_domain"),
    ("wkb.q_peak.self_s", "s", "self", "wkb.q_peak"),
    ("wkb.phase_coordinate.self_s", "s", "self", "wkb.phase_coordinate"),
    ("potentials.tabulated_eval.calls", "count", "calls", "potentials.tabulated_eval"),
    ("potentials.tabulated_eval.self_s", "s", "self", "potentials.tabulated_eval"),
    ("potentials.load_table.s", "s", "busy", "potentials.load_table"),
    ("liouville.special_gauge.self_s", "s", "self", "liouville.special_gauge"),
    ("liouville.probe.self_s", "s", "self", "liouville.probe"),
    ("liouville.wall_integral.self_s", "s", "self", "liouville.wall_integral"),
    ("liouville.wall_integral.warnings", "count", "count", "liouville.wall_integral.warnings"),
    ("mathieu.characteristic_exponent.self_s", "s", "self", "mathieu.characteristic_exponent"),
    ("mathieu.coefficients.self_s", "s", "self", "mathieu.coefficients"),
    ("mathieu.parity_sigma.self_s", "s", "self", "mathieu.parity_sigma"),
    ("specialfns.bessel_j.calls", "count", "calls", "specialfns.bessel_j"),
    ("specialfns.bessel_j.self_s", "s", "self", "specialfns.bessel_j"),
    ("specialfns.hyp2f1.calls", "count", "calls", "specialfns.hyp2f1"),
    ("specialfns.hyp2f1.self_s", "s", "self", "specialfns.hyp2f1"),
    ("cli.main.s", "s", "busy", "cli.main"),
    ("cli.self_s", "s", "self", "cli.main"),
)


class Tracer:
    """In-memory spans and per-function counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent span index, op id]
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.solves: list[tuple] = []  # (field, cut or None, domain or None)
        self.op_id = None
        self.clock = time.perf_counter   # the runner swaps in its work clock
        self._stack: list[list[float]] = []   # child seconds of each open call
        self._open_spans: list[int] = []
        self._patched: list[tuple] = []

    # -- wrapping ------------------------------------------------------------
    def _timed(self, fn, name, span: bool, on_call=None, on_return=None):
        stack, open_spans, spans = self._stack, self._open_spans, self.spans

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            label = name(args) if callable(name) else name
            frame = [0.0]
            stack.append(frame)
            if span:
                sid = len(spans)
                spans.append([label, 0.0, 0.0, open_spans[-1] if open_spans else None,
                              self.op_id])
                open_spans.append(sid)
            start = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                dur = end - start
                self.calls[label] += 1
                self.busy[label] += dur
                self.self_time[label] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span:
                    open_spans.pop()
                    spans[sid][1] = start
                    spans[sid][2] = end
            if on_return is not None:
                on_return(label, out)
            return out

        return traced

    def _patch(self, owner, attr, name, span, **hooks):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._timed(original, name, span, **hooks))

    def install(self):
        from qreflect import cli, liouville, mathieu, potentials, scattering, wkb

        patch = self._patch
        patch(cli, "main", "cli.main", True)
        patch(scattering, "solve_direct", "scattering.direct", True, on_call=self._record_route)
        patch(scattering, "solve_coupled", "scattering.coupled", True, on_call=self._record_route)
        patch(scattering, "solve_transformed", "scattering.transformed", True,
              on_call=self._record_transformed)
        patch(scattering, "solve_ivp", self._integrate_name, True, on_return=self._record_ivp)
        patch(scattering, "scattering_length", "scattering.scattering_length", True)
        patch(wkb.WkbField, "matching_domain", "wkb.matching_domain", True)
        patch(wkb.WkbField, "q_peak", "wkb.q_peak", True)
        patch(wkb.WkbField, "q", "wkb.q", False)
        patch(wkb.WkbField, "phi", "wkb.phi", False)
        for owner in (wkb, liouville):
            patch(owner, "phase_coordinate", "wkb.phase_coordinate", False)
        patch(wkb, "hyp2f1", "specialfns.hyp2f1", False)
        for attr in ("value", "dvalue", "d2value"):
            patch(potentials.TabulatedPotential, attr, "potentials.tabulated_eval", False)
        patch(potentials, "load_potential_table", "potentials.load_table", True)
        patch(liouville, "special_gauge", "liouville.special_gauge", True)
        patch(liouville.TransformedProblem, "probe", "liouville.probe", True)
        self._patch_wall_integral(liouville)
        patch(mathieu, "solve_v4", "mathieu.solve_v4", True)
        for attr in ("characteristic_exponent", "coefficients", "parity_sigma"):
            patch(mathieu, attr, f"mathieu.{attr}", True)
        patch(mathieu, "bessel_j", "specialfns.bessel_j", False)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch_wall_integral(self, liouville):
        from scipy.integrate import IntegrationWarning

        original = liouville.wall_integral

        def counted(problem):
            # the quadrature warnings leak to stderr today; count them instead
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = original(problem)
            for w in caught:
                if issubclass(w.category, IntegrationWarning):
                    self.counts["liouville.wall_integral.warnings"] += 1
                else:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return out

        self._patched.append((liouville, "wall_integral", original))
        liouville.wall_integral = self._timed(counted, "liouville.wall_integral", True)

    # -- hooks -----------------------------------------------------------------
    def _integrate_name(self, _args) -> str:
        route = self.spans[self._open_spans[-1]][0] if self._open_spans else "scattering.other"
        return f"{route}.integrate"

    def _record_ivp(self, label, sol):
        route = label.rsplit(".", 1)[0]
        self.counts[f"{route}.rhs_evals"] += sol.nfev
        self.counts[f"{route}.steps"] += len(sol.t) - 1

    def _record_route(self, potential, energy, ctl=None):
        from qreflect import scattering, wkb

        cut = (ctl or scattering.SolverControl()).q_match_rel
        self.solves.append((wkb.WkbField(potential, energy), cut, None))

    def _record_transformed(self, problem, ctl=None):
        self.solves.append((problem.field, None, problem.domain))

    # -- results ---------------------------------------------------------------
    def phase_span(self) -> float:
        """Sum of phi(z_max) - phi(z_min) over the recorded solves.

        Call after ``uninstall``: the span is the work behind each solve,
        measured outside the timed calls.
        """
        total = 0.0
        for field, cut, domain in self.solves:
            z_min, z_max = domain if domain is not None else field.matching_domain(cut)
            total += field.phi(z_max) - field.phi(z_min)
        return total

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        sources = {"calls": self.calls, "busy": self.busy, "self": self.self_time,
                   "count": self.counts}
        return {name: (sources[kind].get(key, 0) / passes, unit)
                for name, unit, kind, key in PER_LAYER}

    def write_spans(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans}, fh)
