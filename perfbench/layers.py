"""Per-layer metrics from the spans of one traced cycle.

Span names are ``<module>.<function>`` or ``<module>.<Class>.<method>``.
A metric reads either

* ``self``: span time minus the time its child spans cover, summed over
  every span matching the patterns, so a layer is not charged for the
  layers it calls; or
* ``incl``: the whole time of the outermost matching spans (a matching
  span nested in another matching span is not counted twice); or
* ``calls``: the number of matching spans.

Each span-based metric names the workload meant to exercise it (``home``);
the trace self-check requires its spans to be called there.
"""

from __future__ import annotations

import fnmatch
import json
import os
import statistics

import numpy as np

from tracing import BENCH_SPAN

SPAN_METRICS = [
    # name, unit, kind, patterns, home workload
    ("cli.parse_config_s", "s", "incl", ("cli.parse_config",), "*"),
    ("cli.artifact_write_s", "s", "incl", ("energy.write_json", "energy.write_series_csv",
                                           "fields.save_snapshot"), "*"),
    ("poly.eval_many_s", "s", "self", ("poly.Poly.eval_many",), "exact-lane"),
    ("poly.eval_calls", "count", "calls", ("poly.Poly.eval_many",), "exact-lane"),
    ("poly.radpoly_eval_s", "s", "self", ("poly.RadPoly.eval_many",), "exact-lane"),
    ("vecfields.lie_multi_s", "s", "incl", ("vecfields.lie_multi",), "exact-lane"),
    ("vecfields.lie_multi_calls", "count", "calls", ("vecfields.lie_multi",), "exact-lane"),
    ("fields.polyfield_eval_s", "s", "self", ("fields.PolyField.eval",), "exact-lane"),
    ("fields.gradient_s", "s", "incl", ("fields.PolyField.gradient",), "exact-lane"),
    ("fields.stencil_s", "s", "self", ("fields.d1_axis", "fields.d2_axis"),
     "flat-tensor-evolve"),
    ("fields.stencil_calls", "count", "calls", ("fields.d1_axis", "fields.d2_axis"),
     "flat-tensor-evolve"),
    ("fields.fill_ghosts_s", "s", "self", ("fields.fill_ghosts_array",),
     "flat-tensor-evolve"),
    ("estimates.commutator_report_s", "s", "self", ("estimates.commutator_report",),
     "exact-lane"),
    ("estimates.identity_residual_s", "s", "incl", ("estimates.identity_residual",),
     "exact-lane"),
    ("estimates.bound_build_s", "s", "incl", ("estimates.commutator_bound_rhs",),
     "exact-lane"),
    ("estimates.bound_eval_s", "s", "incl", ("estimates.CommutatorBound.eval",),
     "exact-lane"),
    ("estimates.energy_estimate_report_s", "s", "self",
     ("estimates.energy_estimate_report",), "bump-monitors"),
    ("estimates.lie_component_series_s", "s", "self", ("estimates.lie_component_series",),
     "bump-monitors"),
    ("certify.suite_s", "s", "incl", ("certify.run_suite",), "exact-lane"),
    ("certify.commutator_identity_s", "s", "incl", ("certify.check_commutator_identity",),
     "exact-lane"),
    # H_full/dH_full include the point-table evaluation they delegate to
    # (H_at, points_full); g_inv_full is its own assembly only, since the
    # H_full it calls is already in H_full_s.
    ("background.H_full_s", "s", "incl", ("background.*.H_full",), "bump-monitors"),
    ("background.H_full_calls", "count", "calls", ("background.*.H_full",),
     "bump-monitors"),
    ("background.dH_full_s", "s", "incl", ("background.*.dH_full",), "bump-monitors"),
    ("background.dH_full_calls", "count", "calls", ("background.*.dH_full",),
     "bump-monitors"),
    ("background.g_inv_full_s", "s", "self", ("background.*.g_inv_full",),
     "bump-monitors"),
    ("background.g_inv_full_calls", "count", "calls", ("background.*.g_inv_full",),
     "bump-monitors"),
    ("evolve.step_s", "s", "incl", ("evolve.Evolver.step",), "flat-tensor-evolve"),
    ("evolve.steps", "count", "calls", ("evolve.Evolver.step",), "flat-tensor-evolve"),
    ("evolve.rhs_s", "s", "self", ("evolve.Evolver.rhs",), "flat-tensor-evolve"),
    ("evolve.rhs_calls", "count", "calls", ("evolve.Evolver.rhs",), "flat-tensor-evolve"),
    ("evolve.build_source_s", "s", "self", ("evolve.build_source",), "flat-tensor-evolve"),
    ("evolve.component_series_s", "s", "self", ("evolve.RunHistory.component_series",),
     "flat-tensor-evolve"),
    ("evolve.setup_s", "s", "incl", ("evolve.setup_experiment", "evolve.sample_scalars",
                                     "evolve.outgoing_pulse_data",
                                     "evolve.plane_wave_data"), "flat-tensor-evolve"),
    ("energy.slice_energy_s", "s", "incl", ("energy.slice_energy",), "flat-tensor-evolve"),
    ("energy.tangential_flux_s", "s", "incl", ("energy.tangential_flux_integral",),
     "bump-monitors"),
    ("energy.conservation_budget_s", "s", "self", ("energy.conservation_budget",),
     "bump-monitors"),
    ("energy.cone_flux_s", "s", "incl", ("energy.cone_flux",), "bump-monitors"),
    # The energy densities and wave operator of a monitored slice, which
    # conservation_budget and the estimate report call for every monitor.
    ("energy.slice_state_s", "s", "self", ("energy.SliceState.*",), "bump-monitors"),
]

MODES = ("certify", "commutator", "evolve", "estimate", "conserve")

# Metrics built from counters recorded at span boundaries, untraced mode
# times and the traced/untraced difference.
DERIVED_METRICS = [
    ("cli.artifact_bytes", "bytes"),
    *[(f"cli.{m}_s", "s") for m in MODES],
    ("poly.eval_monomial_points", "count"),
    ("poly.eval_ns_per_monomial_point", "ns"),
    ("fields.stencil_ns_per_cell", "ns"),
    ("fields.stencil_bytes_computed", "bytes"),
    ("estimates.bound_points", "count"),
    ("certify.checks_passed_ratio", "ratio"),
    ("background.cells_evaluated", "count"),
    ("background.support_fraction", "ratio"),
    ("background.repeat_call_ratio", "ratio"),
    ("evolve.step_ns_per_cell.flat", "ns"),
    ("evolve.step_ns_per_cell.static", "ns"),
    ("evolve.step_ns_per_cell.traveling", "ns"),
    ("evolve.history_mb", "MB"),
    ("trace.overhead_s", "s"),
]

UNITS = {name: unit for name, unit, *_ in SPAN_METRICS} | dict(DERIVED_METRICS)

# Predicted bypasses: spans that must read zero calls on a workload.
NOT_CALLED = {
    "exact-lane": ("background.*.H_full", "background.*.dH_full",
                   "background.*.g_inv_full", "evolve.*"),
    "flat-tensor-evolve": ("background.*.H_full", "background.*.dH_full",
                           "background.*.g_inv_full"),
    "bump-monitors": (),
}


SUM_SLACK_S = 1e-3       # per job: cli.main's own wrapper and clock reads
MAX_UNATTRIBUTED = 0.1   # share of a job's traced wall no layer metric reads


class SpanTable:
    """Spans of one job as arrays: name id, start, end, parent index."""

    def __init__(self, path):
        with open(path) as fh:
            doc = json.load(fh)
        self.job_id = doc["job_id"]
        self.names = doc["names"]
        self.counters = doc["counters"]
        rows = np.asarray(doc["spans"], dtype=np.int64).reshape(-1, 4)
        self.name = rows[:, 0]
        self.start = rows[:, 1]
        self.end = rows[:, 2]
        self.parent = rows[:, 3]
        dur = self.end - self.start
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self.self_ns = dur - covered
        self.in_bench = self.under(self.mask((BENCH_SPAN,)))

    def under(self, mask):
        """Spans in ``mask`` or nested in one (parents precede children)."""
        out = mask.copy()
        child = self.parent >= 0
        while True:
            grown = out.copy()
            grown[child] |= out[self.parent[child]]
            if (grown == out).all():
                return out
            out = grown

    def ids(self, patterns):
        return [i for i, n in enumerate(self.names)
                if any(fnmatch.fnmatchcase(n, p) for p in patterns)]

    def mask(self, patterns):
        return np.isin(self.name, self.ids(patterns))

    def calls(self, patterns):
        return int(np.count_nonzero(self.mask(patterns)))

    def self_s(self, patterns):
        return float(self.self_ns[self.mask(patterns)].sum()) / 1e9

    def incl_s(self, patterns):
        m = self.mask(patterns)
        start, end = self.start[m], self.end[m]   # spans are stored in start order
        if not len(start):
            return 0.0
        prev_end = np.maximum.accumulate(np.concatenate(([start[0] - 1], end[:-1])))
        outer = start >= prev_end
        return float((end[outer] - start[outer]).sum()) / 1e9


def span_metrics(tables):
    out = {}
    for name, _unit, kind, patterns, _home in SPAN_METRICS:
        fn = {"self": SpanTable.self_s, "incl": SpanTable.incl_s,
              "calls": SpanTable.calls}[kind]
        out[name] = sum(fn(t, patterns) for t in tables)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def cycle_metrics(tables, mode_walls, artifact_bytes):
    """Every per-layer metric for one traced cycle.

    ``mode_walls`` maps a mode to its untraced wall time in the paired
    untraced cycle and ``artifact_bytes`` is the size of every artifact
    write the jobs recorded; ``trace.overhead_s`` is filled in by the caller.
    """
    m = span_metrics(tables)
    c = {}
    for t in tables:
        for k, v in t.counters.items():
            c[k] = max(c.get(k, 0), v) if k == "evolve.history_bytes" else c.get(k, 0) + v
    m["cli.artifact_bytes"] = artifact_bytes
    for mode in MODES:
        m[f"cli.{mode}_s"] = mode_walls.get(mode, 0.0)
    m["poly.eval_monomial_points"] = c.get("poly.monomial_points", 0)
    m["poly.eval_ns_per_monomial_point"] = _ratio(m["poly.eval_many_s"] * 1e9,
                                                  m["poly.eval_monomial_points"])
    m["fields.stencil_ns_per_cell"] = _ratio(c.get("fields.stencil_ns", 0),
                                             c.get("fields.stencil_cells", 0))
    m["fields.stencil_bytes_computed"] = c.get("fields.stencil_bytes", 0)
    m["estimates.bound_points"] = c.get("estimates.bound_points", 0)
    m["certify.checks_passed_ratio"] = _ratio(c.get("certify.checks_passed", 0),
                                              c.get("certify.checks", 0))
    bg_calls = m["background.H_full_calls"] + m["background.dH_full_calls"]
    m["background.cells_evaluated"] = c.get("background.cells", 0)
    m["background.support_fraction"] = _ratio(c.get("background.support_cells", 0),
                                              m["background.cells_evaluated"])
    m["background.repeat_call_ratio"] = _ratio(c.get("background.repeat_calls", 0), bg_calls)
    for kind in ("flat", "static", "traveling"):
        m[f"evolve.step_ns_per_cell.{kind}"] = _ratio(c.get(f"evolve.step_ns.{kind}", 0),
                                                      c.get(f"evolve.step_cells.{kind}", 0))
    m["evolve.history_mb"] = c.get("evolve.history_bytes", 0) / 2 ** 20
    m["trace.overhead_s"] = 0.0
    return m


def median_metrics(per_cycle):
    return {k: statistics.median(d[k] for d in per_cycle) for k in per_cycle[0]}


def unattributed_ns(table):
    """Self time of the spans that no time metric reads (bench spans and
    the spans nested in them aside): time the layer metrics do not see."""
    seen = np.zeros(len(table.name), dtype=bool)
    for _name, _unit, kind, patterns, _home in SPAN_METRICS:
        if kind == "self":
            seen |= table.mask(patterns)
        elif kind == "incl":
            seen |= table.under(table.mask(patterns))
    return int(table.self_ns[~seen & ~table.in_bench].sum())


def selfcheck(workload, tables, traced_walls):
    """Problems found in the traced cycle; an empty list means it passed.

    * self times are non-negative and, outside bench spans, sum to each
      job's traced wall (which excludes the bench spans) within
      ``SUM_SLACK_S``;
    * the layer metrics see all but ``MAX_UNATTRIBUTED`` of the traced wall;
    * every span-based metric homed on this workload saw calls;
    * the predicted bypasses saw none.
    """
    problems = []
    for t, wall in zip(tables, traced_walls):
        if (t.self_ns < 0).any():
            problems.append(f"{t.job_id}: negative self time")
        total = float(t.self_ns[~t.in_bench].sum()) / 1e9
        if abs(total - wall) > SUM_SLACK_S:
            problems.append(f"{t.job_id}: self times sum to {total:.6f} s, "
                            f"traced wall {wall:.6f} s")
        share = unattributed_ns(t) / 1e9 / wall
        if share > MAX_UNATTRIBUTED:
            problems.append(f"{t.job_id}: {share:.1%} of the traced wall is in spans "
                            f"no layer metric reads (limit {MAX_UNATTRIBUTED:.0%})")
    for name, _unit, _kind, patterns, home in SPAN_METRICS:
        if home in ("*", workload) and not sum(t.calls(patterns) for t in tables):
            problems.append(f"{name}: no calls to {', '.join(patterns)}")
    for pattern in NOT_CALLED[workload]:
        n = sum(t.calls((pattern,)) for t in tables)
        if n:
            problems.append(f"{pattern}: {n} calls, predicted 0")
    return problems


def load_tables(out_dir, span_files):
    return [SpanTable(os.path.join(out_dir, f)) for f in span_files]
