"""Streamed monitors against the stored-history loops they replace.

``oracles.history_run_experiment``, ``_history_conserve`` and
``oracles.mode_estimate`` are the earlier ``evolve.run_experiment``,
``cli.mode_conserve`` and ``cli.mode_estimate``: the run stores every
snapshot, then each component series is projected from the history and
walked slice by slice, the budget walks the kept series and every
estimate report walks a series.  The streamed runs must write the same
bytes.
"""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest

import oracles
from framewave import cli, energy, estimates, evolve
from framewave.errors import ConstraintError
from framewave.poly import measure_order
from oracles import component_series, conservation_budget, history_run_experiment


def _history_conserve(cfg, out_dir, refine=3):
    Ns = cli._refine_list(cfg["grid"]["N"], refine)
    if not cfg["components"]:
        raise ConstraintError("conserve needs one component")
    _, bg0, params, region = evolve.setup_experiment(cfg)
    residuals, rows = [], []
    for N in Ns:
        sub = json.loads(json.dumps(cfg))
        sub["grid"]["N"] = N
        series = history_run_experiment(sub, out_dir, tag=f"_N{N}",
                                        keep=cfg["components"][0])[2]
        rep = conservation_budget(series, region, cfg["times"]["t1"],
                                         cfg["times"]["t2"], params)
        residuals.append(rep.residual)
        for term, val in rep.terms().items():
            rows.append((N, term, val))
    hs = [2.0 * cfg["grid"]["X"] / N for N in Ns]
    order = measure_order(hs, residuals)
    sup_H = bg0.sup_abs()
    payload = {"N": Ns, "residuals": residuals,
               "measured_order": order if np.isfinite(order) else None,
               "sup_H": sup_H, "hypothesis_ok": bool(sup_H < 1.0 / 3.0),
               "seed": cfg["seed"]}
    energy.write_json(os.path.join(out_dir, "conserve.json"), payload)
    energy.write_series_csv(os.path.join(out_dir, "budget_terms.csv"),
                            [(float(n), term, val) for n, term, val in rows])
    return 0


def _history_cli(monkeypatch):
    """Point the CLI at the stored-history oracles."""
    monkeypatch.setattr(cli, "run_experiment", history_run_experiment)
    monkeypatch.setattr(cli, "mode_conserve", _history_conserve)
    monkeypatch.setattr(cli, "mode_estimate", oracles.mode_estimate)


def _run_both(tmp_path, monkeypatch, mode, body, extra=()):
    """Exit code and {file: bytes} of the CLI as it is and of the oracles."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": mode, **body}))
    got = []
    for side in ("streamed", "history"):
        out = tmp_path / side
        with monkeypatch.context() as mp:
            if side == "history":
                _history_cli(mp)
            rc = cli.main([mode, "--config", str(path), "--out", str(out), *extra])
        got.append((rc, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
    return got


BUMP = {"epsilon": 0.1, "radius": 2.5, "center": [0.0, 0.0, 1.0]}
GAUSS = {"family": "gaussian", "center": [0, 0, 1.5], "sigma": 0.8}
CASES = {
    "zero-rank0": ("evolve", {
        "grid": {"N": 12, "X": 4.0}, "times": {"t1": 0.0, "t2": 0.3},
        "data": GAUSS, "components": ["scalar"], "monitors": 4}, ()),
    "static-rank1-sources-snapshots": ("evolve", {
        "grid": {"N": 12, "X": 4.0}, "times": {"t1": 0.0, "t2": 0.3},
        "background": {"family": "static-bump", **BUMP},
        "data": {**GAUSS, "rank": 1, "channels": 2},
        "source": {"terms": ["AL_dA", "Ae_dAe"]},
        "components": ["L", "e1", "slot0", "L"], "monitors": 4, "snapshots": True}, ()),
    "traveling-rank0-snapshots": ("evolve", {
        "grid": {"N": 12, "X": 4.0}, "times": {"t1": 0.1, "t2": 0.4},
        "background": {"family": "traveling-bump", **BUMP, "velocity": [0.3, 0.0, 0.0]},
        "data": {"family": "outgoing_pulse", "q_center": -1.0, "sigma": 0.5},
        "region": {"q0": "-inf"}, "monitors": 3, "snapshots": True}, ()),
    "periodic-plane-wave": ("evolve", {
        "grid": {"N": 12, "X": math.pi}, "times": {"t1": 0.0, "t2": 0.5},
        "data": {"family": "plane_wave", "kvec": [1.0, 0.0, 0.0], "channels": 2},
        "boundary": "periodic", "monitors": 3, "snapshots": True}, ()),
    "conserve-static-rank0": ("conserve", {
        "grid": {"N": 8, "X": 4.0}, "times": {"t1": 0.0, "t2": 0.2},
        "background": {"family": "static-bump", **BUMP},
        "data": GAUSS, "monitors": 3}, ("--refine", "2")),
    "conserve-traveling-rank1": ("conserve", {
        "grid": {"N": 8, "X": 4.0}, "times": {"t1": 0.0, "t2": 0.2},
        "background": {"family": "traveling-bump", **BUMP, "velocity": [0.0, 0.3, 0.0]},
        "data": {**GAUSS, "rank": 1}, "components": ["e1", "L"],
        "region": {"q0": 0.5}, "monitors": 5}, ("--refine", "2")),
    # 4 steps, monitors at every second one: the steps that follow no
    # monitor compute their own first slope
    "conserve-static-rank0-stride2": ("conserve", {
        "grid": {"N": 8, "X": 4.0}, "times": {"t1": 0.0, "t2": 1.0},
        "background": {"family": "static-bump", **BUMP},
        "data": GAUSS, "monitors": 3}, ("--refine", "2")),
    "conserve-static-rank1-e1": ("conserve", {
        "grid": {"N": 8, "X": 4.0}, "times": {"t1": 0.0, "t2": 0.3},
        "background": {"family": "static-bump", **BUMP},
        "data": {**GAUSS, "rank": 1, "channels": 2}, "components": ["e1"],
        "monitors": 4}, ("--refine", "2")),
    "estimate-traveling": ("estimate", {
        "grid": {"N": 12, "X": 4.0}, "times": {"t1": 0.0, "t2": 0.3},
        "background": {"family": "traveling-bump", **BUMP},
        "data": GAUSS, "multi_indices": ["", "S"], "monitors": 5}, ()),
    "estimate-static-rank1-sources": ("estimate", {
        "grid": {"N": 12, "X": 4.0}, "times": {"t1": 0.0, "t2": 0.3},
        "background": {"family": "static-bump", **BUMP},
        "data": {**GAUSS, "rank": 1, "channels": 2},
        "source": {"terms": ["AL_dA", "Ae_dAe"]},
        "components": ["L", "e1", "Lbar", "slot2"],
        "multi_indices": ["", "S", "P x3", "Z12,S"], "monitors": 5}, ()),
    "estimate-periodic-plane-wave": ("estimate", {
        "grid": {"N": 12, "X": math.pi}, "times": {"t1": 0.0, "t2": 0.5},
        "data": {"family": "plane_wave", "kvec": [1.0, 0.0, 0.0], "channels": 2},
        "boundary": "periodic", "multi_indices": ["", "S", "P x1"], "monitors": 5}, ()),
    # the empty multi-index only: the streamed run stores no snapshot, and
    # 4 monitors are enough without a Lie series
    "estimate-empty-index-repeated-component": ("estimate", {
        "grid": {"N": 12, "X": 4.0}, "times": {"t1": 0.0, "t2": 0.3},
        "background": {"family": "traveling-bump", **BUMP},
        "data": {**GAUSS, "rank": 1}, "components": ["L", "e1", "L"],
        "multi_indices": [""], "monitors": 4}, ()),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_streamed_artifacts_match_history_loops(tmp_path, monkeypatch, case):
    mode, body, extra = CASES[case]
    (rc, got), (rc_ref, want) = _run_both(tmp_path, monkeypatch, mode, body, extra)
    assert rc == rc_ref == 0
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == want[name], name
    if body.get("snapshots"):
        assert "final_state.bin" in got


def test_non_finite_slice_energy_matches_history_loops(tmp_path, monkeypatch):
    # Mark e1 at t1 and L at the last slice non-finite: the history loops
    # walk L's slices first and report L at the last slice, so the streamed
    # run, which meets e1 at t1 first, must check after the run.
    body = {"grid": {"N": 8, "X": 4.0}, "times": {"t1": 0.0, "t2": 0.2},
            "data": {**GAUSS, "rank": 1}, "components": ["L", "e1"], "monitors": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mode": "evolve", **body}))
    cfg = cli.parse_config(str(cfg_path))
    history = history_run_experiment(cfg, str(tmp_path))[0]
    _, _, params, region = evolve.setup_experiment(cfg)
    bad = {evolve.slice_energy(component_series(history, "e1").state(0), region, params, "w"),
           evolve.slice_energy(component_series(history, "L").state(2), region, params, "w")}
    assert len(bad) == 2 and 0.0 not in bad
    slice_energy = evolve.slice_energy

    def marked(st, region, params, weight="w"):
        e = slice_energy(st, region, params, weight)
        return float("nan") if e in bad else e

    monkeypatch.setattr(evolve, "slice_energy", marked)
    (rc, got), (rc_ref, want) = _run_both(tmp_path, monkeypatch, "evolve", body)
    assert rc == rc_ref == 4
    assert got == want and "energy_series.csv" not in got
    event = json.loads(got["run_log.jsonl"].decode().splitlines()[-1])
    assert event == {"event": "non_finite", "t": history.times[2],
                     "quantity": "L:slice_energy"}


@pytest.mark.parametrize("kind, rank, comp", [
    ("static-bump", 0, "scalar"), ("traveling-bump", 1, "e1"), ("zero", 1, "slot0")])
def test_budget_pass_terms_equal_conservation_budget(tmp_path, monkeypatch, kind, rank, comp):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "mode": "conserve", "grid": {"N": 10, "X": 4.0}, "times": {"t1": 0.0, "t2": 0.3},
        "background": {"family": kind, **BUMP}, "data": {**GAUSS, "rank": rank},
        "components": [comp], "region": {"q0": 1.5}, "monitors": 4}))
    cfg = cli.parse_config(str(cfg_path))
    _, _, params, region = evolve.setup_experiment(cfg)
    budget = energy.BudgetPass(region, params)
    made, init = [], evolve.Evolver.__init__

    def tracked_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(evolve.Evolver, "__init__", tracked_init)
    evolve.run_experiment(cfg, str(tmp_path), passes=[budget])
    assert len(made) == 1 and not made[0]._work   # released after the last slice's d_tt
    got = budget.report()
    want = conservation_budget(component_series(history_run_experiment(cfg, str(tmp_path))[0],
                                                comp), region, 0.0, 0.3, params)
    assert got == want
    # dx = 0.8: the cone r = t + 1.5 clears the origin ball on the last two
    # slices, and the ball sphere lies outside the excluded cone on the first two
    assert all(getattr(got, name) != 0.0 for name in (
        "slice_t1", "divergence_volume", "cone_flux", "ball_flux", "weight_volume"))


def _evolve_cfg(tmp_path, monitors, mode="evolve"):
    path = tmp_path / f"cfg{monitors}.json"
    path.write_text(json.dumps({
        "mode": mode, "grid": {"N": 16, "X": 4.0}, "times": {"t1": 0.0, "t2": 4.0},
        "data": {**GAUSS, "rank": 1}, "components": ["L", "e1", "slot0"],
        "monitors": monitors, "snapshots": True}))
    return cli.parse_config(str(path))


def _peaks_and_stored(tmp_path, mode):
    """Traced peak memory of run_experiment and the number of stored
    snapshot arrays, for 3 and 17 monitors; an estimate runs with its
    passes."""
    peaks, stored = {}, {}
    tracemalloc.start()
    try:
        for monitors in (3, 17):
            cfg = _evolve_cfg(tmp_path, monitors, mode)
            _, _, params, region = evolve.setup_experiment(cfg)
            passes = ([estimates.EstimatePass(region, params) for _ in cfg["components"]]
                      if mode == "estimate" else ())
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            hist = evolve.run_experiment(cfg, str(tmp_path), passes=passes)[0]
            peaks[monitors] = tracemalloc.get_traced_memory()[1] - base
            stored[monitors] = len(hist.fields) + len(hist.dfields) + len(hist.times)
            del hist
    finally:
        tracemalloc.stop()
    return peaks, stored


SNAPSHOT = 2 * 4 * evolve.GridGeometry(16, 4.0).n_full ** 3 * 8  # (Phi, Pi), rank 1, 1 channel


def test_run_experiment_peak_memory_does_not_grow_with_monitors(tmp_path):
    # no snapshot is stored, so 17 monitors peak within one snapshot of 3
    peaks, stored = _peaks_and_stored(tmp_path, "evolve")
    assert peaks[17] - peaks[3] <= SNAPSHOT, (peaks, SNAPSHOT)
    assert stored == {3: 0, 17: 0}


def test_empty_index_estimate_peak_memory_does_not_grow_with_monitors(tmp_path):
    # the I = '' lines are read from the run's live slices: no snapshot is
    # stored, and 17 monitors peak within one snapshot of 3
    peaks, stored = _peaks_and_stored(tmp_path, "estimate")
    assert peaks[17] - peaks[3] <= SNAPSHOT, (peaks, SNAPSHOT)
    assert stored == {3: 0, 17: 0}


def test_weights_evaluated_once_per_slice(tmp_path, monkeypatch):
    # the three components of a slice share its q, mask and weights
    calls = []
    weight_eval = energy._weight_eval
    monkeypatch.setattr(energy, "_weight_eval",
                        lambda fn, q, params: calls.append(fn) or weight_eval(fn, q, params))
    evolve.run_experiment(_evolve_cfg(tmp_path, 5), str(tmp_path))
    assert sorted(calls, key=lambda fn: fn.__name__) == \
        [energy.w] * 5 + [energy.w_tilde] * 5


def test_scalar_budget_run_builds_only_L(tmp_path, monkeypatch):
    # a scalar component reads x/r = L[1:] only: no Lbar, no sphere charts
    from framewave import fields

    read, sphere = [], []
    frame, sphere_frame = fields.GridGeometry.frame, fields.sphere_frame
    monkeypatch.setattr(fields.GridGeometry, "frame",
                        lambda self, name: read.append(name) or frame(self, name))
    monkeypatch.setattr(fields, "sphere_frame",
                        lambda *args: sphere.append(args) or sphere_frame(*args))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "conserve", **CASES["conserve-static-rank0"][1]}))
    cfg = cli.parse_config(str(path))
    _, _, params, region = evolve.setup_experiment(cfg)
    budget = energy.BudgetPass(region, params)
    hist = evolve.run_experiment(cfg, str(tmp_path), passes=[budget])[0]
    assert budget.report().ball_flux != 0.0
    assert read and set(read) == {"L"} and sphere == []
    assert set(hist.geom._frames) == {"L"}


@pytest.mark.parametrize("boundary", ["sommerfeld", "periodic"])
def test_estimate_report_leaves_stored_snapshots_unchanged(tmp_path, boundary):
    # the periodic ghosts a step leaves are not the ones a right-hand side
    # fills in, so a d_tt or a Lie step evaluated on a stored snapshot in
    # place shows
    from framewave.vecfields import parse_multi_index

    mode, body, _ = CASES["estimate-traveling"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": mode, **body, "boundary": boundary}))
    cfg = cli.parse_config(str(path))
    _, _, params, region = evolve.setup_experiment(cfg)
    base = estimates.EstimatePass(region, params)
    hist = evolve.run_experiment(cfg, str(tmp_path), passes=[base])[0]
    stored = [a.tobytes() for a in hist.fields + hist.dfields]
    assert len(stored) == 2 * body["monitors"]
    for text in body["multi_indices"]:
        I = parse_multi_index(text)
        lie = estimates.lie_field_series(hist, I) if I else None
        rep = estimates.energy_estimate_report(hist, I, lie, "scalar", 0.0, 0.3, base)
        assert all(math.isfinite(v) for v in rep.terms.values())
    assert [a.tobytes() for a in hist.fields + hist.dfields] == stored

