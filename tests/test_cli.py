import collections
import json
import multiprocessing
import os
import time

import jsonschema
import pytest

from framewave import certify, cli, energy, estimates, evolve
from framewave.background import make_background
from framewave.errors import ConstraintError, KinkPoint, SchemaError
from framewave.fields import GridGeometry


def _write(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_minimal_config_defaults(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, {"mode": "certify"}))
    assert cfg["weights"]["gamma"] == 0.5
    assert cfg["weights"]["mu"] == -0.25
    assert cfg["region"]["q0"] == -2.0
    assert cfg["grid"]["N"] == 32


def test_constraint_errors(tmp_path):
    with pytest.raises(ConstraintError, match="gamma must be > 0"):
        cli.parse_config(_write(tmp_path, {"mode": "certify",
                                           "weights": {"gamma": -1.0}}))
    with pytest.raises(ConstraintError, match="mu must be < 0"):
        cli.parse_config(_write(tmp_path, {"mode": "certify",
                                           "weights": {"mu": 0.1}}))
    with pytest.raises(ConstraintError, match="epsilon"):
        cli.parse_config(_write(tmp_path, {"mode": "evolve",
                                           "background": {"epsilon": 0.4}}))
    with pytest.raises(ConstraintError, match="cfl"):
        cli.parse_config(_write(tmp_path, {"mode": "evolve",
                                           "times": {"cfl": 0.9}}))


def test_schema_error_names_field(tmp_path):
    with pytest.raises(SchemaError, match="grid"):
        cli.parse_config(_write(tmp_path, {"mode": "evolve",
                                           "grid": {"N": "many"}}))
    with pytest.raises(SchemaError):
        cli.parse_config(_write(tmp_path, {"mode": "evolve", "bogus": 1}))
    with pytest.raises(SchemaError):
        cli.parse_config(_write(tmp_path, {}))


def test_q0_minus_inf(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, {"mode": "evolve",
                                             "region": {"q0": "-inf"}}))
    assert cfg["region"]["q0"] == float("-inf")


def test_exit_code_config_error(tmp_path):
    path = _write(tmp_path, {"mode": "evolve", "weights": {"mu": 0.5}})
    rc = cli.main(["evolve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2


def test_certify_fast_exit_zero(tmp_path):
    path = _write(tmp_path, {"mode": "certify", "certify": {"fast": True}})
    out = tmp_path / "out"
    rc = cli.main(["certify", "--config", path, "--out", str(out), "--seed", "5"])
    assert rc == 0
    payload = json.loads((out / "certify.json").read_text())
    assert payload["all_passed"] is True
    assert payload["seed"] == 5
    assert (out / "config_schema.json").exists()


def test_certify_pairs_is_not_a_config_field(tmp_path, capsys):
    # run_suite takes its pair count from "fast"; a "pairs" field is rejected
    path = _write(tmp_path, {"mode": "certify", "certify": {"fast": True, "pairs": 10}})
    assert cli.main(["certify", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "pairs" in capsys.readouterr().err
    assert cli.DEFAULTS["certify"] == {"fast": False}


def test_evolve_zero_data_zero_series(tmp_path):
    path = _write(tmp_path, {
        "mode": "evolve",
        "grid": {"N": 12, "X": 4.0},
        "times": {"t1": 0.0, "t2": 0.3},
        "data": {"family": "zero"},
        "monitors": 3,
    })
    out = tmp_path / "out"
    rc = cli.main(["evolve", "--config", path, "--out", str(out)])
    assert rc == 0
    rows = (out / "energy_series.csv").read_text().splitlines()[1:]
    assert rows
    assert all(float(r.split(",")[2]) == 0.0 for r in rows)


DETERMINISM_CONFIGS = {
    "evolve": {
        "grid": {"N": 12, "X": 4.0},
        "times": {"t1": 0.0, "t2": 0.3},
        "data": {"family": "gaussian", "center": [0, 0, 1.5], "sigma": 0.8},
        "monitors": 3,
    },
    "certify": {"certify": {"fast": True}},
    "commutator": {"multi_indices": ["S", "Z12"], "components": ["L", "Lbar"]},
    "estimate": {
        "grid": {"N": 12, "X": 4.0},
        "times": {"t1": 0.0, "t2": 0.3},
        "region": {"q0": "-inf"},
        "data": {"family": "gaussian", "center": [0, 0, 1.5], "sigma": 0.8},
        "multi_indices": ["", "S"],
        "monitors": 5,
    },
    "estimate-rank1": {
        "mode": "estimate",
        "grid": {"N": 12, "X": 4.0},
        "times": {"t1": 0.0, "t2": 0.3},
        "background": {"family": "static-bump", "epsilon": 0.1, "radius": 2.5,
                       "center": [0.0, 0.0, 1.0]},
        "data": {"family": "gaussian", "rank": 1, "channels": 2, "center": [0, 0, 1.5],
                 "sigma": 0.8},
        "source": {"terms": ["AL_dA", "Ae_dAe"]},
        "components": ["L", "e1", "Lbar", "slot2"],
        "multi_indices": ["", "S", "P x3", "Z12,S"],
        "monitors": 5,
    },
    "conserve": {
        "grid": {"N": 8, "X": 4.0},
        "times": {"t1": 0.0, "t2": 0.2},
        "background": {"family": "static-bump", "epsilon": 0.1, "radius": 2.0},
        "data": {"family": "gaussian", "center": [0, 0, 1.5], "sigma": 0.8},
        "monitors": 3,
    },
}


def test_determinism_bit_identical(tmp_path):
    for name, body in DETERMINISM_CONFIGS.items():
        mode = body.get("mode", name)
        path = _write(tmp_path, {"mode": mode, **body}, name=f"{name}.json")
        extra = ["--refine", "2"] if mode == "conserve" else []
        outs = []
        for run in ("a", "b"):
            out = tmp_path / name / run
            assert cli.main([mode, "--config", path, "--out", str(out),
                             "--seed", "77", *extra]) == 0
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outs[0].keys() == outs[1].keys(), name
        for artifact in outs[0]:
            assert outs[0][artifact] == outs[1][artifact], f"{name}: {artifact} differs"


def test_conserve_unmeasured_order_is_null(tmp_path):
    # zero data: every budget residual is 0, so no order can be measured
    path = _write(tmp_path, {
        "mode": "conserve",
        "grid": {"N": 8, "X": 4.0},
        "times": {"t1": 0.0, "t2": 0.2},
        "data": {"family": "zero"},
        "monitors": 3,
    })
    out = tmp_path / "out"
    assert cli.main(["conserve", "--config", path, "--out", str(out),
                     "--refine", "2"]) == 0
    payload = json.loads((out / "conserve.json").read_text())
    assert payload["residuals"] == [0.0, 0.0]
    assert payload["measured_order"] is None


def test_conserve_keeps_one_log_per_resolution(tmp_path):
    path = _write(tmp_path, {"mode": "conserve", **DETERMINISM_CONFIGS["conserve"]})
    out = tmp_path / "out"
    assert cli.main(["conserve", "--config", path, "--out", str(out),
                     "--refine", "2"]) == 0
    payload = json.loads((out / "conserve.json").read_text())
    assert payload["N"] == [8, 12]
    assert payload["sup_H"] == 0.1 and payload["hypothesis_ok"] is True
    for N in payload["N"]:
        assert (out / f"energy_series_N{N}.csv").is_file()
        events = (out / f"run_log_N{N}.jsonl").read_text().splitlines()
        assert events and all(json.loads(e)["event"] == "monitor" for e in events)
    assert not (out / "run_log.jsonl").exists()
    assert not (out / "energy_series.csv").exists()
    assert all(f.is_file() for f in out.iterdir())


def test_conserve_builds_one_state_per_slice(tmp_path, monkeypatch):
    # the budget is fed while the run goes: no series, one state per
    # resolution and slice
    states = collections.Counter()
    init = energy.SliceState.__init__

    def counted(self, geom, t, *args):
        states[geom.N, float(t)] += 1
        init(self, geom, t, *args)

    monkeypatch.setattr(energy.SliceState, "__init__", counted)
    path = _write(tmp_path, {"mode": "conserve", **DETERMINISM_CONFIGS["conserve"]})
    assert cli.main(["conserve", "--config", path, "--out", str(tmp_path / "o"),
                     "--refine", "2"]) == 0
    assert len(states) == 2 * DETERMINISM_CONFIGS["conserve"]["monitors"]
    assert set(states.values()) == {1}


def test_conserve_builds_each_slice_gradient_once(tmp_path, monkeypatch):
    # one resolution: the run's energy rows and the budget read one state
    builds = collections.Counter()
    dpsi4 = energy.SliceState.dpsi4

    def counted(self):
        if "dpsi4" not in self._cache:
            builds[self.t] += 1
        return dpsi4(self)

    monkeypatch.setattr(energy.SliceState, "dpsi4", counted)
    path = _write(tmp_path, {"mode": "conserve", **DETERMINISM_CONFIGS["conserve"]})
    assert cli.main(["conserve", "--config", path, "--out", str(tmp_path / "o"),
                     "--refine", "1"]) == 0
    assert len(builds) == DETERMINISM_CONFIGS["conserve"]["monitors"]
    assert set(builds.values()) == {1}


def test_conserve_reuses_each_monitor_slope(tmp_path, monkeypatch):
    # d_tt psi of a slice is the first slope of the step that follows it;
    # only the last slice, which no step follows, computes its own
    calls = collections.Counter()
    rhs, step = evolve.Evolver.rhs, evolve.Evolver.step

    def counted(name, fn):
        return lambda *args, **kw: calls.update([name]) or fn(*args, **kw)

    monkeypatch.setattr(evolve.Evolver, "rhs", counted("rhs", rhs))
    monkeypatch.setattr(evolve.Evolver, "step", counted("step", step))
    path = _write(tmp_path, {"mode": "conserve", **DETERMINISM_CONFIGS["conserve"]})
    assert cli.main(["conserve", "--config", path, "--out", str(tmp_path / "o"),
                     "--refine", "1"]) == 0
    assert calls["step"] == DETERMINISM_CONFIGS["conserve"]["monitors"] - 1
    assert calls["rhs"] == 4 * calls["step"] + 1


@pytest.mark.parametrize("refine", [0, -1])
def test_conserve_refine_below_one_exits_2(tmp_path, capsys, monkeypatch, refine):
    # no resolution to run: a config error, not an empty conserve.json
    monkeypatch.setattr(evolve.Evolver, "step", lambda *a, **k: pytest.fail("ran a step"))
    path = _write(tmp_path, {"mode": "conserve", **DETERMINISM_CONFIGS["conserve"]})
    out = tmp_path / "o"
    assert cli.main(["conserve", "--config", path, "--out", str(out),
                     "--refine", str(refine)]) == 2
    assert f"--refine must be at least 1, got {refine}" in capsys.readouterr().err
    assert not (out / "conserve.json").exists()


@pytest.mark.parametrize("rank, component", [(1, "r"), (2, "r,L"), (1, "slot4")])
def test_unknown_frame_component_exits_2(tmp_path, capsys, rank, component):
    path = _write(tmp_path, {"mode": "evolve", **DETERMINISM_CONFIGS["evolve"],
                             "data": {"family": "zero", "rank": rank},
                             "components": [component]})
    assert cli.main(["evolve", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"unknown component {component!r}" in capsys.readouterr().err


def test_config_schema_is_valid_draft_2020_12():
    # parse_config validates against CONFIG_SCHEMA without re-checking it
    jsonschema.Draft202012Validator.check_schema(cli.CONFIG_SCHEMA)


@pytest.mark.parametrize("body", [
    {},
    {"mode": "evolve", "grid": {"N": "many"}},
    {"mode": "evolve", "bogus": 1, "grid": {"X": -1, "N": 1.5}},
    {"mode": "estimate", "times": {"t1": "a", "cfl": []}, "data": {"rank": "x"}},
    {"mode": "nope", "weights": {"gamma": None}},
])
def test_schema_error_is_the_one_jsonschema_validate_raises(tmp_path, body):
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(body, cli.CONFIG_SCHEMA)
    with pytest.raises(SchemaError) as got:
        cli.parse_config(_write(tmp_path, body))
    err = want.value
    path_str = "/".join(str(p) for p in err.absolute_path) or "<root>"
    assert str(got.value) == f"config field {path_str}: {err.message}"


@pytest.mark.parametrize("body, field", [
    ({"data": {"rank": 1}, "source": {"terms": ["AL_dA", "bogus"]}}, "source/terms/1"),
    ({"data": {"rank": 1}, "source": {"terms": ["dh_TU_sq"], "slots": [0, 9]}},
     "source/slots/1"),
    ({"data": {"rank": 0}, "source": {"terms": ["AL_dA"]}}, "source.terms"),
])
def test_source_config_errors_exit_2(tmp_path, capsys, body, field):
    cfg = {"mode": "evolve", "grid": {"N": 8, "X": 4.0},
           "times": {"t1": 0.0, "t2": 0.1}, "monitors": 2, **body}
    path = _write(tmp_path, cfg)
    assert cli.main(["evolve", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and field in err


def test_negative_epsilon_rejected(tmp_path, capsys):
    path = _write(tmp_path, {"mode": "evolve", "background": {
        "family": "static-bump", "epsilon": -2.0}})
    rc = cli.main(["evolve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "epsilon" in capsys.readouterr().err
    # the smallness flag reads |H|, whatever the sign of epsilon
    assert make_background("static-bump", epsilon=-0.2).sup_abs() == 0.2


def test_commutator_mode(tmp_path):
    path = _write(tmp_path, {"mode": "commutator", "multi_indices": ["S"],
                             "components": ["L"], "seed": 3})
    out = tmp_path / "out"
    assert cli.main(["commutator", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "commutator.json").read_text())
    assert payload["reports"][0]["identity_residual"] <= 1e-10


@pytest.mark.parametrize("components", [["L", "Lbr"], None])
def test_commutator_rejects_unknown_components(tmp_path, capsys, components):
    body = {"mode": "commutator", "multi_indices": ["S"]}
    if components is not None:
        body["components"] = components  # None: the shared default ["scalar"]
    out = tmp_path / "out"
    assert cli.main(["commutator", "--config", _write(tmp_path, body),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    bad = "Lbr" if components else "scalar"
    assert err.startswith("config error") and repr(bad) in err
    assert all(v in err for v in ("L", "e1", "e2", "Lbar"))
    assert not (out / "commutator.json").exists()


def test_estimate_builds_each_series_once(tmp_path, monkeypatch):
    # the run feeds every component's I = '' lines from its live slices;
    # each non-empty multi-index builds its Lie levels once after the run
    # and then one Lie series per component, and no base series: one state
    # and one gradient per series and slice, and no right-hand side beyond
    # the run's 4 per step and the last slice's d_tt
    from framewave import estimates

    body = DETERMINISM_CONFIGS["estimate-rank1"]
    path = _write(tmp_path, body)
    levels, lie, states, grads, calls = [], [], collections.Counter(), collections.Counter(), []
    fields, series, init, dpsi4 = (estimates.lie_field_series, estimates.lie_component_series,
                                   energy.SliceState.__init__, energy.SliceState.dpsi4)

    def counted_init(self, geom, t, *args):
        states[float(t)] += 1
        init(self, geom, t, *args)

    def counted_dpsi4(self):
        grads[self.t] += "dpsi4" not in self._cache
        return dpsi4(self)

    def counted(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(estimates, "lie_field_series",
                        lambda hist, I: levels.append(I) or fields(hist, I))
    monkeypatch.setattr(estimates, "lie_component_series",
                        lambda hist, field, comp: lie.append(comp) or series(hist, field, comp))
    monkeypatch.setattr(estimates, "_apply_lie_grid",
                        counted("lie step", estimates._apply_lie_grid))
    monkeypatch.setattr(estimates, "series_time_derivative",
                        counted("d_t", estimates.series_time_derivative))
    monkeypatch.setattr(energy.SliceState, "__init__", counted_init)
    monkeypatch.setattr(energy.SliceState, "dpsi4", counted_dpsi4)
    monkeypatch.setattr(evolve.Evolver, "rhs", counted("rhs", evolve.Evolver.rhs))
    monkeypatch.setattr(evolve.Evolver, "step", counted("step", evolve.Evolver.step))
    assert cli.main(["estimate", "--config", path, "--out", str(tmp_path / "o")]) == 0
    comps = body["components"]
    indices = [cli.parse_multi_index(text) for text in body["multi_indices"] if text]
    assert levels == indices
    assert lie == [comp for I in indices for comp in comps]
    # 5 slices x 4 generators; per multi-index |I| - 1 level derivatives
    # and 2 per component (d_t psi, d_tt psi): 1 + 3 x 4 x 2
    assert calls.count("lie step") == 20 and calls.count("d_t") == 25
    assert len(states) == body["monitors"]
    assert set(states.values()) == {len(comps) * (1 + len(indices))}
    assert grads == states
    steps = calls.count("step")
    assert steps >= body["monitors"] - 1 and calls.count("rhs") == 4 * steps + 1


def test_estimate_rejects_short_history_before_the_run(tmp_path, capsys):
    # a Lie series is differenced over 5 snapshots: fewer monitors are a
    # config error, reported before anything is evolved
    body = {"mode": "estimate", **DETERMINISM_CONFIGS["estimate"], "monitors": 4}
    out = tmp_path / "out"
    assert cli.main(["estimate", "--config", _write(tmp_path, body), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert sorted(f.name for f in out.iterdir()) == ["config_resolved.json",
                                                     "config_schema.json"]
    body["multi_indices"] = [""]
    assert cli.main(["estimate", "--config", _write(tmp_path, body), "--out", str(out)]) == 0


def test_estimate_mode_small(tmp_path):
    path = _write(tmp_path, {
        "mode": "estimate",
        "grid": {"N": 12, "X": 4.0},
        "times": {"t1": 0.0, "t2": 0.3},
        "region": {"q0": "-inf"},
        "data": {"family": "gaussian", "center": [0, 0, 1.5], "sigma": 0.8},
        "multi_indices": [""],
        "components": ["scalar"],
        "monitors": 5,
    })
    out = tmp_path / "out"
    assert cli.main(["estimate", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "estimate.json").read_text())
    rep = payload["reports"][0]
    assert "implied_constant" in rep and rep["terms"]


def test_snapshot_emission(tmp_path):
    path = _write(tmp_path, {
        "mode": "evolve",
        "grid": {"N": 12, "X": 4.0},
        "times": {"t1": 0.0, "t2": 0.2},
        "data": {"family": "gaussian", "center": [0, 0, 1.5], "sigma": 0.8},
        "monitors": 3,
        "snapshots": True,
    })
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", path, "--out", str(out)]) == 0
    assert (out / "final_state.bin").exists()
    assert (out / "final_state.bin.json").exists()
    assert (out / "run_log.jsonl").exists()


def test_single_monitor_rejected(tmp_path, capsys):
    path = _write(tmp_path, {"mode": "evolve", "monitors": 1})
    rc = cli.main(["evolve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "monitors" in capsys.readouterr().err


@pytest.mark.parametrize("body, quantity", [
    # linear run: the fields stay finite, |d psi|^2 overflows
    ({}, "scalar:slice_energy"),
    # quadratic sources: the fields themselves overflow
    ({"data": {"family": "gaussian", "rank": 1, "amplitude": 1e300},
      "source": {"terms": ["AL_dA", "Ae_dAe"]}, "components": ["L"]}, "fields"),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_run_exits_4(tmp_path, body, quantity):
    cfg = {"mode": "evolve", "grid": {"N": 12, "X": 4.0},
           "times": {"t1": 0.0, "t2": 0.3},
           "data": {"family": "gaussian", "amplitude": 1e300}, "monitors": 3}
    path = _write(tmp_path, {**cfg, **body})
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", path, "--out", str(out)]) == 4
    events = [json.loads(line) for line in
              (out / "run_log.jsonl").read_text().splitlines()]
    bad = [ev for ev in events if ev["event"] == "non_finite"]
    assert len(bad) == 1 and bad[0] is events[-1]
    assert bad[0]["quantity"] == quantity
    assert not (out / "energy_series.csv").exists()


@pytest.mark.parametrize("family", ["static-bump", "traveling-bump"])
def test_off_grid_bump_evolves_exactly_as_flat(tmp_path, family):
    # a bump whose support misses the grid is H = 0 on every cell: the run
    # takes the flat path, from the CFL speed to the last byte
    cfg = {
        "mode": "evolve",
        "grid": {"N": 12, "X": 4.0},
        "times": {"t1": 0.0, "t2": 0.3},
        "data": {"family": "gaussian", "rank": 1, "center": [0, 0, 1.0], "sigma": 0.8},
        "source": {"terms": ["AL_dA", "Ae_dAe"]},
        "components": ["L", "slot0"],
        "monitors": 3,
    }
    outs = {}
    for name, bg in (("zero", {"family": "zero"}),
                     ("bump", {"family": family, "epsilon": 0.2, "radius": 3.0,
                               "center": [20.0, 0.0, 0.0], "velocity": [0.3, 0.0, 0.0]})):
        (tmp_path / name).mkdir()
        path = _write(tmp_path / name, dict(cfg, background=bg))
        outs[name] = tmp_path / name / "out"
        assert cli.main(["evolve", "--config", path, "--out", str(outs[name])]) == 0
    for artifact in ("energy_series.csv", "run_log.jsonl"):
        assert (outs["bump"] / artifact).read_bytes() == (outs["zero"] / artifact).read_bytes()
    bump = make_background(family, epsilon=0.2, center=(20.0, 0.0, 0.0), radius=3.0)
    assert not bump.is_flat()
    assert evolve.max_characteristic_speed(GridGeometry(12, 4.0), bump, 0.0) == 1.0


CHECKS = ("check_weight_lemmas", "check_gradient_decomposition", "check_nullframe_rewriting",
          "check_divergence_identity", "check_commutator_identity",
          "check_slash_representations", "check_eA_expansions", "check_jacobi",
          "check_decay_inequalities")


def _raise(exc):
    def failure():
        raise exc
    return failure


@pytest.mark.parametrize("failure, rc, message", [
    (_raise(ConstraintError("bad check input")), 2, "config error: bad check input"),
    (_raise(KinkPoint("at the kink")), 4, "runtime failure: KinkPoint: at the kink"),
    (lambda: os._exit(9), 4, "runtime failure: WorkerLost"),
])
def test_certify_worker_failure_exit_codes(tmp_path, capsys, monkeypatch, failure, rc,
                                           message):
    """A check that fails in a forked worker ends certify with the exit code
    the same failure gives in one process, and leaves no process behind."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, claimed = os.getpid(), tmp_path / "claimed"

    def check(**kwargs):   # in this process: wait until a worker has claimed a check
        if os.getpid() != parent:
            claimed.touch()
            failure()
        deadline = time.monotonic() + 30
        while not claimed.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        return certify.CheckResult("stub", 0.0, 0.0, True)

    for name in CHECKS:
        monkeypatch.setattr(certify, name, check)
    out = tmp_path / "out"
    path = _write(tmp_path, {"mode": "certify", "certify": {"fast": True}})
    assert cli.main(["certify", "--config", path, "--out", str(out)]) == rc
    assert message in capsys.readouterr().err
    assert not (out / "certify.json").exists()
    assert multiprocessing.active_children() == []


SERIAL_FORKED_CONFIGS = {
    "certify-fast": {"mode": "certify", "certify": {"fast": True}},
    "certify-full": {"mode": "certify"},
    "commutator-0": {"mode": "commutator", "multi_indices": [], "components": ["L"]},
    "commutator-1": {"mode": "commutator", "multi_indices": ["Z12,S"],
                     "components": ["L", "Lbar"]},
    "commutator-3": {"mode": "commutator", "multi_indices": ["Z01,S", "P x2,Z03", "Z12,Z02"],
                     "components": ["L", "e1", "Lbar"]},
}


@pytest.mark.parametrize("name", SERIAL_FORKED_CONFIGS)
def test_serial_and_forked_runs_are_byte_identical(tmp_path, capsys, monkeypatch, name):
    body = SERIAL_FORKED_CONFIGS[name]
    path = _write(tmp_path, body)
    runs = {}
    for cores in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
        out = tmp_path / str(len(cores))
        assert cli.main([body["mode"], "--config", path, "--out", str(out),
                         "--seed", "77"]) == 0
        runs[len(cores)] = ((out / f"{body['mode']}.json").read_bytes(),
                            capsys.readouterr().out)
    assert runs[1] == runs[2]
    if body["mode"] == "certify":
        lines = runs[2][1].splitlines()
        assert len(lines) == len(CHECKS) and len(set(lines)) == len(lines)
        assert all(line.startswith("[PASS] ") for line in lines)
    else:
        assert len(json.loads(runs[2][0])["reports"]) == \
            len(body["multi_indices"]) * len(body["components"])


def test_bad_multi_index_exits_2_before_any_study(tmp_path, capsys, monkeypatch):
    """The generator token Q does not exist: the run stops before S is
    studied and before any worker starts, from the config and from the
    mode alike."""
    def never(*args, **kwargs):
        raise AssertionError("reached past the multi-index check")

    monkeypatch.setattr(estimates, "CommutatorStudy", never)
    monkeypatch.setattr(certify, "_fork_map", never)
    body = {"mode": "commutator", "multi_indices": ["S", "Q"], "components": ["L"]}
    out = tmp_path / "out"
    assert cli.main(["commutator", "--config", _write(tmp_path, body), "--out", str(out)]) == 2
    assert "'Q'" in capsys.readouterr().err
    assert not (out / "commutator.json").exists()

    cfg = cli.parse_config(_write(tmp_path, {**body, "multi_indices": ["S"]}, name="ok.json"))
    cfg["multi_indices"] = ["S", "Q"]
    with pytest.raises(ConstraintError, match="'Q'"):
        cli.mode_commutator(cfg, str(out))
    assert not (out / "commutator.json").exists()
