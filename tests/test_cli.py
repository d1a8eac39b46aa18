import json

import pytest

from framewave import cli, evolve
from framewave.background import make_background
from framewave.errors import ConstraintError, SchemaError


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
    "conserve": {
        "grid": {"N": 8, "X": 4.0},
        "times": {"t1": 0.0, "t2": 0.2},
        "background": {"family": "static-bump", "epsilon": 0.1, "radius": 2.0},
        "data": {"family": "gaussian", "center": [0, 0, 1.5], "sigma": 0.8},
        "monitors": 3,
    },
}


def test_determinism_bit_identical(tmp_path):
    for mode, body in DETERMINISM_CONFIGS.items():
        path = _write(tmp_path, {"mode": mode, **body}, name=f"{mode}.json")
        extra = ["--refine", "2"] if mode == "conserve" else []
        outs = []
        for run in ("a", "b"):
            out = tmp_path / mode / run
            assert cli.main([mode, "--config", path, "--out", str(out),
                             "--seed", "77", *extra]) == 0
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outs[0].keys() == outs[1].keys(), mode
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], f"{mode}: {name} differs"


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


def test_conserve_builds_each_series_once(tmp_path, monkeypatch):
    calls = []
    series = evolve.RunHistory.component_series
    monkeypatch.setattr(evolve.RunHistory, "component_series",
                        lambda self, comp: calls.append(comp) or series(self, comp))
    path = _write(tmp_path, {"mode": "conserve", **DETERMINISM_CONFIGS["conserve"]})
    assert cli.main(["conserve", "--config", path, "--out", str(tmp_path / "o"),
                     "--refine", "2"]) == 0
    assert calls == ["scalar", "scalar"]  # one per resolution


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
