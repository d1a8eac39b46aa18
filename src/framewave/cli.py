"""Experiment runner: config parsing, mode dispatch, report emission.

Subcommands: certify | conserve | evolve | estimate | commutator.
Flags: --config PATH, --out DIR, --seed U64, --refine K.
Exit codes: 0 success, 2 config error, 3 certification failure,
4 runtime failure.

Configs are JSON against the published schema (written alongside every
run's outputs); numeric constraints are enforced at parse time.  Identical
config and seed give bit-identical CSV/JSON outputs on one platform: all
randomness flows through one recorded 64-bit seed and no wall-clock data
enters any artifact.

``certify`` and ``commutator`` spread their independent items (the nine
checks; the multi-indices, with every input drawn here first) over every
usable core with ``certify._fork_map``, and their reports are the same
bytes as a one-core run.  ``conserve`` spreads its resolutions the same
way, each run writing its own tagged files, and assembles its report in
N order.  A single grid run (``evolve``, ``estimate``, ``conserve
--refine 1``) splits its right-hand side and steps over two threads (see
:mod:`framewave.evolve`) when its field has more than one component, and
so does each resolution that the fork map spreads.

Multi-index grammar (the "multi_indices" entries): a comma-separated list
of generator tokens applied left-to-right as written, leftmost outermost.
Tokens:  S  |  Zab with 0 <= a < b <= 3 (e.g. Z01, Z12)  |  P <axis> with
axis in {t, x1, x2, x3} or {0..3} (e.g. "P t", "Px2").  The empty string
is the empty multi-index.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import certify as certify_mod
from . import energy, estimates, evolve
from .evolve import run_experiment
from .errors import ConstraintError, FramewaveError, SchemaError
from .geometry import FULL_NAMES
from .poly import measure_order
from .vecfields import parse_multi_index

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["mode"],
    "additionalProperties": False,
    "properties": {
        "mode": {"enum": ["certify", "conserve", "evolve", "estimate", "commutator"]},
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"N": {"type": "integer"}, "X": {"type": "number"}},
        },
        "times": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t1": {"type": "number"},
                "t2": {"type": "number"},
                "dt": {"type": ["number", "null"]},
                "cfl": {"type": "number"},
            },
        },
        "weights": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"gamma": {"type": "number"}, "mu": {"type": "number"}},
        },
        "region": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "q0": {"type": ["number", "string"]},
                "origin_ball_radius": {"type": ["number", "null"]},
            },
        },
        "background": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "family": {"enum": ["zero", "static-bump", "traveling-bump"]},
                "epsilon": {"type": "number"},
                "center": {"type": "array", "items": {"type": "number"}},
                "radius": {"type": "number"},
                "velocity": {"type": "array", "items": {"type": "number"}},
            },
        },
        "source": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "terms": {"type": "array",
                          "items": {"enum": list(evolve.SCHEMATIC_TERMS)}},
                "bigO_degree": {"type": "integer"},
                "slots": {"type": "array",
                          "items": {"type": "integer", "minimum": 0, "maximum": 3}},
            },
        },
        "data": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "family": {"enum": ["zero", "gaussian", "plane_wave", "outgoing_pulse"]},
                "rank": {"type": "integer"},
                "channels": {"type": "integer"},
                "amplitude": {"type": "number"},
                "center": {"type": "array", "items": {"type": "number"}},
                "sigma": {"type": "number"},
                "kvec": {"type": "array", "items": {"type": "number"}},
                "q_center": {"type": "number"},
            },
        },
        "multi_indices": {"type": "array", "items": {"type": "string"}},
        "components": {"type": "array", "items": {"type": "string"}},
        "boundary": {"enum": ["sommerfeld", "periodic"]},
        "monitors": {"type": "integer", "minimum": 2},
        "snapshots": {"type": "boolean"},
        "certify": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "fast": {"type": "boolean"},
            },
        },
        "out_dir": {"type": "string"},
        "seed": {"type": "integer"},
    },
}

DEFAULTS = {
    "grid": {"N": 32, "X": 8.0},
    "times": {"t1": 0.0, "t2": 1.0, "dt": None, "cfl": 0.45},
    "weights": {"gamma": 0.5, "mu": -0.25},
    "region": {"q0": -2.0, "origin_ball_radius": None},
    "background": {"family": "zero", "epsilon": 0.0, "center": [0.0, 0.0, 0.0],
                   "radius": 4.0, "velocity": [0.3, 0.0, 0.0]},
    "source": {"terms": [], "bigO_degree": 2, "slots": [0, 1, 2, 3]},
    "data": {"family": "gaussian", "rank": 0, "channels": 1, "amplitude": 1.0,
             "center": [0.0, 0.0, 3.5], "sigma": 1.0, "kvec": [1.0, 0.0, 0.0],
             "q_center": -2.0},
    "multi_indices": [""],
    "components": ["scalar"],
    "boundary": "sommerfeld",
    "monitors": 9,
    "snapshots": False,
    "certify": {"fast": False},
    "out_dir": "out",
    "seed": 12345,
}


def _merge_defaults(cfg):
    out = {}
    for key, dval in DEFAULTS.items():
        if isinstance(dval, dict):
            merged = dict(dval)
            merged.update(cfg.get(key, {}))
            out[key] = merged
        else:
            out[key] = cfg.get(key, dval)
    out["mode"] = cfg["mode"]
    return out


@functools.cache
def _config_validator():
    """Draft 2020-12 validator of CONFIG_SCHEMA, built on first use.  The
    schema is a constant, so it is not re-checked against the metaschema
    per config (the tests check it once)."""
    from jsonschema import Draft202012Validator

    return Draft202012Validator(CONFIG_SCHEMA)


def parse_config(path):
    """Load, schema-validate, constraint-check, and default-fill a config."""
    from jsonschema.exceptions import best_match

    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read config: {exc}") from exc
    # the error jsonschema.validate would raise
    error = best_match(_config_validator().iter_errors(raw))
    if error is not None:
        path_str = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise SchemaError(f"config field {path_str}: {error.message}") from error
    cfg = _merge_defaults(raw)
    if isinstance(cfg["region"]["q0"], str):
        if cfg["region"]["q0"] not in ("-inf", "-infinity"):
            raise SchemaError("region.q0 must be a number or \"-inf\"")
        cfg["region"]["q0"] = float("-inf")
    _check_constraints(cfg)
    _multi_indices(cfg)
    return cfg


def _check_constraints(cfg):
    """Raise ConstraintError naming the first numeric constraint that a
    default-filled config breaks."""
    w, t, d, bg = cfg["weights"], cfg["times"], cfg["data"], cfg["background"]
    for ok, problem in [
            (w["gamma"] > 0, "gamma must be > 0"),
            (w["mu"] < 0, "mu must be < 0"),
            (abs(bg["epsilon"]) <= 0.3, "|epsilon| must be <= 0.3 (|H| < 1/3 hypothesis)"),
            (0 < t["cfl"] <= 0.5, "cfl must be in (0, 0.5]"),
            (cfg["grid"]["N"] % 2 == 0 and cfg["grid"]["N"] >= 8,
             "grid.N must be even and >= 8"),
            (t["t2"] > t["t1"], "times.t2 must exceed times.t1"),
            (not cfg["source"]["terms"] or d["rank"] == 1,
             "source.terms need data.rank = 1 (the potential A)"),
            (cfg["grid"]["X"] > 0 and (t["dt"] is None or t["dt"] > 0),
             "grid.X and times.dt must be > 0"),
            (bg["radius"] > 0 and d["sigma"] > 0,
             "background.radius and data.sigma must be > 0"),
            (cfg["region"]["origin_ball_radius"] is None
             or cfg["region"]["origin_ball_radius"] >= 0,
             "region.origin_ball_radius must be >= 0"),
            (cfg["source"]["bigO_degree"] >= 1, "source.bigO_degree must be >= 1"),
            (d["rank"] in (0, 1, 2) and d["channels"] >= 1 and cfg["seed"] >= 0,
             "data.rank must be 0, 1 or 2, data.channels >= 1 and seed >= 0"),
            (all(len(v) == 3
                 for v in (bg["center"], bg["velocity"], d["center"], d["kvec"])),
             "background.center/velocity and data.center/kvec need 3 entries")]:
        if not ok:
            raise ConstraintError(problem)


def _multi_indices(cfg):
    """Every multi-index of the config, parsed; a bad one raises
    ConstraintError before any of them is used."""
    try:
        return [parse_multi_index(text) for text in cfg["multi_indices"]]
    except ValueError as exc:
        raise ConstraintError(f"multi_indices: {exc}") from exc


def _check_mode(cfg, refine):
    """Raise ConstraintError for a config that its mode cannot run: a grid
    run's background and component names, conserve's resolutions and
    component, the history of an estimate with a Lie series and
    commutator's frame names.  ``main`` calls it before it writes any
    file."""
    mode, comps = cfg["mode"], cfg["components"]
    if mode in ("conserve", "evolve", "estimate"):
        evolve.setup_experiment(cfg)   # raises for a bump at or above lightspeed
        for comp in comps:
            evolve.component_parts(cfg["data"]["rank"], comp)
    if mode == "conserve" and refine < 1:
        raise ConstraintError(f"--refine must be at least 1, got {refine}")
    if mode == "conserve" and not comps:
        raise ConstraintError("conserve needs one component")
    if mode == "estimate" and any(_multi_indices(cfg)) and cfg["monitors"] < 5:
        raise ConstraintError("a non-empty multi-index needs monitors >= 5: its Lie series "
                              "is differenced in time over 5 snapshots")
    if mode == "commutator":
        for comp in comps:
            if comp not in FULL_NAMES:
                raise ConstraintError(f"commutator component {comp!r} is not one of "
                                      f"{', '.join(FULL_NAMES)}")


def _refine_list(N, k):
    out = []
    for j in range(k):
        n = int(round(N * (2 + j) / 2))
        out.append(n + (n % 2))
    return out


def mode_certify(cfg, out_dir):
    results = certify_mod.run_suite(seed=cfg["seed"], fast=cfg["certify"]["fast"])
    payload = {"checks": [r.to_json() for r in results],
               "all_passed": all(r.passed for r in results), "seed": cfg["seed"]}
    energy.write_json(os.path.join(out_dir, "certify.json"), payload)
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: "
              f"value={r.value:.3e} tol={r.tolerance:.3e} {r.detail}")
    return 0 if payload["all_passed"] else 3


def mode_conserve(cfg, out_dir, refine=3):
    Ns = _refine_list(cfg["grid"]["N"], refine)
    _, bg0, params, region = evolve.setup_experiment(cfg)

    def budget_at(N):   # one resolution: its run's files, its residual and terms
        sub = json.loads(json.dumps(cfg))
        sub["grid"]["N"] = N
        budget = energy.BudgetPass(region, params)   # fed the first component's slices
        run_experiment(sub, out_dir, tag=f"_N{N}", passes=[budget])
        rep = budget.report()
        return rep.residual, rep.terms()

    # largest N first: the finest run takes longest and bounds the wall
    budgets = certify_mod._fork_map(budget_at, Ns[::-1])[::-1]
    residuals = [residual for residual, _ in budgets]
    hs = [2.0 * cfg["grid"]["X"] / N for N in Ns]
    order = measure_order(hs, residuals)
    sup_H = bg0.sup_abs()
    payload = {"N": Ns, "residuals": residuals,
               "measured_order": order if np.isfinite(order) else None,
               "sup_H": sup_H, "hypothesis_ok": bool(sup_H < 1.0 / 3.0),
               "seed": cfg["seed"]}
    energy.write_json(os.path.join(out_dir, "conserve.json"), payload)
    energy.write_series_csv(os.path.join(out_dir, "budget_terms.csv"),
                            [(float(N), term, val) for N, (_, terms) in zip(Ns, budgets)
                             for term, val in terms.items()])
    print(f"budget residual order: {order:.3f} over N = {Ns}")
    return 0


def mode_evolve(cfg, out_dir):
    summary = run_experiment(cfg, out_dir)[1]
    energy.write_json(os.path.join(out_dir, "evolve_summary.json"), summary)
    return 0


def mode_estimate(cfg, out_dir):
    indices = _multi_indices(cfg)
    _, _, params, region = evolve.setup_experiment(cfg)
    passes = [estimates.EstimatePass(region, params) for _ in cfg["components"]]
    hist = run_experiment(cfg, out_dir, passes=passes)[0]   # feeds the I = '' lines
    t1, t2 = cfg["times"]["t1"], cfg["times"]["t2"]
    reports = []
    for I in indices:   # the Lie levels of I are built once, for every component
        lie = estimates.lie_field_series(hist, I) if I else None
        reports += [estimates.energy_estimate_report(hist, I, lie, comp, t1, t2, base).to_json()
                    for comp, base in zip(cfg["components"], passes)]
        del lie   # before the next multi-index builds its levels
    energy.write_json(os.path.join(out_dir, "estimate.json"),
                      {"reports": reports, "seed": cfg["seed"]})
    return 0


def mode_commutator(cfg, out_dir):
    from .fields import PolyField

    rng = np.random.default_rng(cfg["seed"])
    inputs = []   # every draw here, in multi-index order, before any study
    for I in _multi_indices(cfg):
        H = PolyField.random(rng, rank=2, channels=1, degree=2, nterms=3,
                             symmetric=True).scale(0.05)
        phi = PolyField.random(rng, rank=1, channels=1, degree=2, nterms=3)
        pts = certify_mod.sample_points(rng, 200, tmin=1.0, tmax=3.0, rmin=0.5)
        pts = pts[np.abs(pts[:, 3]) <= 0.85 * np.linalg.norm(pts[:, 1:], axis=1)]
        inputs.append((I, H, phi, pts))

    def study_reports(item):   # every component's report of one multi-index
        I, H, phi, pts = item
        study = estimates.CommutatorStudy(H, phi, I, pts)
        return [estimates.commutator_report(study, V) for V in cfg["components"]]

    reports = [rep for reps in certify_mod._fork_map(study_reports, inputs) for rep in reps]
    energy.write_json(os.path.join(out_dir, "commutator.json"),
                      {"reports": reports, "seed": cfg["seed"]})
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="framewave",
                                 description="null-frame energy verification lab")
    ap.add_argument("command", choices=["certify", "conserve", "evolve",
                                        "estimate", "commutator"])
    ap.add_argument("--config", required=True, help="JSON config path")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--seed", type=int, default=None, help="64-bit seed override")
    ap.add_argument("--refine", type=int, default=3,
                    help="number of grid resolutions for conserve")
    args = ap.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:   # held to the config's seed constraint
            cfg["seed"] = args.seed
            _check_constraints(cfg)
        cfg["mode"] = args.command
        _check_mode(cfg, args.refine)
    except (SchemaError, ConstraintError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    energy.write_json(os.path.join(out_dir, "config_resolved.json"), cfg)
    energy.write_json(os.path.join(out_dir, "config_schema.json"), CONFIG_SCHEMA)

    try:
        if args.command == "certify":
            return mode_certify(cfg, out_dir)
        if args.command == "conserve":
            return mode_conserve(cfg, out_dir, refine=args.refine)
        if args.command == "evolve":
            return mode_evolve(cfg, out_dir)
        if args.command == "estimate":
            return mode_estimate(cfg, out_dir)
        if args.command == "commutator":
            return mode_commutator(cfg, out_dir)
    except (SchemaError, ConstraintError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FramewaveError as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
