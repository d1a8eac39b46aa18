"""Correctness gates and artifact digests for benchmark jobs.

A job passes when it exits 0 without a traceback and its artifacts carry
a sound verdict for its mode.  Each gate returns the verdict numbers so
two commits can be compared job by job.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

IDENTITY_TOL = 1e-10     # commutator identity residual
MIN_ORDER = 1.9          # conserve budget convergence order


def _load(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def _certify(out_dir):
    payload = _load(out_dir, "certify.json")
    verdict = {"all_passed": payload["all_passed"],
               "checks": {c["name"]: c["value"] for c in payload["checks"]}}
    return payload["all_passed"] is True, verdict


def _commutator(out_dir):
    reports = _load(out_dir, "commutator.json")["reports"]
    residuals = [r["identity_residual"] for r in reports]
    constants = [r[k] for r in reports for k in ("implied_constant",
                                                  "implied_constant_nested")]
    ok = bool(reports) and all(_finite(r) and r <= IDENTITY_TOL for r in residuals) \
        and all(_finite(c) and c > 0 for c in constants)
    verdict = {"max_identity_residual": max(residuals, default=None),
               "implied_constants": constants}
    return ok, verdict


def _evolve(out_dir):
    with open(os.path.join(out_dir, "energy_series.csv"), newline="") as fh:
        values = [float(row["value"]) for row in csv.DictReader(fh)]
    summary = _load(out_dir, "evolve_summary.json")["components"]
    finals = {c: v["final_energy_w"] for c, v in summary.items()}
    ok = bool(values) and all(math.isfinite(v) for v in values) \
        and all(_finite(v) for c in summary.values() for v in c.values())
    return ok, {"final_energy_w": finals, "series_values": len(values)}


def _estimate(out_dir):
    reports = _load(out_dir, "estimate.json")["reports"]
    ok = bool(reports)
    constants = []
    for rep in reports:
        constants.append(rep["implied_constant"])
        ok = ok and _finite(rep["implied_constant"]) \
            and all(_finite(t["value"]) for t in rep["terms"].values())
    return ok, {"implied_constants": constants}


def _conserve(out_dir):
    payload = _load(out_dir, "conserve.json")
    order = payload["measured_order"]
    # measure_order returns +inf when fewer than two residuals are positive;
    # a gate that only asks for order >= 1.9 would pass it vacuously.
    ok = _finite(order) and order >= MIN_ORDER
    return ok, {"measured_order": order, "residuals": payload["residuals"]}


GATES = {
    "certify": _certify,
    "commutator": _commutator,
    "evolve": _evolve,
    "estimate": _estimate,
    "conserve": _conserve,
}


def check(mode, out_dir, rc, traceback):
    """(passed, verdict, reason) for one finished job."""
    if traceback:
        return False, {}, "traceback"
    if rc != 0:
        return False, {}, f"exit code {rc}"
    try:
        ok, verdict = GATES[mode](out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return False, {}, f"unreadable artifacts: {type(exc).__name__}: {exc}"
    return ok, verdict, "" if ok else "bad verdict"


def digests(out_dir):
    """SHA-256 of every artifact in out_dir, keyed by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def overwritten(writes):
    """Artifacts written more than once with different content in one job;
    only the last version survives on disk."""
    seen = {}
    for w in writes:
        seen.setdefault(w["artifact"], []).append(w["sha256"])
    return sorted(name for name, shas in seen.items() if len(set(shas)) > 1)
