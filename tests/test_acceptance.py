"""Acceptance criteria, one test per criterion, each printing a PASS line.

Exact-identity certification is the backbone (criteria 1-5, 8-9 run on
seeded exact-field families); the grid criteria (6, 7, 10) pin the evolved
experiments: budget closure order, estimate instance checks, and solver
verification.  Tolerances are fixed here, not calibrated.
"""

import time

import numpy as np
import pytest

import oracles
from framewave import certify, energy, estimates, evolve
from framewave.background import BumpBackground
from framewave.energy import ExteriorRegion, slice_energy
from framewave.fields import GridGeometry, PolyField
from framewave.poly import measure_order
from framewave.vecfields import SCALING, parse_generator
from framewave.weights import WeightParams
from oracles import commutator_exact_lhs, component_series, conservation_budget


def _report(name, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


# -- 1. exact commutator identity -------------------------------------------

def test_criterion_1_commutator_identity():
    start = time.monotonic()
    res = certify.check_commutator_identity(seed=1001, n_pairs=50, max_order=3,
                                            n_pts=20)
    elapsed = time.monotonic() - start
    _report("criterion 1 (exact commutator identity)",
            res.passed and elapsed <= 120.0,
            f"max relative residual {res.value:.2e} <= 1e-10; {res.detail}; "
            f"runtime {elapsed:.1f}s <= 120s")


# -- 2. null-frame rewriting -------------------------------------------------

def test_criterion_2_nullframe_rewriting():
    res = certify.check_nullframe_rewriting(seed=1002, n_inputs=100, n_pts=20)
    _report("criterion 2 (null-frame rewriting of T_tt + T_rt)", res.passed,
            f"max pointwise residual {res.value:.2e} <= 1e-12 on 100 inputs")


# -- 3. gradient decomposition ----------------------------------------------

def test_criterion_3_gradient_decomposition():
    res = certify.check_gradient_decomposition(seed=1003, n_fields=25, n_pts=120)
    _report("criterion 3 (gradient decomposition identities)", res.passed,
            f"max residual {res.value:.2e} <= 1e-12, both displayed equalities")


# -- 4. restricted derivatives as generators ---------------------------------

def test_criterion_4_slash_identities():
    res = certify.check_slash_representations(seed=1004, n_pts=1200)
    _report("criterion 4 (slash-d as generators; outgoing derivative of x/r)",
            res.passed, f"max residual {res.value:.2e} <= 1e-10 at 1200 points")


# -- 5. weight lemmas ---------------------------------------------------------

def test_criterion_5_weight_lemmas():
    res = certify.check_weight_lemmas(n_q=10_000, seed=1005)
    _report("criterion 5 (weight lemmas)", res.passed,
            f"max branch residual {res.value:.2e} <= 1e-12 at 1e4 samples, "
            f"(gamma, mu) grid")


# -- 6. conservation budget ---------------------------------------------------

BUDGET_NS = (32, 48, 64)


def _budget_run(N, bg):
    geom = GridGeometry(N, 8.0)
    target = evolve.gaussian_target(amplitude=1.0, center=(0, 0, 3.5), sigma=1.0)
    Phi0, Pi0 = evolve.data_from_target(geom, target, 0.0)
    hist = oracles.stored_run(geom, bg, Phi0, Pi0, 0.0, 0.75, cfl=0.45,
                             n_monitors=N // 4 + 1)
    return component_series(hist, "scalar")


def test_criterion_6_budget_convergence():
    start = time.monotonic()  # covers the runs themselves, N = 64 included
    params = WeightParams(0.5, -0.25)
    region = ExteriorRegion(q0=-2.0)
    orders = {}
    flat_series_64 = None
    for eps, bg in ((0.0, BumpBackground(0.0)),
                    (0.1, BumpBackground(0.1, center=(0, 0, 2.0), radius=3.0))):
        residuals = []
        for N in BUDGET_NS:
            series = _budget_run(N, bg)
            residuals.append(conservation_budget(series, region, 0.0, 0.75,
                                                 params).residual)
            if eps == 0.0 and N == 64:
                flat_series_64 = series
        orders[eps] = measure_order([16.0 / N for N in BUDGET_NS], residuals)
    # flat source-free exterior energy non-increasing within 1e-3 relative
    energies = [slice_energy(flat_series_64.state(k), region, params, "w")
                for k in range(len(flat_series_64.times))]
    drift = max(max(energies[k + 1] - energies[k] for k in range(len(energies) - 1)), 0.0)
    rel_drift = drift / energies[0]
    elapsed = time.monotonic() - start
    ok = all(o >= 1.9 for o in orders.values()) and rel_drift <= 1e-3 \
        and elapsed <= 600.0
    _report("criterion 6 (conservation budget)", ok,
            f"orders flat/bump = {orders[0.0]:.2f}/{orders[0.1]:.2f} >= 1.9; "
            f"energy drift {rel_drift:.2e} <= 1e-3; runtime {elapsed:.0f}s <= 600s")


# -- 7. energy estimate instance check ---------------------------------------

ESTIMATE_NS = (48, 64)


def _estimate_run(N, bg, region, params):
    """The I = '' estimate pass, fed each monitor slice while the run goes."""
    geom = GridGeometry(N, 8.0)
    Phi0, Pi0 = evolve.outgoing_pulse_data(geom, 6.0, amplitude=1.0,
                                           q_center=-2.5, sigma=0.5)
    n_monitors, est = N // 4 + 1, estimates.EstimatePass(region, params)

    def feed(hist, t, Phi, Pi, slope):
        est.add(oracles.live_state(hist, "scalar", t, Phi, Pi, slope),
                len(est._ts) in (0, n_monitors - 1))

    evolve.evolve_run(geom, bg, Phi0, Pi0, 6.0, 7.0, feed, [].append, cfl=0.45,
                      n_monitors=n_monitors)
    return est


def test_criterion_7_estimate_instances():
    params = WeightParams(0.5, -1.0)
    region = ExteriorRegion(q0=-6.0)
    implied = {}
    for eps, bg in ((0.0, BumpBackground(0.0)),
                    (0.1, BumpBackground(0.1, center=(0, 0, 3.0), radius=3.0))):
        implied[eps] = {}
        for N in ESTIMATE_NS:
            rep = _estimate_run(N, bg, region, params).report((), "scalar", 6.0, 7.0)
            implied[eps][N] = rep.implied_constant
    ok = True
    details = []
    for eps in implied:
        c48, c64 = implied[eps][48], implied[eps][64]
        finite = np.isfinite(c48) and np.isfinite(c64)
        stable = abs(c64 - c48) / abs(c48) <= 0.20
        ok &= finite and stable
        details.append(f"eps={eps}: c48={c48:.3f} c64={c64:.3f}")
    flat_in_band = 0.8 <= implied[0.0][64] <= 1.2
    ok &= flat_in_band
    _report("criterion 7 (energy estimate instance check)", ok,
            "; ".join(details) + f"; flat constant in [0.8, 1.2]: {flat_in_band}")


# -- 8. decoupled commutator bound -------------------------------------------

def _lattice_points(spacing, rmin=1.0, rmax=3.5, box=3.5):
    """Sample lattice over an annular shell inside the x3-axis chart; the
    (0.35, 0.25) spacing pair resolves the ratio's variation scale near
    the inner radius, where the measured constant localizes."""
    xs = np.arange(-box, box + 1e-9, spacing)
    X1, X2, X3 = np.meshgrid(xs, xs, xs, indexing="ij")
    r = np.sqrt(X1 ** 2 + X2 ** 2 + X3 ** 2)
    m = (r >= rmin) & (r <= rmax) & (np.abs(X3) <= 0.8 * r)
    pts1 = np.stack([X1[m], X2[m], X3[m]], axis=1)
    out = []
    for t in (1.0, 2.0, 3.0):
        p = np.empty((len(pts1), 4))
        p[:, 0] = t
        p[:, 1:] = pts1
        out.append(p)
    return np.concatenate(out)


def test_criterion_8_decoupled_bound():
    rng = np.random.default_rng(1008)
    H = PolyField.random(rng, rank=2, channels=1, degree=2, nterms=3,
                         variance=("u", "u"), symmetric=True).scale(0.05)
    phi = PolyField.random(rng, rank=1, channels=1, degree=2, nterms=3)
    I = (parse_generator("Z01"), SCALING)
    consts = []
    for k, spacing in enumerate((0.35, 0.25)):
        pts = _lattice_points(spacing)
        if k == 0:
            rep = estimates.commutator_report(estimates.CommutatorStudy(H, phi, I, pts), "L")
            assert rep["identity_residual"] <= 1e-10
            consts.append(rep["implied_constant"])
        else:
            phi_L = estimates.project_component(phi, "L")
            lhs = commutator_exact_lhs(H, phi_L, I).eval(pts)
            lv = np.sqrt(np.sum(lhs ** 2, axis=1))
            fams = estimates.CommutatorStudy(H, phi, I, pts).bound("L")["collapsed"]
            bv = fams["flat"] + fams["t_weighted"] + fams["q_weighted"]
            ok = bv > 1e-12 * np.max(bv)
            consts.append(float(np.max(lv[ok] / bv[ok])))
    stable = abs(consts[1] - consts[0]) / consts[0] <= 0.20
    finite = all(np.isfinite(c) and c > 0 for c in consts)

    # structural decoupling: a pure Lbar-data perturbation leaves the
    # (1+|q|)^-1 family value unchanged
    from framewave.poly import R_INV, Poly

    Lflat = [Poly.const(-1)] + [Poly.var(i) * R_INV for i in (1, 2, 3)]
    comps = np.empty((4, 1), dtype=object)
    for mu in range(4):
        comps[mu, 0] = phi.comps[mu, 0] + Lflat[mu] * (Poly.var(2) + 1) * 0.6
    phi2 = PolyField(1, 1, comps)
    pts = _lattice_points(0.7)
    f1 = estimates.CommutatorStudy(H, phi, I, pts).bound("L")["collapsed"]
    f2 = estimates.CommutatorStudy(H, phi2, I, pts).bound("L")["collapsed"]
    scale = max(1.0, float(np.max(f1["q_weighted"])))
    decoupled = np.max(np.abs(f1["q_weighted"] - f2["q_weighted"])) / scale <= 1e-12
    changed = np.max(np.abs(
        estimates.project_component(phi, "Lbar").eval(pts)
        - estimates.project_component(phi2, "Lbar").eval(pts))) > 0.1
    ok = finite and stable and decoupled and changed
    _report("criterion 8 (decoupled commutator bound)", ok,
            f"constants {consts[0]:.3f} -> {consts[1]:.3f} (stable +-20%); "
            f"q-weighted family invariant under Lbar perturbation: {decoupled}")


# -- 9. decay inequalities ----------------------------------------------------

def test_criterion_9_decay_inequalities():
    res = certify.check_decay_inequalities(seed=1009, n_fields=6, n_pts=500)
    _report("criterion 9 (flat decay inequalities)", res.passed,
            f"measured constants <= {res.value:.2f} (<= 10) on the certification "
            f"family in t >= 1 or r >= 1")


# -- 10. solver verification --------------------------------------------------

def test_criterion_10_solver_verification():
    # plane wave: exact-solution error and convergence order
    errs, hs = [], []
    for N in (32, 64):
        geom = GridGeometry(N, np.pi)
        Phi0, Pi0, exact = evolve.plane_wave_data(geom, kvec=(1, 0, 0))
        hist = oracles.stored_run(geom, BumpBackground(0.0), Phi0, Pi0, 0.0, 1.0,
                                 boundary="periodic", cfl=0.4, n_monitors=3)
        num = geom.interior(hist.fields[-1])
        ref = geom.interior(exact(hist.times[-1]))
        errs.append(float(np.sqrt(np.mean((num - ref) ** 2))
                          / np.sqrt(np.mean(ref ** 2))))
        hs.append(geom.dx)
    pw_err = errs[-1]
    pw_order = measure_order(hs, errs)

    # manufactured solutions on every background family
    from framewave.poly import GaussPoly, Poly

    mms_orders = {}
    for eps, bg in ((0.0, BumpBackground(0.0)),
                    (0.1, BumpBackground(0.1, center=(0, 0, 1.0), radius=4.0)),
                    (0.3, BumpBackground(0.3, center=(0, 0, 1.0), radius=4.0))):
        errs2, hs2 = [], []
        for N in (16, 24, 32):
            geom = GridGeometry(N, 6.0)
            comps = np.empty((1,), dtype=object)
            comps[0] = GaussPoly(Poly.const(1.0) + Poly.var(0) * 0.5
                                 + Poly.var(1) * 0.3, center=(0, 0.5, 0), sigma=1.2)
            src = evolve.manufactured_source(comps, bg, geom)
            Phi0, Pi0 = evolve.data_from_target(geom, comps, 0.0)
            hist = oracles.stored_run(geom, bg, Phi0, Pi0, 0.0, 0.8,
                                     source=src, cfl=0.4, n_monitors=3)
            ref = evolve.sample_scalars(geom, comps, hist.times[-1])
            errs2.append(float(np.sqrt(np.mean(
                (geom.interior(hist.fields[-1]) - geom.interior(ref)) ** 2))))
            hs2.append(geom.dx)
        mms_orders[eps] = measure_order(hs2, errs2)

    ok = pw_err <= 1e-3 and pw_order >= 3.5 and all(
        o >= 1.9 for o in mms_orders.values())
    _report("criterion 10 (solver verification)", ok,
            f"plane-wave err {pw_err:.2e} <= 1e-3, order {pw_order:.2f} >= 3.5; "
            f"MMS orders {({k: round(v, 2) for k, v in mms_orders.items()})} >= 1.9")
