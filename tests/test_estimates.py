import numpy as np
import pytest

import oracles
from framewave import estimates, evolve, vecfields
from framewave.background import BumpBackground
from framewave.energy import ExteriorRegion, slice_energy, trapz
from framewave.errors import HistoryMissing
from framewave.estimates import (CommutatorStudy, c_hat, commutator_report,
                                 energy_estimate_report,
                                 identity_residual, lbar_radial_residual, lie_component_series,
                                 lie_field_series,
                                 project_component, series_time_derivative)
from framewave.fields import GridGeometry, PolyField
from framewave.poly import R_INV, GaussPoly, Poly, measure_order
from framewave.vecfields import (GENERATORS, SCALING, TRANSLATIONS, lie_multi,
                                 parse_generator)
from framewave.weights import WeightParams
from conftest import sample_points
from oracles import (commutator_exact_lhs, component_series, estimate_pass, frozen_sampler,
                     g_box, gradient_frame_bound, lie_series,
                     tangential_flux_integral)

Z12 = parse_generator("Z12")
Z01 = parse_generator("Z01")


def _random_H(rng, scale=1):
    H = PolyField.random(rng, rank=2, channels=1, degree=2, nterms=3,
                         variance=("u", "u"), symmetric=True)
    return H.scale(scale) if scale != 1 else H


def test_c_hat_extraction():
    assert c_hat(()) == 1
    assert c_hat((SCALING,)) == -2
    assert c_hat((SCALING, SCALING)) == 4
    assert c_hat((Z12,)) == 0
    assert c_hat((Z01, SCALING)) == 0


def test_exact_lhs_trivial_cases(rng):
    H = _random_H(rng)
    phi = PolyField.random(rng, rank=0, channels=1, degree=3, nterms=4)
    out = commutator_exact_lhs(H, phi, ())
    assert all(out.comps[i].is_zero() for i in np.ndindex(out.shape))
    # flat metric + Killing-only multi-index: commutator vanishes exactly
    for I in [(TRANSLATIONS[1],), (Z12,), (Z12, TRANSLATIONS[0]), (Z01, Z12)]:
        out = commutator_exact_lhs(None, phi, I)
        assert all(out.comps[i].is_zero() for i in np.ndindex(out.shape)), I


def test_exact_lhs_scaling_double_evaluation(rng):
    # I = (S), H = 0: both evaluation orders computed independently agree
    phi = PolyField.scalar(Poly.var(0) * Poly.var(0) * Poly.var(1))  # t^2 x1
    lhs = commutator_exact_lhs(None, phi, (SCALING,))
    box = g_box(None, phi)
    manual = lie_multi((SCALING,), box) - g_box(
        None, lie_multi((SCALING,), phi))
    assert (lhs.comps[0] - manual.comps[0]).is_zero()
    # and equals the chat-weighted flat term: -2 * box(phi)
    pts = sample_points(np.random.default_rng(0), 10)
    study_lhs, rhs, _ = CommutatorStudy(None, phi, (SCALING,), pts).expansion()
    assert np.allclose(lhs.eval(pts), study_lhs, rtol=1e-12, atol=1e-12)
    assert np.allclose(lhs.eval(pts), rhs, rtol=1e-12, atol=1e-12)
    assert np.allclose(lhs.eval(pts)[:, 0], -2 * box.eval(pts)[:, 0],
                       rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_identity_random(order, rng):
    H = _random_H(rng)
    phi = PolyField.random(rng, rank=0, channels=1, degree=3, nterms=4)
    pts = sample_points(rng, 15)
    for _ in range(3):
        gens = tuple(GENERATORS[i] for i in rng.integers(0, 11, size=order))
        assert identity_residual(H, phi, gens, pts) <= 1e-10


def test_identity_scaling_squared_flat_coefficient(rng):
    # I = (S, S): the flat-term coefficients come from chat = 4 at I2 = ()
    phi = PolyField.random(rng, rank=0, channels=1, degree=2, nterms=3)
    study = CommutatorStudy(None, phi, (SCALING, SCALING), sample_points(rng, 1))
    flat_cs = sorted(float(c) for c, _ in study._flat_terms)
    assert flat_cs == [-2.0, -2.0, 4.0]  # two single-S splits and one double


def test_bound_flat_only_flat_family(rng):
    phi = PolyField.random(rng, rank=1, channels=1, degree=2, nterms=3)
    pts = frozen_sampler(rng, 20, tmin=1.0, tmax=3.0, chart_z=True)
    for fams in CommutatorStudy(None, phi, (Z12, SCALING), pts).bound("L").values():
        assert np.all(fams["t_weighted"] == 0.0)
        assert np.all(fams["q_weighted"] == 0.0)
        assert np.any(fams["flat"] != 0.0)


def test_bound_zero_field(rng):
    H = _random_H(rng, 0.1)
    phi = PolyField.zero(rank=1, channels=1)
    pts = frozen_sampler(rng, 10, chart_z=True)
    for fams in CommutatorStudy(H, phi, (SCALING,), pts).bound("L").values():
        assert all(np.max(v) == 0.0 for v in fams.values())


def _plus_XX(H, f, X):
    """H^{ab} + f X^a X^b for a vector field X given by 4 Polys."""
    comps = np.empty(H.shape, dtype=object)
    for mu, nu in np.ndindex(4, 4):
        comps[mu, nu, 0] = H.comps[mu, nu, 0] + f * X[mu] * X[nu]
    return PolyField(2, 1, comps, H.variance)


@pytest.mark.parametrize("V", ["L", "e1", "Lbar"])
def test_bound_h_side_decoupling(rng, V):
    """The (1+|q|)^-1 family reads H only through H_LL.  X = Z12's field
    (0, x2, -x1, 0) has L_mu X^mu = 0 and commutes with Z12 and S, so
    adding f X X to H leaves H_LL of every L_{Z^J} H_low for J in the
    subsequences of (Z12, S) unchanged, and the family with it, while the
    (1+t+|q|)^-1 family, which reads all of H, moves.  The radial field
    (0, x1, x2, x3) has L_mu X^mu = r, and there the family moves too."""
    H = _random_H(rng, 0.05)
    phi = PolyField.random(rng, rank=1, channels=1, degree=2, nterms=3)
    I = (Z12, SCALING)
    pts = frozen_sampler(rng, 60, tmin=1.0, tmax=3.0, chart_z=True)
    x1, x2, x3 = Poly.var(1), Poly.var(2), Poly.var(3)
    f = (Poly.const(1.0) + x3 * 0.5) * 0.05
    rotation = [Poly.zero(), x2, -x1, Poly.zero()]
    radial = [Poly.zero(), x1, x2, x3]
    base = CommutatorStudy(H, phi, I, pts).bound(V)

    def change(X, family):
        """Relative change of ``family`` under each convention."""
        fams = CommutatorStudy(_plus_XX(H, f, X), phi, I, pts).bound(V)
        return [np.max(np.abs(fams[c][family] - base[c][family]))
                / np.max(np.abs(base[c][family])) for c in base]

    assert max(change(rotation, "q_weighted")) <= 1e-12
    assert min(change(rotation, "t_weighted")) > 1e-2
    assert min(change(radial, "q_weighted")) > 1e-2


def test_bound_structural_decoupling(rng):
    """An Lbar-only data perturbation leaves the (1+|q|)^-1 family of L
    unchanged: it reads the tangential components only."""
    H = _random_H(rng, 0.05)
    phi = PolyField.random(rng, rank=1, channels=1, degree=2, nterms=3)
    w = Poly.var(1) + 2
    Lflat = [Poly.const(-1)] + [Poly.var(i) * R_INV for i in (1, 2, 3)]
    comps = np.empty((4, 1), dtype=object)
    for mu in range(4):
        comps[mu, 0] = phi.comps[mu, 0] + Lflat[mu] * w * 0.7
    phi2 = PolyField(1, 1, comps)
    pts = frozen_sampler(rng, 60, tmin=1.0, tmax=3.0, chart_z=True)
    f1 = CommutatorStudy(H, phi, (Z12, SCALING), pts).bound("L")["collapsed"]
    f2 = CommutatorStudy(H, phi2, (Z12, SCALING), pts).bound("L")["collapsed"]
    scale = max(1.0, float(np.max(f1["q_weighted"])))
    assert np.max(np.abs(f1["q_weighted"] - f2["q_weighted"])) / scale <= 1e-12
    dl = project_component(phi, "Lbar").eval(pts) - project_component(phi2, "Lbar").eval(pts)
    assert np.max(np.abs(dl)) > 0.1


def test_commutator_report(rng):
    H = _random_H(rng, 0.05)
    phi = PolyField.random(rng, rank=1, channels=1, degree=2, nterms=3)
    pts = frozen_sampler(rng, 80, tmin=1.0, tmax=3.0, chart_z=True)
    rep = commutator_report(CommutatorStudy(H, phi, (Z01,), pts), "L")
    assert rep["identity_residual"] <= 1e-10
    assert np.isfinite(rep["implied_constant"])
    assert np.isfinite(rep["implied_constant_nested"])
    assert rep["component"] == "L" and rep["multi_index"] == ["Z01"]
    assert rep["n_points"] == len(pts)


@pytest.mark.parametrize("scale", [None, 0.05])
def test_shared_study_matches_fresh_reports(rng, scale):
    H = _random_H(rng, scale) if scale else None
    phi = PolyField.random(rng, rank=1, channels=1, degree=2, nterms=3)
    I = (Z01, SCALING)
    pts = frozen_sampler(rng, 40, tmin=1.0, tmax=3.0, chart_z=True)
    study = CommutatorStudy(H, phi, I, pts)
    for V in ("L", "e1", "e2", "Lbar"):
        fresh = CommutatorStudy(H, phi, I, pts)
        assert commutator_report(study, V) == commutator_report(fresh, V), V
        shared, own = study.bound(V), fresh.bound(V)
        assert list(shared) == ["collapsed", "nested"]
        for conv, a in shared.items():
            assert all(np.array_equal(a[f], own[conv][f]) for f in a), (V, conv)
        # the flat family reads this component's own boxes
        flat = np.zeros(len(pts))
        for K in ((), (SCALING,), (Z01,)):
            box = g_box(H, lie_multi(K, project_component(phi, V))).eval(pts)
            flat += np.sqrt(np.sum(box ** 2, axis=1))
        assert np.array_equal(shared["collapsed"]["flat"], flat), V


def test_study_builds_each_lie_derivative_once(rng, monkeypatch):
    H = _random_H(rng, 0.05)
    phi = PolyField.random(rng, rank=1, channels=1, degree=2, nterms=3)
    I = (Z01, SCALING)
    pts = frozen_sampler(rng, 20, tmin=1.0, tmax=3.0, chart_z=True)
    calls = []
    lie = vecfields.lie_derivative
    monkeypatch.setattr(vecfields, "lie_derivative",
                        lambda g, T: calls.append(g) or lie(g, T))
    study = CommutatorStudy(H, phi, I, pts)
    for V in ("L", "e1", "Lbar"):
        commutator_report(study, V)
    # one lattice over the K set for phi, L, e1, e2 and Lbar, one over the
    # subsequences for H_low, and the outer L_{Z^I} of each exact lhs
    lattice_entries = 5 * (len(study.K_set) - 1) + (len(study.subs) - 1)
    assert len(calls) == lattice_entries + 3 * len(I)
    calls.clear()
    identity_residual(H, project_component(phi, "L"), I, pts)
    assert len(calls) == 2 * (len(study.subs) - 1) + len(I)


def test_gradient_frame_bound_cases(rng):
    pts = frozen_sampler(rng, 50, tmin=1.0, tmax=3.0, chart_z=True)
    zero = PolyField.zero(rank=2, channels=1)
    assert gradient_frame_bound(zero, "Lbar", "L", pts) == 0.0
    const = PolyField.zero(rank=2, channels=1)
    for mu, sgn in enumerate((-1, 1, 1, 1)):
        const.comps[mu, mu, 0] = Poly.const(sgn)
    # constant tensor: the projected scalar is frame-built but the rhs sees
    # |Psi| > 0, so the measured constant stays small and finite
    c = gradient_frame_bound(const, "Lbar", "L", pts)
    assert np.isfinite(c)
    Psi = PolyField.random(rng, rank=2, channels=1, degree=2, nterms=4)
    c = gradient_frame_bound(Psi, "L", "e1", pts)
    assert 0 < c < 100


def test_lbar_radial_exact(rng):
    pts = sample_points(rng, 500)
    assert lbar_radial_residual(pts) <= 1e-12


def test_series_time_derivative_quartic_exact():
    dt = 0.1
    ts = np.arange(12) * dt
    arrs = [np.full((2, 2), 1.0 + 3 * t + t ** 2 - 2 * t ** 3 + 0.5 * t ** 4)
            for t in ts]
    want = [3 + 2 * t - 6 * t ** 2 + 2 * t ** 3 for t in ts]
    got = series_time_derivative(arrs, dt)
    for k in range(12):
        assert got[k][0, 0] == pytest.approx(want[k], rel=1e-10, abs=1e-9)
    with pytest.raises(HistoryMissing):
        series_time_derivative(arrs[:3], dt)


@pytest.fixture(scope="module")
def small_run():
    geom = GridGeometry(16, 6.0)
    target = evolve.gaussian_target(rank=1, channels=1, amplitude=1.0,
                                    center=(0, 0, 2.0), sigma=1.0)
    Phi0, Pi0 = evolve.data_from_target(geom, target, 0.0)
    return oracles.stored_run(geom, BumpBackground(0.0), Phi0, Pi0, 0.0, 0.5,
                             cfl=0.4, n_monitors=9)


def test_lie_series_translation_exact(small_run):
    hist = small_run
    ser = lie_component_series(hist, lie_field_series(hist, (TRANSLATIONS[0],)), "L")
    base = component_series(hist, "L")
    k = 4
    geom = hist.geom
    d = np.max(np.abs(geom.interior(ser[k].psi) - geom.interior(base.psi_t[k])))
    assert d == 0.0


def test_lie_series_spatial_translation(small_run):
    # L_{Px3} series equals the stencil x3-derivative of the projection
    hist = small_run
    geom = hist.geom
    ser = lie_component_series(hist, lie_field_series(hist, (TRANSLATIONS[3],)), "slot1")
    base = component_series(hist, "slot1")
    from framewave.fields import d1_axis
    k = 4
    want = d1_axis(base.psi[k], 3, geom.dx)
    got = ser[k].psi
    assert np.max(np.abs(geom.interior(got) - geom.interior(want))) <= 1e-12


# The grid Lie series against the exact Lie derivative: a manufactured
# flat run of (1 + t/2) exp(-|x - (0, 0.5, 1)|^2 / 1.44) per resolution,
# L_{Z^I} of it at t = 0.25 over r < 5 against the exact apply_to_scalar
# chain.  The order floor was fixed before the test was run; the orders
# measured 3.43-3.62, the relative errors at N = 48 2e-3 to 1.6e-2.
LIE_ORDER_FLOOR = 2.5


@pytest.fixture(scope="module")
def manufactured_runs():
    target = np.empty((1,), dtype=object)
    target[0] = GaussPoly(Poly.const(1.0) + Poly.var(0) * 0.5, center=(0, 0.5, 1.0),
                          sigma=1.2)
    runs = []
    for N in (24, 32, 48):
        geom = GridGeometry(N, 6.0)
        bg = BumpBackground(0.0)
        Phi0, Pi0 = evolve.data_from_target(geom, target, 0.0)
        runs.append(oracles.stored_run(geom, bg, Phi0, Pi0, 0.0, 0.5, cfl=0.4, n_monitors=9,
                                       source=evolve.manufactured_source(target, bg, geom)))
    return target, runs


@pytest.mark.parametrize("text", ["S", "Z01", "Z12,S", "P x3"])
def test_lie_series_converges_to_the_exact_lie_derivative(manufactured_runs, text):
    target, runs = manufactured_runs
    I = vecfields.parse_multi_index(text)
    exact = target.copy()
    for gen in reversed(I):
        exact[0] = vecfields.apply_to_scalar(gen, exact[0])
    errs, hs = [], []
    for hist in runs:
        geom = hist.geom
        got = lie_field_series(hist, I)[list(hist.times).index(0.25)]
        want = evolve.sample_scalars(geom, exact, 0.25)
        inside = geom.interior(geom.r_full()) < 5.0
        err = geom.interior(got - want)[:, inside]
        errs.append(float(np.max(np.abs(err)) / np.max(np.abs(geom.interior(want)[:, inside]))))
        hs.append(geom.dx)
    order = measure_order(hs, errs)
    assert np.isfinite(order) and order >= LIE_ORDER_FLOOR, (errs, order)


@pytest.mark.parametrize("N", [8, 12])
def test_lie_step_equals_the_full_coefficient_step(N):
    # one product per nonzero component of the generator table gives the
    # values and signs of zero that all four coefficients on the full cube
    # gave, zero rows included (S at t = -0.0 has Z^t = -0.0)
    geom = GridGeometry(N, 4.0)
    rng = np.random.default_rng(N)
    for rank in (0, 1, 2):
        shape = (4,) * rank + (2,) + (geom.n_full,) * 3
        data, data_t = rng.standard_normal(shape), rng.standard_normal(shape)
        for t in (0.0, -0.0, 0.7, -2.3):
            for gen in GENERATORS:
                got = estimates._apply_lie_grid(gen, data, data_t, geom, t)
                want = oracles.apply_lie_grid_full(gen, data, data_t, geom, t)
                assert np.array_equal(got, want), (gen, rank, t)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (gen, rank, t)


def test_lie_step_takes_one_stencil_per_spatial_component(monkeypatch):
    # the full-coefficient step took three stencils for every generator
    stencil = estimates.d1_axis
    axes = []
    monkeypatch.setattr(estimates, "d1_axis",
                        lambda arr, i, dx: axes.append(i) or stencil(arr, i, dx))
    geom = GridGeometry(8, 4.0)
    data = np.ones((4, 1) + (geom.n_full,) * 3)
    want = {"Pt": [], "Px1": [1], "Px2": [2], "Px3": [3], "Z01": [1], "Z02": [2],
            "Z03": [3], "Z12": [1, 2], "Z13": [1, 3], "Z23": [2, 3], "S": [1, 2, 3]}
    for gen in GENERATORS:
        axes.clear()
        estimates._apply_lie_grid(gen, data, data, geom, 0.5)
        assert axes == want[gen.name], gen


def _report(hist, I, comp, t1, t2, region, params):
    """The package report of a stored run, its I = '' pass fed the stored
    series of the component."""
    base = estimate_pass(component_series(hist, comp), region, params)
    lie = lie_field_series(hist, I) if I else None
    return energy_estimate_report(hist, I, lie, comp, t1, t2, base)


def test_estimate_report_zero_data():
    geom = GridGeometry(12, 4.0)
    shape = (1, geom.n_full, geom.n_full, geom.n_full)
    hist = oracles.stored_run(geom, BumpBackground(0.0), np.zeros(shape),
                             np.zeros(shape), 0.0, 0.4, cfl=0.4, n_monitors=5)
    rep = _report(hist, (), "scalar", 0.0, 0.4, ExteriorRegion(q0=float("-inf")),
                  WeightParams(0.5, -0.25))
    assert all(v == 0.0 for v in rep.terms.values())
    assert rep.to_json()["terms"]["rhs_slice_t1_wtilde"]["value"] == 0.0
    # no right side: the property stays inf, the JSON entry is null
    assert rep.implied_constant == float("inf")
    assert rep.to_json()["implied_constant"] is None


def test_estimate_report_labels_cover_terms(small_run):
    rep = _report(small_run, (), "L", 0.0, 0.5, ExteriorRegion(q0=-2.0),
                  WeightParams(0.5, -0.25))
    js = rep.to_json()
    assert set(js["terms"]) == set(estimates.ESTIMATE_TERM_LABELS)
    assert js["implied_constant"] == pytest.approx(rep.implied_constant)


def test_lie_series_independent_of_monitor_order():
    # stored snapshots are never written to, so a Lie series does not
    # depend on whether a base series (with its wave operator) ran first
    def run():
        geom = GridGeometry(16, 6.0)
        target = evolve.gaussian_target(rank=1, channels=1, amplitude=1.0,
                                        center=(0, 0, 2.0), sigma=1.0)
        Phi0, Pi0 = evolve.data_from_target(geom, target, 0.0)
        return oracles.stored_run(geom, BumpBackground(0.0), Phi0, Pi0, 0.0, 0.5,
                                 cfl=0.4, n_monitors=9)

    fresh, used = run(), run()
    stored = [a.copy() for a in used.fields + used.dfields]
    base = component_series(used, "slot1")
    for k in range(len(base)):
        base.state(k).wave_op()
    assert all(np.array_equal(a, b) for a, b in zip(stored, used.fields + used.dfields))
    for gen in (TRANSLATIONS[3], TRANSLATIONS[0]):
        s1 = lie_component_series(fresh, lie_field_series(fresh, (gen,)), "slot1")
        s2 = lie_component_series(used, lie_field_series(used, (gen,)), "slot1")
        for name in ("psi", "psi_t", "psi_tt"):
            assert all(np.array_equal(getattr(a, name), getattr(b, name))
                       for a, b in zip(s1, s2))


def test_estimate_report_builds_one_component_series(small_run, monkeypatch):
    # an empty multi-index is its base pass; a non-empty one builds its Lie
    # series, one state per slice, and no base series
    region, params = ExteriorRegion(q0=-2.0), WeightParams(0.5, -0.25)
    base = estimate_pass(component_series(small_run, "L"), region, params)
    calls, states = [], []
    series, init = estimates.lie_component_series, estimates.SliceState.__init__

    def counted_init(self, geom, t, *args):
        states.append(t)
        init(self, geom, t, *args)

    monkeypatch.setattr(estimates, "lie_component_series",
                        lambda hist, lie, comp: calls.append(comp) or series(hist, lie, comp))
    monkeypatch.setattr(estimates.SliceState, "__init__", counted_init)
    for I, want in (((), []), ((SCALING,), ["L"])):
        calls.clear()
        states.clear()
        lie = lie_field_series(small_run, I) if I else None
        rep = energy_estimate_report(small_run, I, lie, "L", 0.0, 0.5, base)
        assert calls == want
        assert states == (list(small_run.times) if I else [])
        assert rep.terms["rhs_dHLL_tangH_dPhi_sq_wtilde"] == \
            base.report((), "L", 0.0, 0.5).terms["rhs_dHLL_tangH_dPhi_sq_wtilde"]


def _per_term_rhs(history, I, series, base, t1, t2, region, params):
    """The rhs lines of the estimate as the earlier report built them, with
    fresh slice states and weights of its own."""
    from framewave.weights import w_tilde, w_tilde_prime

    geom = history.geom
    k1, k2 = series.index_range(t1, t2)
    vals = {n: [] for n in list(estimates.ESTIMATE_TERM_LABELS)[3:]}
    for k in range(k1, k2 + 1):
        st = series.state(k)
        stb = base.state(k) if I else st
        mask = geom.region_mask(region, st.t)
        q = geom.interior(geom.q_full(st.t))
        q_safe = np.where(q == 0.0, 1e-30, q)
        wt = w_tilde(q_safe, params)
        wtp = w_tilde_prime(q_safe, params)
        dpsi = np.sqrt(geom.interior(st.grad_norm_sq()))
        tang = np.sqrt(geom.interior(st.tangential_norm_sq()))
        dphi_sq = geom.interior(stb.grad_norm_sq())
        H_LL, H_frob, dH_LL, tangH, dH_frob = estimates._H_frame_arrays(st)

        def quad(arr):
            return float(np.sum(arr[mask]) * geom.dx ** 3)

        vals["rhs_HLL_dPsi_sq_wtilde_prime"].append(quad(H_LL * dpsi ** 2 * wtp))
        vals["rhs_H_tang_dPsi_wtilde_prime"].append(quad(H_frob * tang * dpsi * wtp))
        vals["rhs_dHLL_tangH_dPhi_sq_wtilde"].append(quad((dH_LL + tangH) * dphi_sq * wt))
        vals["rhs_dH_tang_dPsi_wtilde"].append(quad(dH_frob * tang * dpsi * wt))
        box = np.sqrt(np.sum(geom.interior(st.wave_op()) ** 2, axis=0))
        dtpsi = np.sqrt(np.sum(geom.interior(st.psi_t) ** 2, axis=0))
        vals["rhs_waveop_dtPsi_wtilde"].append(quad(box * dtpsi * wt))
    ts = series.times[k1:k2 + 1]
    return {n: trapz(v, ts) for n, v in vals.items()}


@pytest.fixture(scope="module")
def bump_pulse_run():
    geom = GridGeometry(16, 8.0)
    bg = BumpBackground(0.1, center=(-0.5, 0.0, 2.0), radius=3.0, velocity=(0.3, 0, 0))
    Phi0, Pi0 = evolve.outgoing_pulse_data(geom, 0.0, amplitude=1.0, q_center=-2.0,
                                           sigma=0.5)
    return oracles.stored_run(geom, bg, Phi0, Pi0, 0.0, 0.5, cfl=0.45, n_monitors=6)


@pytest.mark.parametrize("text", ["", "S"])
def test_single_pass_estimate_equals_per_term_functions(bump_pulse_run, text):
    hist, params, region = bump_pulse_run, WeightParams(0.5, -0.25), ExteriorRegion(q0=-2.0)
    I = vecfields.parse_multi_index(text)
    base = component_series(hist, "scalar")
    series = lie_series(hist, I, "scalar") if I else base
    rep = energy_estimate_report(hist, I, lie_field_series(hist, I) if I else None, "scalar",
                                 0.0, 0.5, estimate_pass(base, region, params))
    want = {
        "lhs_slice_t2_w": slice_energy(series.state(series.index_of(0.5)), region, params, "w"),
        "lhs_tangential_flux_what_prime": tangential_flux_integral(
            series, 0.0, 0.5, region, params),
        "rhs_slice_t1_wtilde": slice_energy(series.state(series.index_of(0.0)), region, params,
                                            "wtilde"),
        **_per_term_rhs(hist, I, series, base, 0.0, 0.5, region, params),
    }
    assert list(rep.terms) == list(estimates.ESTIMATE_TERM_LABELS)
    assert rep.terms == want
    assert all(v != 0.0 for v in want.values())
    assert rep.rhs_total == sum(v for k, v in want.items() if k.startswith("rhs_"))
