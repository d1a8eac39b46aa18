import numpy as np
import pytest

from framewave import estimates, evolve, vecfields
from framewave.background import ZeroBackground
from framewave.energy import ExteriorRegion
from framewave.errors import FrameMismatch, HistoryMissing
from framewave.estimates import (CommutatorStudy, c_hat, commutator_bound_rhs,
                                 commutator_exact_lhs, commutator_identity_rhs,
                                 commutator_report, energy_estimate_report,
                                 gradient_frame_bound, identity_residual,
                                 lbar_radial_residual, lie_component_series,
                                 project_component, series_time_derivative)
from framewave.fields import GridGeometry, PolyField
from framewave.poly import Poly
from framewave.vecfields import (GENERATORS, SCALING, TRANSLATIONS, VectorFieldId,
                                 lie_multi, subsequences)
from framewave.weights import WeightParams
from conftest import sample_points

Z12 = VectorFieldId("Z", 1, 2)
Z01 = VectorFieldId("Z", 0, 1)


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
    box = estimates.g_box(None, phi)
    manual = lie_multi((SCALING,), box) - estimates.g_box(
        None, lie_multi((SCALING,), phi))
    assert (lhs.comps[0] - manual.comps[0]).is_zero()
    # and equals the chat-weighted flat term: -2 * box(phi)
    rhs = commutator_identity_rhs(None, phi, (SCALING,))
    pts = sample_points(np.random.default_rng(0), 10)
    assert np.allclose(lhs.eval(pts), rhs.eval(pts), rtol=1e-12, atol=1e-12)
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
    rhs = commutator_identity_rhs(None, phi, (SCALING, SCALING))
    flat_cs = sorted(float(c) for c, _ in rhs._flat)
    assert flat_cs == [-2.0, -2.0, 4.0]  # two single-S splits and one double


def test_bound_flat_only_flat_family(rng):
    phi = PolyField.random(rng, rank=1, channels=1, degree=2, nterms=3)
    b = commutator_bound_rhs(None, phi, (Z12, SCALING), "L")
    pts = sample_points(rng, 20, tmin=1.0, tmax=3.0, chart_z=True)
    fams = b.family_values(pts)
    assert np.all(fams["t_weighted"] == 0.0)
    assert np.all(fams["q_weighted"] == 0.0)
    assert np.any(fams["flat"] != 0.0)


def test_bound_zero_field(rng):
    H = _random_H(rng, 0.1)
    phi = PolyField.zero(rank=1, channels=1)
    b = commutator_bound_rhs(H, phi, (SCALING,), "L")
    pts = sample_points(rng, 10, chart_z=True)
    assert np.max(b.eval(pts)) == 0.0


def test_bound_frame_mismatch(rng):
    phi = PolyField.random(rng, rank=1, channels=1, degree=1, nterms=2)
    with pytest.raises(FrameMismatch):
        commutator_bound_rhs(None, phi, (SCALING,), "Lbar", frame_set="T")
    commutator_bound_rhs(None, phi, (SCALING,), "Lbar", frame_set="U")


def test_bound_structural_decoupling(rng):
    from framewave.poly import RadPoly

    H = _random_H(rng, 0.05)
    phi = PolyField.random(rng, rank=1, channels=1, degree=2, nterms=3)
    # term table: the q-weighted family reads only H_LL and tangential parts
    b = commutator_bound_rhs(H, phi, (Z12, SCALING), "L")
    for t in b.terms:
        if t.family == "q_weighted":
            assert t.h_component == "LL"
            assert set(t.phi_components) <= {"L", "e1", "e2"}
    # numeric: an Lbar-only data perturbation leaves the family unchanged
    w = Poly.var(1) + 2
    Lflat = [RadPoly.from_poly(Poly.const(-1))] + [
        RadPoly({(1, 0, 0): Poly.var(i)}) for i in (1, 2, 3)]
    comps = np.empty((4, 1), dtype=object)
    for mu in range(4):
        comps[mu, 0] = phi.comps[mu, 0] + Lflat[mu] * w * 0.7
    phi2 = PolyField(1, 1, comps)
    pts = sample_points(rng, 60, tmin=1.0, tmax=3.0, chart_z=True)
    f1 = b.family_values(pts)
    f2 = commutator_bound_rhs(H, phi2, (Z12, SCALING), "L").family_values(pts)
    scale = max(1.0, float(np.max(f1["q_weighted"])))
    assert np.max(np.abs(f1["q_weighted"] - f2["q_weighted"])) / scale <= 1e-12
    dl = project_component(phi, "Lbar").eval(pts) - project_component(phi2, "Lbar").eval(pts)
    assert np.max(np.abs(dl)) > 0.1


def test_commutator_report(rng):
    H = _random_H(rng, 0.05)
    phi = PolyField.random(rng, rank=1, channels=1, degree=2, nterms=3)
    pts = sample_points(rng, 80, tmin=1.0, tmax=3.0, chart_z=True)
    rep = commutator_report(H, phi, (Z01,), "L", pts)
    assert rep.identity_residual <= 1e-10
    assert np.isfinite(rep.implied_constant)
    assert np.isfinite(rep.implied_constant_nested)
    js = rep.to_json()
    assert js["component"] == "L" and js["multi_index"] == ["Z01"]


COMPONENTS = [("L", "T"), ("e1", "T"), ("e2", "T"), ("Lbar", "U"), ("L", "U")]


@pytest.mark.parametrize("scale", [None, 0.05])
def test_shared_study_matches_fresh_reports(rng, scale):
    H = _random_H(rng, scale) if scale else None
    phi = PolyField.random(rng, rank=1, channels=1, degree=2, nterms=3)
    I = (Z01, SCALING)
    pts = sample_points(rng, 40, tmin=1.0, tmax=3.0, chart_z=True)
    study = CommutatorStudy(H, phi, I)
    for V, fs in COMPONENTS:
        shared = commutator_report(H, phi, I, V, pts, frame_set=fs, study=study)
        fresh = commutator_report(H, phi, I, V, pts, frame_set=fs)
        assert shared.to_json() == fresh.to_json(), V
        for conv in ("collapsed", "nested"):
            a = commutator_bound_rhs(H, phi, I, V, fs, study=study).family_values(pts, conv)
            b = commutator_bound_rhs(H, phi, I, V, fs).family_values(pts, conv)
            assert all(np.array_equal(a[f], b[f]) for f in a), (V, conv)
        # the flat family reads this component's own boxes
        flat = np.zeros(len(pts))
        for K in ((), (SCALING,), (Z01,)):
            box = estimates.g_box(H, lie_multi(K, project_component(phi, V))).eval(pts)
            flat += np.sqrt(np.sum(box ** 2, axis=1))
        assert np.array_equal(a["flat"], flat), V


def test_study_builds_each_lie_derivative_once(rng, monkeypatch):
    H = _random_H(rng, 0.05)
    phi = PolyField.random(rng, rank=1, channels=1, degree=2, nterms=3)
    I = (Z01, SCALING)
    pts = sample_points(rng, 20, tmin=1.0, tmax=3.0, chart_z=True)
    for s in subsequences(I):
        c_hat(s)  # the chat factors are cached per process; warm them first
    calls = []
    lie = vecfields.lie_derivative
    monkeypatch.setattr(vecfields, "lie_derivative",
                        lambda g, T: calls.append(g) or lie(g, T))
    study = CommutatorStudy(H, phi, I)
    for V, fs in (("L", "T"), ("e1", "T"), ("Lbar", "U")):
        commutator_report(H, phi, I, V, pts, frame_set=fs, study=study)
    # one lattice over the K set for phi, L, e1, e2 and Lbar, one over the
    # subsequences for H_low, and the outer L_{Z^I} of each exact lhs
    lattice_entries = 5 * (len(study.K_set) - 1) + (len(study.subs) - 1)
    assert len(calls) == lattice_entries + 3 * len(I)
    calls.clear()
    identity_residual(H, project_component(phi, "L"), I, pts)
    assert len(calls) == 2 * (len(study.subs) - 1) + len(I)


def test_gradient_frame_bound_cases(rng):
    pts = sample_points(rng, 50, tmin=1.0, tmax=3.0, chart_z=True)
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
    return evolve.evolve_run(geom, ZeroBackground(), Phi0, Pi0, 0.0, 0.5,
                             cfl=0.4, n_monitors=9)


def test_lie_series_translation_exact(small_run):
    hist = small_run
    ser = lie_component_series(hist, (TRANSLATIONS[0],), "L")
    base = hist.component_series("L")
    k = 4
    geom = hist.geom
    d = np.max(np.abs(geom.interior(ser.psi[k]) - geom.interior(base.psi_t[k])))
    assert d == 0.0


def test_lie_series_spatial_translation(small_run):
    # L_{Px3} series equals the stencil x3-derivative of the projection
    hist = small_run
    geom = hist.geom
    ser = lie_component_series(hist, (TRANSLATIONS[3],), "slot1")
    base = hist.component_series("slot1")
    from framewave.fields import d1_axis
    k = 4
    want = d1_axis(base.psi[k], 3, geom.dx)
    got = ser.psi[k]
    assert np.max(np.abs(geom.interior(got) - geom.interior(want))) <= 1e-12


def test_estimate_report_zero_data():
    geom = GridGeometry(12, 4.0)
    shape = (1, geom.n_full, geom.n_full, geom.n_full)
    hist = evolve.evolve_run(geom, ZeroBackground(), np.zeros(shape),
                             np.zeros(shape), 0.0, 0.4, cfl=0.4, n_monitors=5)
    rep = energy_estimate_report(hist, (), "scalar", 0.0, 0.4,
                                 ExteriorRegion(q0=float("-inf")),
                                 WeightParams(0.5, -0.25))
    assert all(v == 0.0 for v in rep.terms.values())
    assert rep.to_json()["terms"]["rhs_slice_t1_wtilde"]["value"] == 0.0


def test_estimate_report_labels_cover_terms(small_run):
    rep = energy_estimate_report(small_run, (), "L", 0.0, 0.5,
                                 ExteriorRegion(q0=-2.0), WeightParams(0.5, -0.25))
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
        return evolve.evolve_run(geom, ZeroBackground(), Phi0, Pi0, 0.0, 0.5,
                                 cfl=0.4, n_monitors=9)

    fresh, used = run(), run()
    stored = [a.copy() for a in used.fields + used.dfields]
    base = used.component_series("slot1")
    for k in range(len(base)):
        base.state(k).wave_op()
    assert all(np.array_equal(a, b) for a, b in zip(stored, used.fields + used.dfields))
    for gen in (TRANSLATIONS[3], TRANSLATIONS[0]):
        s1 = lie_component_series(fresh, (gen,), "slot1")
        s2 = lie_component_series(used, (gen,), "slot1")
        for name in ("psi", "psi_t", "psi_tt"):
            assert all(np.array_equal(a, b) for a, b in
                       zip(getattr(s1, name), getattr(s2, name)))


def test_estimate_report_builds_one_component_series(small_run, monkeypatch):
    # an empty multi-index reads its own series as the base series
    calls = []
    original = evolve.RunHistory.component_series

    def counted(self, component):
        calls.append(component)
        return original(self, component)

    monkeypatch.setattr(evolve.RunHistory, "component_series", counted)
    for I in ((), (SCALING,)):
        calls.clear()
        energy_estimate_report(small_run, I, "L", 0.0, 0.5,
                               ExteriorRegion(q0=-2.0), WeightParams(0.5, -0.25))
        assert calls == ["L"]
