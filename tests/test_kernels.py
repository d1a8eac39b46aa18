"""One implementation per density, frame and wave operator, run by both lanes.

The exact lane (certify) and the grid lane (SliceState, budget, estimate)
call the same kernels; the earlier bodies they replaced are kept in
``oracles`` and the kernels must reproduce them.
"""

import numpy as np
import pytest

import oracles
from framewave import certify, energy, estimates, geometry, vecfields
from framewave.background import BumpBackground
from framewave.energy import SliceState, h_energy, h_radial, h_ttr, null_flat
from framewave.fields import GridGeometry, PolyField, wave_operator
from framewave.geometry import FULL_NAMES, POLAR_CAP, Point, null_frame_at, point_frames
from framewave.vecfields import GENERATORS, lie_multi, measure_decay_constants
from conftest import sample_points

GEOM = GridGeometry(12, 4.0)
BUMP = dict(epsilon=0.2, center=(0.5, 0.0, -0.3), radius=3.0)


def _bump_state(channels=1, seed=0, cls=SliceState):
    rngl = np.random.default_rng(seed)
    shape = (channels,) + (GEOM.n_full,) * 3
    psi, psi_t, psi_tt = (rngl.normal(size=shape) for _ in range(3))
    return cls(GEOM, 0.3, psi, psi_t, psi_tt, BumpBackground(**BUMP))


def _record(monkeypatch, module, names, calls):
    for name in names:
        fn = getattr(module, name)

        def spy(*args, _fn=fn, _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(module, name, spy)


# --- the T_tt + T_rt densities ----------------------------------------------------

def test_ttr_coordinate_equals_the_point_layout_body_on_certify_bundles(monkeypatch):
    seen = []
    kernel = energy.ttr_coordinate

    def keep(bundle):
        out = kernel(bundle)
        seen.append((bundle, out))
        return out
    monkeypatch.setattr(energy, "ttr_coordinate", keep)
    assert certify.check_nullframe_rewriting().passed
    assert len(seen) == 100
    for bundle, got in seen:
        assert np.array_equal(got, oracles.ttr_coordinate(bundle))


@pytest.mark.parametrize("channels", [1, 2, 3])
def test_ttr_coordinate_equals_the_point_layout_body(rng, channels):
    for _ in range(10):
        H = certify._random_H(rng)
        psi = PolyField.random(rng, rank=0, channels=channels, degree=2, nterms=4)
        bundle = energy.eval_point_bundle(H, psi, sample_points(rng, 25))
        assert np.array_equal(energy.ttr_coordinate(bundle), oracles.ttr_coordinate(bundle))


def test_h_kernels_are_linear_in_H(rng):
    """The grid multiplies the constant-direction form by chi; the exact
    lane passes chi M per point.  Both are the same H terms, to 1e-14 of
    the size of the terms at each point (the sums cancel, so a bound
    relative to the result itself would measure the cancellation)."""
    n, ch = 200, 2
    d = rng.normal(size=(4, ch, n))
    xh = rng.normal(size=(3, n))
    xh /= np.sqrt(np.sum(xh ** 2, axis=0))
    M = rng.normal(size=(4, 4))
    M = M + M.T
    chi = rng.uniform(-1.0, 1.0, size=n)
    H = chi * M[:, :, None]
    size = np.abs(chi) * np.einsum("ab,ac...,bc...->...", np.abs(M), np.abs(d), np.abs(d))
    hE_M, hE_H = h_energy(M, d), h_energy(H, d)
    assert np.all(np.abs(chi * hE_M - hE_H) <= 1e-14 * size)
    Hr_M, Hr_H = h_radial(M, xh), h_radial(H, xh)
    Hr_size = np.abs(chi) * np.sum(np.abs(M), axis=0)[:, None]
    assert np.all(np.abs(chi * Hr_M - Hr_H) <= 1e-14 * Hr_size)
    assert np.all(np.abs(chi * h_ttr(hE_M, Hr_M, d) - h_ttr(hE_H, Hr_H, d)) <= 1e-14 * size)


def test_grid_and_certify_run_the_same_density_kernels(monkeypatch):
    calls = []
    _record(monkeypatch, energy, ("null_flat", "h_energy", "h_radial", "h_ttr"), calls)
    st = _bump_state()
    assert st.support() is not None
    st.ttr_density()
    assert sorted(set(calls)) == ["h_energy", "h_radial", "h_ttr", "null_flat"]
    calls.clear()
    assert certify.check_nullframe_rewriting(n_inputs=2, n_pts=3).passed
    assert sorted(set(calls)) == ["h_energy", "h_radial", "h_ttr", "null_flat"]


def test_slice_state_flat_parts_are_one_null_flat(monkeypatch):
    calls = []
    _record(monkeypatch, energy, ("null_flat",), calls)
    st = _bump_state(channels=2)
    flat, dr = null_flat(st.dpsi4(), GEOM.frame("L")[1:])
    assert np.array_equal(st.tangential_integrand(), flat)
    st.trt_density()
    st.ttr_density()
    assert calls == ["null_flat"]          # one cached pass serves all three


def test_full_cube_oracle_does_not_read_the_null_flat_cache(monkeypatch):
    from test_background import _FullCubeSliceState

    def refuse(self):
        raise AssertionError("the oracle must compute d_r psi itself")
    old = _bump_state(cls=_FullCubeSliceState)
    monkeypatch.setattr(SliceState, "_null_flat", refuse)
    for name in ("tangential_integrand", "ttr_density", "trt_density"):
        getattr(old, name)()


# --- the tangential norm ----------------------------------------------------------

@pytest.mark.parametrize("rank, channels", [(0, 1), (0, 2), (1, 1), (1, 2)])
def test_decay_check_tangential_norm_equals_its_loop(monkeypatch, rng, rank, channels):
    seen = []
    kernel = vecfields.tangential_norm_sq

    def keep(d, vectors):
        out = kernel(d, vectors)
        seen.append(out)
        return out
    monkeypatch.setattr(vecfields, "tangential_norm_sq", keep)
    phi = PolyField.random(rng, rank=rank, channels=channels, degree=3, nterms=4)
    pts = sample_points(rng, 120, tmin=1.0, tmax=4.0, box=4.0, rmin=0.3)
    for I in ((), (GENERATORS[4],)):
        seen.clear()
        measure_decay_constants(phi, I, pts)
        grad = lie_multi(I, phi).gradient().eval(pts)
        assert len(seen) == 1
        assert np.array_equal(seen[0], oracles.decay_tangential(grad, pts))


def test_slice_state_tangential_norm_equals_its_loop():
    st = _bump_state(channels=2, seed=4)
    got = st.tangential_norm_sq()
    d4 = st.dpsi4()
    want = 0.0
    for name in ("L", "e1", "e2"):
        dU = np.einsum("m...,mc...->c...", GEOM.frame(name), d4)
        want = want + np.sum(dU * dU, axis=0)
    assert np.array_equal(got, want)


# --- the exact wave operator ------------------------------------------------------

def test_wave_operator_equals_the_commutator_box(rng):
    for _ in range(5):
        H = certify._random_H(rng)
        phi = PolyField.random(rng, rank=0, channels=2, degree=3, nterms=4)
        hess = phi.gradient().gradient()
        got, want = wave_operator(H, hess), oracles.box(H, hess)
        assert all(g == w for g, w in zip(got.comps, want.comps))
        assert all(g == w for g, w in zip(estimates.g_box(H, phi).comps, want.comps))
    flat = PolyField.random(rng, rank=0, channels=1, degree=3, nterms=4)
    hess = flat.gradient().gradient()
    assert wave_operator(None, hess).comps[0] == oracles.box(None, hess).comps[0]


def test_divergence_and_commutator_use_the_one_wave_operator(monkeypatch, rng):
    calls = []
    for module in (energy, estimates):
        _record(monkeypatch, module, ("wave_operator",), calls)
    H = certify._random_H(rng, degree=1)
    psi = PolyField.random(rng, rank=0, channels=1, degree=2, nterms=4)
    energy.divergence_formula(H, psi)
    assert calls == ["wave_operator"]
    estimates.commutator_exact_lhs(H, psi, (GENERATORS[0],))
    estimates.CommutatorStudy(H, psi, (GENERATORS[0],))._factor("box", None, ())
    assert calls == ["wave_operator"] * 4


# --- the null frame ---------------------------------------------------------------

def _cap_points(rng, n):
    """Points with |x3|/r above the polar-cap threshold, both signs of x3."""
    x = rng.normal(size=(n, 3))
    x[:, 2] = np.sign(rng.normal(size=n)) * (2.0 + np.abs(x[:, 2]))
    x[:, :2] *= 0.2
    r = np.sqrt(np.sum(x ** 2, axis=1))
    assert np.all(np.abs(x[:, 2]) / r > POLAR_CAP)
    return x


@pytest.mark.parametrize("chart", ["auto", "z", "x"])
def test_batch_frames_equal_null_frame_at_at_every_point(rng, chart):
    x = np.concatenate([sample_points(rng, 300, rmin=0.05)[:, 1:], _cap_points(rng, 100)])
    for k, fr in enumerate(point_frames(x, chart)):
        one = null_frame_at(Point(0.0, tuple(x[k])), chart)
        for name in FULL_NAMES:
            assert np.array_equal(fr.by_name(name), one.by_name(name))


def test_unknown_chart_raises_for_points_and_batches():
    with pytest.raises(KeyError):
        null_frame_at(Point(0.0, (1.0, 2.0, 0.5)), "y")
    with pytest.raises(KeyError):
        point_frames(np.ones((3, 3)), "auto ")


def test_eA_check_builds_its_frames_in_one_batch(monkeypatch):
    calls, seen = [], []
    _record(monkeypatch, geometry, ("frame_arrays",), calls)
    batch = certify.point_frames

    def keep(x, chart="auto"):
        seen.append(x.copy())
        return batch(x, chart)
    monkeypatch.setattr(certify, "point_frames", keep)
    assert certify.check_eA_expansions(n_pts=60).passed
    assert calls == ["frame_arrays"] and len(seen) == 1 and len(seen[0]) == 60


@pytest.mark.parametrize("chart", ["auto", "z", "x"])
def test_null_frame_at_against_the_pointwise_sphere_pair(rng, chart):
    """The radial half is bit-identical to the pointwise frame; the sphere
    half normalises with sqrt(sum u^2) where the pointwise frame used
    np.linalg.norm, which moves some components by at most one unit in
    the last place of a unit vector."""
    x = np.concatenate([sample_points(rng, 400, rmin=0.05)[:, 1:], _cap_points(rng, 100)])
    eps = np.finfo(float).eps
    for xk in x:
        p = Point(0.5, tuple(xk))
        got, want = null_frame_at(p, chart), oracles.null_frame_at(p, chart)
        assert np.array_equal(got.L, want.L) and np.array_equal(got.Lbar, want.Lbar)
        for name in ("e1", "e2"):
            assert np.max(np.abs(got.by_name(name) - want.by_name(name))) <= eps


@pytest.mark.parametrize("seed, n_pts", [(29, 200), (12351, 200), (12351, 50)])
def test_eA_check_value_unchanged_by_the_batch_frames(monkeypatch, seed, n_pts):
    """certify's eA_as_generators value is the same with the pointwise
    frames (seed 12351 is the suite's draw at the CLI's default seed)."""
    new = certify.check_eA_expansions(seed=seed, n_pts=n_pts)

    def pointwise(x, chart="auto"):
        return [oracles.null_frame_at(Point(0.0, tuple(xk)), chart) for xk in x]
    monkeypatch.setattr(certify, "point_frames", pointwise)
    old = certify.check_eA_expansions(seed=seed, n_pts=n_pts)
    assert new.value == old.value and new.passed
