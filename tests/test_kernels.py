"""One implementation per density, frame and wave operator, run by both lanes,
and one per generator representation, run on point batches.

The exact lane (certify) and the grid lane (SliceState, budget, estimate)
call the same kernels; the earlier bodies they replaced are kept in
``oracles`` and the kernels must reproduce them.  The (div T)_nu kernel's
oracle is ``energy.divergence_direct``, which ``certify`` compares it with.
"""

import numpy as np
import pytest

import oracles
from framewave import certify, energy, estimates, geometry, vecfields
from framewave.background import BumpBackground
from framewave.energy import SliceState, h_energy, h_radial, h_ttr, null_flat
from framewave.fields import GridGeometry, PolyField, wave_operator
from framewave.errors import PoleDegenerate, TimeZero
from framewave.geometry import FULL_NAMES, POLAR_CAP
from framewave.poly import random_poly
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


def test_grid_and_certify_run_the_same_divergence_kernel(monkeypatch):
    calls = []
    _record(monkeypatch, energy, ("h_div",), calls)
    st = _bump_state(channels=2)
    assert st.support() is not None
    st.div_t_density()
    assert calls == ["h_div"]
    calls.clear()
    assert certify.check_divergence_identity(n_fields=2, n_pts=3).passed
    assert calls == ["h_div"] * 8              # 2 fields x 4 nu


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
        measure_decay_constants(phi, [I], pts)
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
    flat = PolyField.random(rng, rank=0, channels=1, degree=3, nterms=4)
    hess = flat.gradient().gradient()
    assert wave_operator(None, hess).comps[0] == oracles.box(None, hess).comps[0]


def test_divergence_and_commutator_use_the_one_wave_operator(monkeypatch, rng):
    calls = []
    for module in (energy, estimates):
        _record(monkeypatch, module, ("wave_operator",), calls)
    H = certify._random_H(rng, degree=1)
    psi = PolyField.random(rng, rank=0, channels=1, degree=2, nterms=4)
    energy.divergence_display(H, psi, sample_points(rng, 5))
    assert calls == ["wave_operator"]
    pts = sample_points(rng, 5)
    estimates.CommutatorStudy(H, psi, (GENERATORS[0],), pts).expansion()
    estimates.CommutatorStudy(H, psi, (GENERATORS[0],), pts)._factor("box", None, ())
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


def test_eA_check_builds_its_frames_in_one_batch(monkeypatch):
    seen = []
    batch = certify.frame_arrays

    def keep(x1, x2, x3):
        seen.append(np.stack([x1, x2, x3], axis=1))
        return batch(x1, x2, x3)
    monkeypatch.setattr(certify, "frame_arrays", keep)
    assert certify.check_eA_expansions(n_pts=60).passed
    assert len(seen) == 1 and len(seen[0]) == 60


@pytest.mark.parametrize("chart", ["auto", "z", "x"])
def test_null_frame_at_against_the_pointwise_sphere_pair(rng, chart):
    """frame_arrays against the pointwise null frame of the oracles, in
    the chart the polar-cap rule picks at each point ("auto"), or in one
    forced chart on the points where the rule picks it: the radial half
    is bit-identical; the sphere half normalises with sqrt(sum u^2) where
    the pointwise frame used np.linalg.norm, which moves some components
    by at most one unit in the last place of a unit vector."""
    x = np.concatenate([sample_points(rng, 400, rmin=0.05)[:, 1:], _cap_points(rng, 100)])
    eps = np.finfo(float).eps
    fr = geometry.frame_arrays(*x.T)
    cap = np.abs(fr["L"][3]) > POLAR_CAP
    picked = {"auto": np.ones_like(cap), "z": ~cap, "x": cap}[chart]
    assert np.count_nonzero(picked) >= 100
    for k in np.flatnonzero(picked):
        want = oracles.null_frame_at(oracles.Point(0.5, tuple(x[k])), chart)
        assert np.array_equal(fr["L"][:, k], want.L)
        assert np.array_equal(fr["Lbar"][:, k], want.Lbar)
        for name in ("e1", "e2"):
            assert np.max(np.abs(fr[name][:, k] - want.by_name(name))) <= eps


def _pointwise_frame_arrays(x1, x2, x3):
    """frame_arrays built from the oracles' pointwise null frame."""
    frames = [oracles.null_frame_at(oracles.Point(0.0, xk)) for xk in zip(x1, x2, x3)]
    fr = {name: np.stack([f.by_name(name) for f in frames], axis=1) for name in FULL_NAMES}
    fr["r"] = geometry.radius(x1, x2, x3)
    return fr


@pytest.mark.parametrize("seed, n_pts", [(29, 200), (12351, 200), (12351, 50)])
def test_eA_check_value_unchanged_by_the_batch_frames(monkeypatch, seed, n_pts):
    """certify's eA_as_generators value is the same with the pointwise
    frames (seed 12351 is the suite's draw at the CLI's default seed)."""
    new = certify.check_eA_expansions(seed=seed, n_pts=n_pts)
    monkeypatch.setattr(certify, "frame_arrays", _pointwise_frame_arrays)
    old = certify.check_eA_expansions(seed=seed, n_pts=n_pts)
    assert new.value == old.value and new.passed


# --- generator representations on point batches -------------------------------

def _rep_points(rng):
    """Spacetime points over the whole sphere, both polar caps included,
    with r >= 0.05 and t away from 0."""
    pts = np.concatenate([sample_points(rng, 300, rmin=0.05),
                          np.column_stack([rng.uniform(-2.0, 2.0, 100), _cap_points(rng, 100)])])
    pts[:, 0][np.abs(pts[:, 0]) < 0.2] += 0.5
    return pts


def _at(rep, k):
    """The representation at point k as {generator: coefficient}, zero
    coefficients dropped (as the pointwise oracles return it)."""
    return {gen: coeff[k] for coeff, gen in rep if coeff[k]}


def _as_dict(rep):
    return {gen: coeff for coeff, gen in rep}


def test_slash_representations_equal_the_pointwise_oracles(rng):
    pts = _rep_points(rng)
    F = random_poly(rng, degree=3, nterms=5)
    block = oracles.slash_block(F, pts)
    eps = np.finfo(float).eps
    grad_size = np.maximum(1.0, np.sqrt(sum(F.diff(j).eval_many(pts) ** 2 for j in (1, 2, 3))))
    for i in (1, 2, 3):
        rot, boost = vecfields.restricted_derivative_as_Z(i, pts)
        direct = vecfields.restricted_derivative_direct(i, F, pts)
        v1 = vecfields.apply_representation(rot, F, pts)
        v2 = vecfields.apply_representation(boost, F, pts)
        # the check's vectorised copy, on every point at once
        assert [np.array_equal(a, b) for a, b in zip((direct, v1, v2), block[i])] == [True] * 3
        for k, pt in enumerate(pts):
            p = oracles.Point(pt[0], tuple(pt[1:]))
            want_rot, want_boost = oracles.restricted_derivative_as_Z(i, p)
            assert _at(rot, k) == _as_dict(want_rot) and _at(boost, k) == _as_dict(want_boost)
            assert v1[k] == oracles.apply_representation(want_rot, F, p)
            assert v2[k] == oracles.apply_representation(want_boost, F, p)
            # the pointwise body sums d_r f term by term, (x_j/r) d_j f: a
            # few roundings of terms no larger than |grad f| apart
            want = oracles.restricted_derivative_direct(i, F, p)
            assert abs(direct[k] - want) <= 8 * eps * grad_size[k]


@pytest.mark.parametrize("chart", ["auto", "z", "x"])
def test_eA_representations_equal_the_pointwise_oracles(rng, chart):
    """The e_A representations on the package's frame ("auto") and on the
    frame of one forced chart over the whole sphere (the representations
    take any orthonormal sphere pair)."""
    pts = _rep_points(rng)
    F = random_poly(rng, degree=3, nterms=5)
    fr = (geometry.frame_arrays(pts[:, 1], pts[:, 2], pts[:, 3]) if chart == "auto"
          else oracles.frame_arrays_in_chart(pts[:, 1], pts[:, 2], pts[:, 3], chart))
    rot = estimates.eA_rotation_representation(pts, fr)
    boost = estimates.eA_boost_representation(pts, fr)
    values = [[vecfields.apply_representation(rep[a], F, pts) for a in (0, 1)]
              for rep in (rot, boost)]
    for k, frame in enumerate(oracles.point_frames(pts[:, 1:], chart)):
        p = oracles.Point(pts[k, 0], tuple(pts[k, 1:]))
        wants = (oracles.eA_rotation_representation(p, frame),
                 oracles.eA_boost_representation(p, frame))
        for rep, got, want in zip((rot, boost), values, wants):
            for a in (0, 1):
                assert _at(rep[a], k) == _as_dict(want[a])
                assert got[a][k] == oracles.apply_representation(want[a], F, p)


@pytest.mark.parametrize("suite_seed", [12345, 29])
@pytest.mark.parametrize("fast", [False, True])
def test_representation_checks_equal_their_parent_bodies(suite_seed, fast):
    """run_suite's draws: seed + 5 and seed + 6, with its point counts."""
    n_slash, n_eA = (200, 50) if fast else (1000, 200)
    slash = certify.check_slash_representations(seed=suite_seed + 5, n_pts=n_slash)
    eA = certify.check_eA_expansions(seed=suite_seed + 6, n_pts=n_eA)
    assert slash.value == oracles.check_slash_representations(suite_seed + 5, n_slash)
    assert eA.value == oracles.check_eA_expansions(suite_seed + 6, n_eA)
    assert slash.passed and eA.passed


def test_representations_raise_on_any_degenerate_point(rng):
    pts = _rep_points(rng)[:20]
    F = random_poly(rng, degree=3, nterms=5)
    at_origin, at_t0 = pts.copy(), pts.copy()
    at_origin[7, 1:] = 0.0
    at_t0[7, 0] = 0.0
    fr = geometry.frame_arrays(at_origin[:, 1], at_origin[:, 2], at_origin[:, 3])
    for call in (lambda: vecfields.restricted_derivative_as_Z(1, at_origin),
                 lambda: vecfields.restricted_derivative_direct(2, F, at_origin),
                 lambda: estimates.eA_rotation_representation(at_origin, fr),
                 lambda: estimates.eA_boost_representation(at_origin, fr)):
        with pytest.raises(PoleDegenerate):
            call()
    fr = geometry.frame_arrays(at_t0[:, 1], at_t0[:, 2], at_t0[:, 3])
    for call in (lambda: vecfields.restricted_derivative_as_Z(1, at_t0),
                 lambda: estimates.eA_boost_representation(at_t0, fr)):
        with pytest.raises(TimeZero):
            call()
    estimates.eA_rotation_representation(at_t0, fr)  # divides by r only
