import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framewave.energy import ExteriorRegion
from framewave.fields import (GridGeometry, InnerProduct, PolyField, _laplacian, d1_axis,
                              d2_axis, fill_ghosts_array, load_snapshot, save_snapshot,
                              tangential_norm_sq, wave_operator)
from framewave.geometry import FULL_NAMES, frame_arrays
from framewave.poly import Poly, measure_order, random_poly
from conftest import frame_at
from oracles import (EmptyRegion, GhostInvalid, GridField, partial_derivative,
                     quadrature_slice, sample_scalar)


def test_poly_partial_examples():
    f = PolyField.scalar(Poly.var(0) * Poly.var(1))  # t x1
    assert partial_derivative(f, 0).comps[0] == Poly.var(1)
    const = PolyField.scalar(Poly.const(3))
    for mu in range(4):
        assert partial_derivative(const, mu).comps[0].is_zero()


def test_grid_derivative_refinement():
    errs, hs = [], []
    for N in (16, 32, 64):
        geom = GridGeometry(N, np.pi)
        f = sample_scalar(geom, lambda T, X, Y, Z: np.sin(X))
        df = partial_derivative(f, 1)
        ref = np.cos(geom.interior(geom.mesh()[0]))
        err = np.max(np.abs(geom.interior(df.data)[0] - ref))
        errs.append(err)
        hs.append(geom.dx)
    assert errs[-1] <= 1e-4
    assert measure_order(hs, errs) >= 3.8


def test_grid_derivative_exact_on_cubics(rng):
    geom = GridGeometry(16, 2.0)
    p = random_poly(rng, degree=3, nterms=5, time_dependent=False)
    f = sample_scalar(
        geom, lambda T, X, Y, Z: p.eval_many(
            np.stack([T.ravel(), X.ravel(), Y.ravel(), Z.ravel()], axis=1)
        ).reshape(T.shape))
    for mu in (1, 2, 3):
        df = partial_derivative(f, mu)
        want = p.diff(mu)
        pts = geom.points_full(0.0)
        ref = want.eval_many(pts).reshape((geom.n_full,) * 3)
        got = geom.interior(df.data[0])
        assert np.max(np.abs(got - geom.interior(ref))) <= 1e-10


def test_grid_derivative_one_sided_closure(rng):
    # extrapolated ghosts reproduce one-sided closures: still exact deg <= 3
    geom = GridGeometry(12, 1.5)
    p = random_poly(rng, degree=3, nterms=4, time_dependent=False)
    pts = geom.points_full(0.0)
    vals = p.eval_many(pts).reshape((geom.n_full,) * 3)
    fill_ghosts_array(vals[None], "extrapolate")
    f = GridField(geom, 0, 1, vals[None], 0.0)
    df = partial_derivative(f, 2)
    ref = p.diff(2).eval_many(pts).reshape((geom.n_full,) * 3)
    assert np.max(np.abs(geom.interior(df.data[0]) - geom.interior(ref))) <= 1e-9


@pytest.mark.parametrize("stencil", [d1_axis, d2_axis])
@pytest.mark.parametrize("shape", [(8, 8, 8), (2, 8, 8, 8)])
@pytest.mark.parametrize("axis", [0, 4])
def test_grid_derivative_rejects_a_non_spatial_axis(stencil, shape, axis):
    # axis 0 would read the channel axis of a 4-d array, and all zeros of a 3-d one
    with pytest.raises(ValueError, match="spatial_axis"):
        stencil(np.arange(np.prod(shape), dtype=float).reshape(shape), axis, 1.0)


def test_ghost_invalid():
    geom = GridGeometry(8, 1.0)
    f = GridField.zeros(geom)
    f.ghost_valid = False
    with pytest.raises(GhostInvalid):
        partial_derivative(f, 1)


def test_time_derivative_rejected():
    geom = GridGeometry(8, 1.0)
    with pytest.raises(ValueError):
        partial_derivative(GridField.zeros(geom), 0)


def test_mixed_partials_commute_polyfield(rng):
    f = PolyField.random(rng, rank=1, channels=2, degree=3)
    for mu in range(4):
        for nu in range(mu):
            d1 = partial_derivative(partial_derivative(f, mu), nu)
            d2 = partial_derivative(partial_derivative(f, nu), mu)
            assert all((d1.comps[i] - d2.comps[i]).is_zero()
                       for i in np.ndindex(d1.shape))


def test_quadrature_volume():
    geom = GridGeometry(48, 2.0)
    f = sample_scalar(geom, lambda T, X, Y, Z: np.ones_like(X))
    region = ExteriorRegion(q0=float("-inf"))
    vol = quadrature_slice(f, region, t=0.0)
    ball = 4.0 / 3.0 * np.pi * (2 * geom.dx) ** 3
    assert vol == pytest.approx((2 * geom.X) ** 3 - ball, rel=0.02)


def test_quadrature_zero_and_empty():
    geom = GridGeometry(16, 2.0)
    f = GridField.zeros(geom)
    assert quadrature_slice(f, ExteriorRegion(q0=float("-inf")), 0.0) == 0.0
    with pytest.raises(EmptyRegion):
        quadrature_slice(f, ExteriorRegion(q0=100.0), 0.0)


def test_quadrature_gaussian_outside_cone():
    geom = GridGeometry(48, 6.0)
    sigma = 0.4
    f = sample_scalar(
        geom, lambda T, X, Y, Z: np.exp(-((X - 1) ** 2 + Y ** 2 + Z ** 2) / sigma ** 2))
    full = np.pi ** 1.5 * sigma ** 3
    # center at r = 1, t = 0 has q = 1; region q >= 4 keeps only the far tail
    val = quadrature_slice(f, ExteriorRegion(q0=4.0), t=0.0)
    assert abs(val) <= 1e-6 * full


def test_quadrature_convergence_box():
    region = ExteriorRegion(q0=float("-inf"))
    errs, hs = [], []
    for N in (16, 32, 64):
        geom = GridGeometry(N, 2.0)
        f = sample_scalar(geom, lambda T, X, Y, Z: np.exp(-(X ** 2 + Y ** 2 + Z ** 2) / 2.0) + 1.0)
        got = quadrature_slice(f, region, 0.0)
        # reference: analytic box integral of the Gaussian part + volume
        ref = 64.0 + (np.pi * 2.0) ** 1.5 * (0.9973790839 ** 3)  # erf-corrected
        from math import erf
        g1 = np.sqrt(np.pi * 2.0) * erf(2.0 / np.sqrt(2.0))
        ref = 64.0 + g1 ** 3
        errs.append(abs(got - ref))
        hs.append(geom.dx)
    assert measure_order(hs, errs) >= 1.9


def test_tangential_gradient_norm_radial_profile():
    # f(r - t) is annihilated by L, e1, e2
    def value(pts):
        r = np.linalg.norm(pts[:, 1:], axis=1)
        return np.exp(-(r - pts[:, 0]) ** 2)

    def grad(pts):
        r = np.linalg.norm(pts[:, 1:], axis=1)
        q = r - pts[:, 0]
        g = np.zeros((len(pts), 4))
        fp = -2 * q * np.exp(-q ** 2)
        g[:, 0] = -fp
        g[:, 1:] = fp[:, None] * pts[:, 1:] / r[:, None]
        return g

    p = np.array([0.5, 1.0, 2.0, -0.5])
    assert _tangential_norm_at(grad(p[None, :])[0], p) <= 1e-12


def _tangential_norm_at(grad, p):
    """sqrt of the tangential_norm_sq kernel at one point p (4,), from the
    gradient (4,) + shape there (slots and channels fold into channels)."""
    fr = frame_at(p[1:])
    vectors = [fr[name][:, None] for name in ("L", "e1", "e2")]
    return float(np.sqrt(tangential_norm_sq(grad.reshape(4, -1, 1), vectors)[0]))


def _poly_gradient_at(f, p):
    return f.gradient().eval(p[None, :])[0]


def test_tangential_gradient_norm_t():
    f = PolyField.scalar(Poly.var(0))
    p = np.array([0.0, 1.0, 1.0, 0.0])
    assert _tangential_norm_at(_poly_gradient_at(f, p), p) == pytest.approx(1.0)


def test_tangential_gradient_norm_oracle(rng):
    f = PolyField.random(rng, rank=0, channels=2, degree=3)
    p = np.array([2.0, 1.0, 1.0, 0.0])
    fr = frame_at(p[1:])
    grad = _poly_gradient_at(f, p)
    want = 0.0
    for U in (fr["L"], fr["e1"], fr["e2"]):
        dU = np.tensordot(U, grad, axes=(0, 0))
        want += float(np.sum(dU ** 2))
    assert _tangential_norm_at(grad, p) == pytest.approx(np.sqrt(want), rel=1e-12)


def test_wave_operator_examples():
    f = PolyField.scalar(Poly.var(0) * Poly.var(0))
    out = wave_operator(None, f.gradient().gradient())
    assert out.comps[0] == Poly.const(-2)
    g = PolyField.scalar(Poly.var(1) * Poly.var(1))
    assert wave_operator(None, g.gradient().gradient()).comps[0] == Poly.const(2)
    H = PolyField.zero(rank=2)
    H.comps[0, 0, 0] = Poly.const(0.25)
    out = wave_operator(H, f.gradient().gradient())
    assert out.comps[0] == Poly.const(-2 + 2 * 0.25)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 99_999), n=st.integers(1, 6))
def test_inner_product_cauchy_schwarz(seed, n):
    r = np.random.default_rng(seed)
    a, b = r.normal(size=n), r.normal(size=n)
    assert InnerProduct.dot(a, b) ** 2 <= InnerProduct.dot(a, a) * InnerProduct.dot(b, b) + 1e-12


def test_snapshot_roundtrip(tmp_path, rng):
    geom = GridGeometry(12, 3.0)
    data = rng.normal(size=(4, 2, geom.n_full, geom.n_full, geom.n_full))
    path = os.path.join(tmp_path, "snap.bin")
    save_snapshot(geom, data, 1.25, path)
    interior, header = load_snapshot(path)
    assert header == {"rank": 1, "channels": 2, "N": 12, "X": 3.0, "t": 1.25}
    assert np.array_equal(interior, geom.interior(data))
    assert os.path.exists(path + ".json")
    import json
    side = json.load(open(path + ".json"))
    assert side["N"] == 12 and side["rank"] == 1


# --- stencil kernels against the whole-array expressions ---------------------

def _shifted(arr, spatial_axis):
    """out = zeros_like(arr), its stencil-centre view, and arr shifted by
    -2..2 along the axis: the whole-array form of the stencils."""
    ax = arr.ndim - 3 + (spatial_axis - 1)
    n = arr.shape[ax]

    def sl(a, b):
        t = [slice(None)] * arr.ndim
        t[ax] = slice(a, b)
        return tuple(t)

    out = np.zeros_like(arr)
    return out, sl(2, n - 2), [arr[sl(2 + k, n - 2 + k)] for k in (-2, -1, 0, 1, 2)]


def _d1_reference(arr, spatial_axis, dx):
    out, c, (a, b, _, d, e) = _shifted(arr, spatial_axis)
    out[c] = (a - 8.0 * b + 8.0 * d - e) / (12.0 * dx)
    return out


def _d2_reference(arr, spatial_axis, dx):
    out, c, (a, b, m, d, e) = _shifted(arr, spatial_axis)
    out[c] = (-a + 16.0 * b - 30.0 * m + 16.0 * d - e) / (12.0 * dx * dx)
    return out


# N = 8 fits in one kernel block; N = 28 spans several (but for rank 0, channels 1)
@pytest.mark.parametrize("N", [8, 28])
@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("channels", [1, 3])
def test_stencils_bit_identical_to_whole_array_form(N, rank, channels):
    n = N + 4
    arr = np.random.default_rng(N + 10 * rank + channels).normal(
        size=(4,) * rank + (channels, n, n, n))
    strided = np.swapaxes(arr, -1, -2)  # same shape, not C-contiguous
    dx = 0.37
    for fn, ref in ((d1_axis, _d1_reference), (d2_axis, _d2_reference)):
        for i in (1, 2, 3):
            want = ref(arr, i, dx)
            assert np.array_equal(fn(arr, i, dx), want)
            out = np.full_like(arr, np.nan)  # the margins must be written too
            assert fn(arr, i, dx, out=out) is out
            assert np.array_equal(out, want)
            assert np.array_equal(fn(strided, i, dx), ref(strided, i, dx))


def test_stencil_out_must_be_separate_and_contiguous():
    arr = np.random.default_rng(1).normal(size=(1, 12, 12, 12))
    with pytest.raises(ValueError):
        d1_axis(arr, 1, 0.5, out=arr)
    with pytest.raises(ValueError):
        d2_axis(arr, 2, 0.5, out=np.empty((1, 12, 12, 24))[..., ::2])


# --- one-pass flat Laplacian against three d2_axis calls ----------------------

def _margin_and_box(arr):
    """Mask of the width-2 margin of every spatial axis, and the box inside."""
    box = (Ellipsis,) + (slice(2, -2),) * 3
    margin = np.ones(arr.shape, dtype=bool)
    margin[box] = False
    return margin, box


@pytest.mark.parametrize("N", [8, 28])
@pytest.mark.parametrize("shape", [(1,), (4, 2)])
def test_laplacian_matches_three_d2_axis_calls(N, shape):
    n = N + 4
    arr = np.random.default_rng(N + len(shape)).normal(size=shape + (n, n, n))
    dx = 0.37
    want = d2_axis(arr, 1, dx) + d2_axis(arr, 2, dx) + d2_axis(arr, 3, dx)
    out = np.full_like(arr, np.nan)  # the margins must be written too
    got = _laplacian(arr, dx, out=out)
    margin, box = _margin_and_box(arr)
    assert got is out
    assert np.all(got[margin] == 0.0) and not np.any(np.signbit(got[margin]))
    scale = np.max(np.abs(want[box]))
    assert np.max(np.abs(got[box] - want[box])) <= 1e-14 * scale
    assert np.array_equal(_laplacian(np.swapaxes(arr, -1, -2), dx),
                          _laplacian(np.swapaxes(arr, -1, -2).copy(), dx))


def test_laplacian_exact_on_a_cubic():
    # dx = 1/2 and small integer coefficients: every sum below is exact
    geom = GridGeometry(16, 4.0)
    X1, X2, X3 = geom.mesh()
    arr = (X1 ** 3 - 2.0 * X1 * X2 ** 2 + 3.0 * X3 ** 3 + X1 * X2 * X3
           - 5.0 * X2 ** 2 + 7.0)[None]
    exact = (2.0 * X1 + 18.0 * X3 - 10.0)[None]
    dx = geom.dx
    got = _laplacian(arr, dx)
    margin, box = _margin_and_box(arr)
    assert np.array_equal(got[box], exact[box])
    assert np.array_equal(got[box], (d2_axis(arr, 1, dx) + d2_axis(arr, 2, dx)
                                     + d2_axis(arr, 3, dx))[box])
    assert np.all(got[margin] == 0.0)


@pytest.mark.parametrize("N", [12, 24])
def test_grid_frame_equals_frame_arrays_over_the_mesh(N):
    geom = GridGeometry(N, 4.0)
    want = frame_arrays(*geom.mesh())
    for name in FULL_NAMES:
        got = geom.frame(name)
        assert got.shape == want[name].shape and np.array_equal(got, want[name]), name
        assert np.array_equal(np.signbit(got), np.signbit(want[name])), name
        assert geom.frame(name) is got            # built once, then kept
    assert np.array_equal(geom.r_full(), want["r"])
    for name in ("r", "xh", "L,Lbar"):
        with pytest.raises(KeyError):
            geom.frame(name)


def test_grid_frame_builds_what_is_read():
    geom = GridGeometry(12, 4.0)
    geom.frame("L")
    assert set(geom._frames) == {"L"}
    geom.frame("e2")                              # e1 and e2 come together
    assert set(geom._frames) == {"L", "e1", "e2"}
    geom.frame("Lbar")
    assert set(geom._frames) == set(FULL_NAMES)


def test_grid_frame_L_peak_memory():
    # L needs the mesh, r and x/r: the whole frame took about 37 full-cube
    # scalars of temporaries when the first read built all four fields
    geom = GridGeometry(32, 8.0)
    scalar = geom.n_full ** 3 * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        geom.frame("L")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 12 * scalar, peak / scalar
