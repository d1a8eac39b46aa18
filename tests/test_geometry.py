import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framewave.errors import PoleDegenerate
from framewave.geometry import MINKOWSKI, POLAR_CAP, frame_arrays
from framewave.vecfields import boost_representation, rotation_representation
from conftest import frame_at, sample_points
from oracles import (Point, RankMismatch, frame_arrays_in_chart, frame_coefficients,
                     frame_component, frobenius_norm, lower_index, null_frame_at, raise_index,
                     sphere_projector)


def _m(a, b):
    return float(a @ MINKOWSKI @ b)


def test_frame_on_axis_point():
    fr = frame_at((1.0, 0.0, 0.0))
    assert np.allclose(fr["L"], [1, 1, 0, 0])
    assert np.allclose(fr["Lbar"], [1, -1, 0, 0])


def test_m_L_Lbar_is_minus_two(rng):
    for pt in sample_points(rng, 50):
        fr = frame_at(pt[1:])
        assert _m(fr["L"], fr["Lbar"]) == pytest.approx(-2.0, abs=1e-12)


def test_invariant_table():
    fr = frame_at((0.6, 0.8, 0.0))
    table = {
        ("L", "L"): 0.0, ("Lbar", "Lbar"): 0.0, ("L", "Lbar"): -2.0,
        ("e1", "e1"): 1.0, ("e2", "e2"): 1.0, ("e1", "e2"): 0.0,
        ("L", "e1"): 0.0, ("L", "e2"): 0.0, ("Lbar", "e1"): 0.0,
        ("Lbar", "e2"): 0.0,
    }
    for (a, b), want in table.items():
        got = _m(fr[a], fr[b])
        assert got == pytest.approx(want, abs=1e-12)


def test_orthogonality_everywhere(rng):
    for pt in sample_points(rng, 200, rmin=0.05):
        fr = frame_at(pt[1:])
        assert abs(_m(fr["L"], fr["L"])) <= 1e-12
        assert abs(_m(fr["Lbar"], fr["Lbar"])) <= 1e-12
        assert abs(_m(fr["L"], fr["e1"])) <= 1e-12
        assert abs(_m(fr["Lbar"], fr["e2"])) <= 1e-12
        assert abs(_m(fr["e1"], fr["e2"])) <= 1e-12
        assert _m(fr["e1"], fr["e1"]) == pytest.approx(1.0, abs=1e-12)


def test_L_combinations_exact(rng):
    for pt in sample_points(rng, 20):
        fr = frame_at(pt[1:])
        xhat = pt[1:] / fr["r"]
        assert np.array_equal(fr["L"] + fr["Lbar"], np.array([2.0, 0, 0, 0]))
        # L - Lbar = 2 d_r componentwise
        dr = np.zeros(4)
        dr[1:] = xhat
        assert np.allclose(fr["L"] - fr["Lbar"], 2 * dr, atol=0)


def test_chart_consistency(rng):
    # Where both sphere charts are valid the tangent-plane projector agrees.
    for pt in sample_points(rng, 60, rmin=0.3):
        xhat = pt[1:] / np.linalg.norm(pt[1:])
        if abs(xhat[2]) > 0.85 or abs(xhat[0]) > 0.85:
            continue
        Pz = np.zeros((3, 3))
        Px = np.zeros((3, 3))
        for chart, target in (("z", Pz), ("x", Px)):
            fr = null_frame_at(Point(0.0, tuple(pt[1:])), chart)
            for e in (fr.e1, fr.e2):
                target += np.outer(e[1:], e[1:])
        assert np.max(np.abs(Pz - Px)) <= 1e-12
        assert np.max(np.abs(Pz - sphere_projector(pt[1:]))) <= 1e-12


def test_pole_degenerate():
    # the frame is undefined at the origin: its exact-lane consumers raise
    pts = np.array([[1.0, 2.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    e1 = frame_arrays(pts[:, 1], pts[:, 2], pts[:, 3])["e1"][1:]
    for rep in (lambda: rotation_representation(e1, pts),
                lambda: boost_representation(e1, 0, pts)):
        with pytest.raises(PoleDegenerate):
            rep()


def test_frame_component_examples():
    fr = frame_at((0.0, 0.0, 2.0))
    assert frame_component(MINKOWSKI, fr["L"], fr["L"]) == pytest.approx(0.0, abs=1e-14)
    assert frame_component(MINKOWSKI, fr["L"], fr["Lbar"]) == pytest.approx(-2.0)


def test_frame_component_brute_force(rng):
    e1 = frame_at((0.0, 0.0, 2.0))["e1"]
    T = rng.normal(size=(4, 4))
    T = T + T.T
    want = sum(e1[a] * e1[b] * T[a, b] for a in range(4) for b in range(4))
    assert frame_component(T, e1, e1) == pytest.approx(want, rel=1e-13)


def test_frame_component_rank_mismatch():
    with pytest.raises(RankMismatch):
        frame_component(np.zeros(3), np.ones(4))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 9999))
def test_frame_component_multilinear(seed):
    r = np.random.default_rng(seed)
    T, S = r.normal(size=(4, 4)), r.normal(size=(4, 4))
    a, b = r.normal(), r.normal()
    fr = frame_at(r.normal(size=3) + 2.0)
    L, e1 = fr["L"], fr["e1"]
    lhs = frame_component(a * T + b * S, L, e1)
    rhs = a * frame_component(T, L, e1) + b * frame_component(S, L, e1)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_raise_lower():
    assert np.array_equal(lower_index([1, 0, 0, 0]), [-1, 0, 0, 0])
    v = np.array([0.3, -1.2, 0.5, 2.0])
    assert np.array_equal(raise_index(lower_index(v)), v)


def test_mixed_component_via_frame_coefficients():
    # coefficient of Lbar in the frame expansion of d_t is 1/2
    fr = frame_at((0.3, -1.0, 0.4))
    c = frame_coefficients([1.0, 0, 0, 0], fr)
    assert c["Lbar"] == pytest.approx(0.5, abs=1e-14)
    assert c["L"] == pytest.approx(0.5, abs=1e-14)


def test_frobenius_norm():
    assert frobenius_norm(np.zeros((4, 4))) == 0.0
    assert frobenius_norm(MINKOWSKI) == pytest.approx(2.0)
    T = np.arange(32, dtype=float).reshape(4, 4, 2)  # two channels
    assert frobenius_norm(T) == pytest.approx(np.sqrt((T ** 2).sum()))


def test_frame_arrays_match_pointwise(rng):
    # against the pointwise frame of the oracles
    pts = sample_points(rng, 30, rmin=0.2)
    fr = frame_arrays(pts[:, 1], pts[:, 2], pts[:, 3])
    for k, pt in enumerate(pts):
        single = null_frame_at(Point(pt[0], tuple(pt[1:])))
        for name in ("L", "Lbar", "e1", "e2"):
            assert np.allclose(fr[name][:, k], single.by_name(name), atol=1e-13)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and \
        np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("N", [12, 24, 33])
@pytest.mark.parametrize("chart", ["auto", "z", "x"])
def test_frame_halves_bit_identical_to_one_piece_frame_arrays(N, chart):
    """frame_arrays against the one-piece frame (its oracle) in the chart
    the polar-cap rule picks at each node ("auto"), and against the frame
    of one forced chart on the nodes where the rule picks that chart."""
    # cell centres of an N-cell cube; odd N puts a node at the origin (r = 0)
    axis = -4.0 + (np.arange(N) + 0.5) * (8.0 / N)
    mesh = np.meshgrid(axis, axis, axis, indexing="ij")
    got, want = frame_arrays(*mesh), frame_arrays_in_chart(*mesh, chart)
    assert got.keys() == want.keys()
    cap = np.abs(want["L"][3]) > POLAR_CAP
    nodes = {"auto": np.ones_like(cap), "z": ~cap, "x": cap}[chart]
    assert np.any(cap) and np.any(~cap)               # both charts in use
    for name in want:
        assert _same_bits(got[name][..., nodes], want[name][..., nodes]), name
    if N % 2:
        assert np.count_nonzero(want["r"] == 0.0) == 1
