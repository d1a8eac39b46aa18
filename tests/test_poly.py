from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framewave import poly as poly_mod
from framewave.fields import PolyField
from framewave.errors import ExponentOverflow
from framewave.poly import (MAX_EXPONENT, R_INV, RHO12_INV, GaussPoly, Poly, measure_order,
                            pack, random_poly, unpack)
from conftest import exact_scalars
from oracles import TuplePoly, random_poly_int_keys, same_terms


def test_basic_arithmetic_and_diff():
    t, x1 = Poly.var(0), Poly.var(1)
    p = t * x1
    assert p.diff(0) == x1
    assert p.diff(1) == t
    assert (p - p).is_zero()
    assert (p * 0).is_zero()
    assert [unpack(k) for k in p.c] == [(1, 1, 0, 0, 0, 0)]
    q = (t + 1) * (t - 1)
    assert q == t * t - 1


def test_eval_matches_horner(rng):
    p = random_poly(rng, degree=3, nterms=6)
    pts = rng.uniform(-2, 2, size=(50, 4))
    vals = p.eval_many(pts)
    for k in range(50):
        expected = sum(
            float(c) * np.prod([pts[k, a] ** e for a, e in enumerate(unpack(key)[:4])])
            for key, c in p.c.items()
        )
        assert vals[k] == pytest.approx(expected, rel=1e-13, abs=1e-13)


def _radii(a, b):
    """r^-a rho12^-b as an exact scalar."""
    return Poly({pack((0, 0, 0, 0, a, b)): 1})


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), mu=st.integers(0, 3), nu=st.integers(0, 3),
       radii=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
                      max_size=3))
def test_mixed_partials_commute_exactly(seed, mu, nu, radii):
    # polynomials times powers of 1/r and 1/rho12: the chain rule is a
    # derivation of the free ring, so the mixed partials agree as dicts
    rng = np.random.default_rng(seed)
    p = Poly()
    for a, b in radii:
        p = p + random_poly(rng, degree=4, nterms=6) * _radii(a, b)
    assert (p.diff(mu).diff(nu) - p.diff(nu).diff(mu)).is_zero()


def test_radical_derivatives(rng):
    # d_i (x_j / r) and d_i (x_j / rho12) against high-accuracy finite differences
    pts = rng.uniform(0.5, 2.0, size=(20, 4))
    for j, radius in [(j, R_INV) for j in (1, 2, 3)] + [(j, RHO12_INV) for j in (1, 2)]:
        f = Poly.var(j) * radius
        for i in (1, 2, 3):
            df = f.diff(i)
            h = 1e-5
            for pt in pts:
                up, dn = pt.copy(), pt.copy()
                up[i] += h
                dn[i] -= h
                fd = (f(up) - f(dn)) / (2 * h)
                assert df(pt) == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_radical_ring_closure(rng):
    a = random_poly(rng, degree=2, nterms=3) * _radii(1, 1)
    b = random_poly(rng, degree=1, nterms=2) * _radii(0, 2)
    prod = a * b
    assert {unpack(k)[4:] for k in prod.c} <= {(1, 3)}
    s = a + b
    pts = rng.uniform(0.6, 2.0, size=(10, 4))
    assert np.allclose(s.eval_many(pts), a.eval_many(pts) + b.eval_many(pts))
    d = prod.diff(2)
    h = 1e-5
    pt = np.array([1.0, 1.1, 0.9, 1.3])
    up, dn = pt.copy(), pt.copy()
    up[2] += h
    dn[2] -= h
    assert d(pt) == pytest.approx((prod(up) - prod(dn)) / (2 * h), rel=1e-6)


def test_gausspoly_closed_under_diff():
    g = GaussPoly(Poly.var(0) + 2, center=(0.5, 0.0, -0.5), sigma=1.3)
    h = 1e-5
    pt = np.array([0.7, 0.4, -0.2, 0.3])
    for mu in range(4):
        up, dn = pt.copy(), pt.copy()
        up[mu] += h
        dn[mu] -= h
        fd = (g(up) - g(dn)) / (2 * h)
        assert g.diff(mu)(pt) == pytest.approx(fd, rel=1e-8, abs=1e-10)


def test_gausspoly_envelope_mismatch_rejected():
    a = GaussPoly(Poly.var(1), sigma=1.0)
    b = GaussPoly(Poly.var(1), sigma=2.0)
    with pytest.raises(ValueError):
        a + b


@pytest.mark.parametrize("opts", [{}, {"degree": 3, "nterms": 5}, {"degree": 1, "nterms": 2},
                                  {"degree": 3, "nterms": 4, "time_dependent": False}])
def test_random_poly_keeps_the_int_key_draws(opts):
    """Same draws, same keys of Python-int exponents in the same dict
    order, and the generator left in the same state after every draw."""
    for seed in range(50):
        new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got, want = random_poly(new_rng, **opts), random_poly_int_keys(old_rng, **opts)
            assert list(got.c.items()) == list(want.c.items())
            assert all(type(k) is int for k in got.c)
            assert new_rng.bit_generator.state == old_rng.bit_generator.state


def test_measure_order():
    hs = [0.1, 0.05, 0.025]
    errs = [h ** 2 for h in hs]
    assert measure_order(hs, errs) == pytest.approx(2.0, abs=1e-10)


def test_measure_order_needs_two_positive_errors():
    order = measure_order([0.1, 0.05, 0.025], [0.0, 0.0, 1e-3])
    assert np.isnan(order)
    assert not order >= 1.9


def _reference_eval(s, pts):
    """Per-monomial evaluation: (value, sum of |monomial terms|) at pts."""
    if isinstance(s, GaussPoly):
        val, mag = _reference_eval(s.poly, pts)
        env = s.envelope_many(pts)
        return val * env, mag * env
    radii = [np.sqrt(sum(pts[:, a] ** 2 for a in axes)) for axes in ((1, 2, 3), (1, 2))]
    val, mag = np.zeros(len(pts)), np.zeros(len(pts))
    for key, c in s.c.items():
        term = np.full(len(pts), float(c))
        exps = unpack(key)
        for ax, e in enumerate(exps[:4]):
            term = term * pts[:, ax] ** e
        for radius, e in zip(radii, exps[4:]):
            term = term / radius ** e
        val += term
        mag += np.abs(term)
    return val, mag


def _assert_matches_reference(got, scalar, pts):
    want, mag = _reference_eval(scalar, pts)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * mag)


@pytest.mark.parametrize("n", [1, 257])
@pytest.mark.parametrize("block", [None, 50])
def test_batched_eval_matches_per_monomial_reference(n, block, monkeypatch):
    # block=50 entries splits the points into many blocks, the last one partial
    if block is not None:
        monkeypatch.setattr(poly_mod, "_BLOCK_ENTRIES", block)
    rng = np.random.default_rng(2024)
    pts = rng.uniform(0.5, 2.0, size=(n, 4)) * rng.choice([-1.0, 1.0], size=(n, 4))
    polys = [random_poly(rng, degree=4, nterms=8) for _ in range(4)]
    rad = (polys[0] + polys[1] * _radii(1, 0) + polys[2] * _radii(2, 1)
           + polys[3] * Fraction(1, 3) * _radii(3, 2))
    scalars = polys + [rad, Poly(), Poly.const(2.5), Poly.const(Fraction(1, 3)),
                       _radii(0, 3)]
    for s in scalars:
        _assert_matches_reference(s.eval_many(pts), s, pts)
    g = GaussPoly(polys[0], center=(0.2, -0.1, 0.3), sigma=1.4)
    _assert_matches_reference(g.eval_many(pts), g, pts)
    for rank in (0, 1, 2):
        f = PolyField.random(rng, rank=rank, channels=3, degree=3, nterms=5)
        f.comps.flat[1] = Poly()  # a zero component among nonzero ones
        f.comps.flat[2] = rad
        vals = f.eval(pts)
        assert vals.shape == (n,) + f.shape
        for idx in np.ndindex(f.shape):
            _assert_matches_reference(vals[(slice(None),) + idx], f.comps[idx], pts)


@settings(max_examples=150, deadline=None)
@given(p=exact_scalars, q=exact_scalars, scale=st.sampled_from([-2, Fraction(1, 3), 0.05]))
def test_packed_arithmetic_keeps_the_tuple_key_dict_order(p, q, scale):
    """+, -, *, scaling and every diff build the dict, in the same order
    and with the same coefficients, that the exponent-tuple arithmetic
    built: dict order fixes the summation order of every evaluation."""
    tp, tq = TuplePoly.of(p), TuplePoly.of(q)
    pairs = [(p + q, tp + tq), (p - q, tp - tq), (p * q, tp * tq), (q * p, tq * tp),
             (p * scale, tp * scale), (p + 2, tp + 2), ((p + q) - p, (tp + tq) - tp)]
    pairs += [(p.diff(mu), tp.diff(mu)) for mu in range(4)]
    pairs += [((p * q).diff(mu), (tp * tq).diff(mu)) for mu in range(4)]
    for got, want in pairs:
        assert same_terms(got, want)


def test_exponent_127_fits():
    top = (MAX_EXPONENT,) * 6
    assert MAX_EXPONENT == 127 and unpack(pack(top)) == top
    p = Poly({pack((0, MAX_EXPONENT - 1, 0, 0, 0, 0)): 1}) * Poly.var(1)
    assert [unpack(k) for k in p.c] == [(0, MAX_EXPONENT, 0, 0, 0, 0)]


def test_exponent_128_raises_instead_of_carrying():
    """An exponent outside 0..127 raises ExponentOverflow, a FramewaveError
    (CLI exit 4), wherever it would arise."""
    for bad in [(128, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 128), (0, -1, 0, 0, 0, 0)]:
        with pytest.raises(ExponentOverflow):
            pack(bad)
    with pytest.raises(ExponentOverflow):
        Poly({1 << 7: 1})   # the guard bit of the rho12^-1 field
    with pytest.raises(ExponentOverflow):
        Poly({1 << 48: 1})   # beyond the six fields
    with pytest.raises(ExponentOverflow):
        Poly({pack((0, MAX_EXPONENT, 0, 0, 0, 0)): 1}) * Poly.var(1)
    with pytest.raises(TypeError):
        Poly({(0,) * 6: 1})


def test_chain_rule_raises_at_the_edge():
    # d_1 r^-125 = -125 x1 r^-127 fits; d_1 r^-126 = -126 x1 r^-128 does not
    d = _radii(MAX_EXPONENT - 2, 0).diff(1)
    assert [(unpack(k), v) for k, v in d.c.items()] == [((0, 1, 0, 0, 127, 0), -125)]
    with pytest.raises(ExponentOverflow):
        _radii(MAX_EXPONENT - 1, 0).diff(1)
    with pytest.raises(ExponentOverflow):   # x1^127 r^-1: the chain term x1^128 r^-3
        Poly({pack((0, MAX_EXPONENT, 0, 0, 1, 0)): 1}).diff(1)
