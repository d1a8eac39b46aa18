import itertools
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framewave import vecfields
from framewave.errors import ExponentOverflow, NotProportional, PoleDegenerate, TimeZero
from framewave.estimates import c_hat
from framewave.fields import PolyField
from framewave.geometry import MINKOWSKI
from framewave.poly import MAX_EXPONENT, R_INV, GaussPoly, Poly, pack, random_poly, unpack
from framewave.vecfields import (GENERATORS, SCALING, TRANSLATIONS, Generator,
                                 apply_representation, apply_to_scalar, commutator,
                                 jacobi_residual, lie_derivative, lie_lattice, lie_multi,
                                 measure_decay_constants, parse_generator,
                                 parse_multi_index, restricted_derivative_as_Z,
                                 restricted_derivative_direct, splittings,
                                 subsequences)
from conftest import exact_scalars, sample_points
import oracles
from oracles import (TuplePoly, as_field, same_terms, tuple_apply_to_scalar,
                     tuple_lie_derivative)


def _mink_field():
    """m_{ab}, covariant."""
    f = PolyField.zero(rank=2)
    for mu in range(4):
        f.comps[mu, mu, 0] = Poly.const(int(MINKOWSKI[mu, mu]))
    return f


def test_as_field_examples():
    S = as_field(SCALING)
    assert [S.comps[mu, 0] for mu in range(4)] == [Poly.var(m) for m in range(4)]
    Z12 = as_field(parse_generator("Z12"))
    assert Z12.comps[0, 0].is_zero() and Z12.comps[3, 0].is_zero()
    assert Z12.comps[1, 0] == Poly.var(2)
    assert Z12.comps[2, 0] == -Poly.var(1)
    # lowering convention x_0 = -t pins the boost components
    Z01 = as_field(parse_generator("Z01"))
    assert Z01.comps[0, 0] == Poly.var(1)
    assert Z01.comps[1, 0] == Poly.var(0)


def test_generator_table_is_the_hand_written_field():
    # every form a generator carries: the components, the augmented matrix
    # [[0, 0], [z, J]], the covariant slot terms of J and the
    # monomial-action triples
    for gen in GENERATORS:
        want = [as_field(gen).comps[mu, 0] for mu in range(4)]
        got = [Poly.zero()] * 4
        for lam, mu, coeff in gen.components:
            got[lam] = (Poly.const(1) if mu is None else Poly.var(mu)) * coeff
        assert got == want, gen
        M = gen.affine
        assert all(M[0, k] == 0 for k in range(5)), gen
        J = [[want[lam].diff(mu) for mu in range(4)] for lam in range(4)]
        for lam in range(4):
            assert want[lam].c.get(0, 0) == M[1 + lam, 0], gen
            for mu in range(4):
                assert J[lam][mu] == Poly.const(M[1 + lam, 1 + mu]), gen
        for mu in range(4):
            d = gen.slot_terms[mu]
            assert all(isinstance(coeff, np.integer) for _, coeff in d), gen
            assert [(lam, Poly.const(coeff)) for lam, coeff in d] == [
                (lam, J[lam][mu]) for lam in range(4) if not J[lam][mu].is_zero()], gen
        assert [(lam, Poly({key: coeff})) for lam, key, coeff in gen.action] == [
            (lam, p) for lam, p in enumerate(want) if not p.is_zero()], gen


def test_eleven_generators():
    assert len(GENERATORS) == 11
    assert len({g.name for g in GENERATORS}) == 11


def test_lie_time_independent_killed_by_Pt(rng):
    T = PolyField.random(rng, rank=1, channels=2, degree=3, time_dependent=False)
    out = lie_derivative(TRANSLATIONS[0], T)
    assert all(out.comps[i].is_zero() for i in np.ndindex(out.shape))


def test_lie_scaling_of_metric():
    out = lie_derivative(SCALING, _mink_field())
    for mu in range(4):
        for nu in range(4):
            want = Poly.const(2 * int(MINKOWSKI[mu, nu])) if mu == nu else Poly.zero()
            assert out.comps[mu, nu, 0] == want


def test_rotations_are_killing():
    for g in GENERATORS:
        if g is not SCALING:
            out = lie_derivative(g, _mink_field())
            assert all(out.comps[i].is_zero() for i in np.ndindex(out.shape)), g


def test_leibniz_rule_exact(rng):
    for gen in GENERATORS:
        F = random_poly(rng, degree=3, nterms=4)
        G = random_poly(rng, degree=2, nterms=3)
        lhs = apply_to_scalar(gen, F * G)
        rhs = apply_to_scalar(gen, F) * G + F * apply_to_scalar(gen, G)
        assert (lhs - rhs).is_zero()


def _same_scalar(a, b):
    """Equal exact scalars, monomials in the same order (the order fixes
    the float arithmetic of every later evaluation)."""
    return isinstance(b, Poly) and list(a.c.items()) == list(b.c.items())


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_lie_lattice_matches_lie_multi(rng, rank):
    T = PolyField.random(rng, rank=rank, channels=2, degree=2, nterms=3)
    if rank == 0:  # a radial scalar, as the projected frame components are
        T = PolyField.scalar([p * Poly.var(1) * R_INV for p in T.comps])
    I = (parse_generator("Z13"), SCALING, TRANSLATIONS[2])
    subs = subsequences(I)
    seqs = subs + [s + (g,) for s in subs if len(s) < len(I) for g in GENERATORS]
    lattice = lie_lattice(seqs, {(): T})
    for s in seqs:
        want = lie_multi(s, T)
        assert all(_same_scalar(lattice[s].comps[i], want.comps[i])
                   for i in np.ndindex(T.shape)), s
    # extending a lattice keeps its entries and builds only what is missing
    kept = dict(lattice)
    assert lie_lattice([I, (SCALING, GENERATORS[0])], lattice) is lattice
    assert all(lattice[s] is kept[s] for s in kept)


def test_lie_multi_examples(rng):
    T = PolyField.random(rng, rank=1, channels=1, degree=2)
    assert lie_multi((), T) is T
    f = PolyField.scalar(Poly.var(0) * Poly.var(1))
    out = lie_multi((SCALING, SCALING), f)
    assert out.comps[0] == Poly.var(0) * Poly.var(1) * 4
    I = (GENERATORS[4], SCALING)
    a = lie_multi(I, T)
    b = lie_derivative(I[0], lie_derivative(I[1], T))
    assert all((a.comps[i] - b.comps[i]).is_zero() for i in np.ndindex(a.shape))


def test_lie_commutes_with_gradient(rng):
    # the slotwise statement: L_Z(grad T) = grad(L_Z T), exact for every
    # generator (coefficients are affine so their Hessians vanish)
    for gen in GENERATORS:
        for rank in (0, 1):
            T = PolyField.random(rng, rank=rank, channels=1, degree=3)
            lhs = lie_derivative(gen, T.gradient())
            rhs = lie_derivative(gen, T).gradient()
            assert all((lhs.comps[i] - rhs.comps[i]).is_zero()
                       for i in np.ndindex(lhs.shape)), gen


def test_componentwise_transport_correction(rng):
    # Z(d_mu f) = d_mu(Z f) + [Z, d_mu] f with the correction read off the
    # commutator table, exactly
    f = random_poly(rng, degree=3, nterms=5)
    for gen in GENERATORS:
        for mu in range(4):
            lhs = apply_to_scalar(gen, f.diff(mu))
            corr = Poly.zero()
            for g2, coeff in commutator(gen, TRANSLATIONS[mu]).items():
                corr = corr + apply_to_scalar(g2, f) * coeff
            rhs = apply_to_scalar(gen, f).diff(mu) + corr
            assert (lhs - rhs).is_zero(), (gen, mu)


def test_commutator_examples():
    assert commutator(SCALING, TRANSLATIONS[0]) == {TRANSLATIONS[0]: -1}
    assert commutator(TRANSLATIONS[0], TRANSLATIONS[1]) == {}
    out = commutator(parse_generator("Z12"), parse_generator("Z23"))
    assert out == {parse_generator("Z13"): -1}
    # [Z, d_mu] is a combination of translations only
    out = commutator(parse_generator("Z01"), TRANSLATIONS[0])
    assert out and all(g in TRANSLATIONS for g in out)


def test_commutator_polynomial_oracle(rng):
    # [Z1, Z2] f == Z1(Z2 f) - Z2(Z1 f) for random scalars
    f = random_poly(rng, degree=3, nterms=5)
    for _ in range(20):
        i, j = rng.integers(0, 11, size=2)
        z1, z2 = GENERATORS[i], GENERATORS[j]
        direct = apply_to_scalar(z1, apply_to_scalar(z2, f)) - apply_to_scalar(
            z2, apply_to_scalar(z1, f))
        recon = Poly.zero()
        for gen, coeff in commutator(z1, z2).items():
            recon = recon + apply_to_scalar(gen, f) * coeff
        assert (direct - recon).is_zero()


def test_jacobi_all_triples():
    # each of the 119 distinct ordered brackets the 165 triples read is
    # computed once
    commutator.cache_clear()
    assert jacobi_residual() == 0
    assert commutator.cache_info().misses == 119


def test_splitting_counts():
    I = (SCALING, TRANSLATIONS[1], GENERATORS[6])
    assert len(splittings(I, 2)) == 2 ** 3
    assert len(splittings(I, 4)) == 4 ** 3
    assert () in subsequences(I) and I in subsequences(I)
    parts = splittings(I, 2)[5]
    assert tuple(x for x in I if x in parts[0] or x in parts[1])  # order kept


def test_ordered_splittings_against_brute_force_leibniz(rng):
    # the enumeration must reproduce the iterated Leibniz expansion exactly
    from framewave.fields import PolyField

    for k in (1, 2, 3):
        I = tuple(GENERATORS[i] for i in rng.integers(0, 11, size=k))
        A = random_poly(rng, degree=2, nterms=3)
        B = random_poly(rng, degree=2, nterms=3)
        lhs = lie_multi(I, PolyField.scalar(A * B)).comps[0]
        rhs = Poly.zero()
        for I1, I2 in splittings(I, 2):
            rhs = rhs + (lie_multi(I1, PolyField.scalar(A)).comps[0]
                         * lie_multi(I2, PolyField.scalar(B)).comps[0])
        assert (lhs - rhs).is_zero(), I
        # four-factor products drive the nested splittings of the expansion
        C = random_poly(rng, degree=1, nterms=2)
        D = random_poly(rng, degree=1, nterms=2)
        lhs4 = lie_multi(I, PolyField.scalar(A * B * C * D)).comps[0]
        rhs4 = Poly.zero()
        for I1, I2, I3, I4 in splittings(I, 4):
            rhs4 = rhs4 + (lie_multi(I1, PolyField.scalar(A)).comps[0]
                           * lie_multi(I2, PolyField.scalar(B)).comps[0]
                           * lie_multi(I3, PolyField.scalar(C)).comps[0]
                           * lie_multi(I4, PolyField.scalar(D)).comps[0])
        assert (lhs4 - rhs4).is_zero(), I


def test_restricted_derivative_radial_annihilation():
    # r = (x.x) / r as an exact radial scalar; slash-d_i r = 0
    rr = (Poly.var(1) * Poly.var(1) + Poly.var(2) * Poly.var(2)
          + Poly.var(3) * Poly.var(3)) * R_INV
    p = np.array([[1.0, 0.7, -0.4, 1.1]])
    for i in (1, 2, 3):
        rot, boost = restricted_derivative_as_Z(i, p)
        assert apply_representation(rot, rr, p) == pytest.approx(0.0, abs=1e-12)
        assert apply_representation(boost, rr, p) == pytest.approx(0.0, abs=1e-12)


def test_restricted_derivative_example():
    p = np.array([[2.0, 0.0, 3.0, 0.0]])
    F = Poly.var(1)  # x1
    want = restricted_derivative_direct(1, F, p)
    assert want == pytest.approx(1.0)
    rot, boost = restricted_derivative_as_Z(1, p)
    assert apply_representation(rot, F, p) == pytest.approx(1.0, abs=1e-12)
    assert apply_representation(boost, F, p) == pytest.approx(1.0, abs=1e-12)


def test_restricted_derivative_cross_agreement(rng):
    F = random_poly(rng, degree=3, nterms=5)
    pts = sample_points(rng, 30)
    pts = pts[np.abs(pts[:, 0]) >= 0.2]
    for i in (1, 2, 3):
        rot, boost = restricted_derivative_as_Z(i, pts)
        a = apply_representation(rot, F, pts)
        b = apply_representation(boost, F, pts)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_restricted_derivative_errors():
    with pytest.raises(PoleDegenerate):
        restricted_derivative_as_Z(1, np.array([[1.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(TimeZero):
        restricted_derivative_as_Z(1, np.array([[0.0, 1.0, 0.0, 0.0]]))


def test_generator_grammar():
    assert parse_generator("S") is SCALING
    assert parse_generator(" Z01 ") is GENERATORS[4]
    for token, axis in (("P t", 0), ("Pt", 0), ("P_x1", 1), ("Px2", 2), ("P 3", 3),
                        ("P_0", 0)):
        assert parse_generator(token) is TRANSLATIONS[axis], token
    assert parse_multi_index("S,Z01,P t") == (SCALING, GENERATORS[4], TRANSLATIONS[0])
    assert parse_multi_index("") == ()
    for token in ("Z10", "Z00", "Z 01", "Z014", "Q", "P", "P4", "P x4", "Px", "PPt", "P_ t",
                  "s", ""):
        with pytest.raises(ValueError):
            parse_generator(token)


def test_generators_are_the_only_instances():
    assert [g.name for g in GENERATORS] == ["Pt", "Px1", "Px2", "Px3", "Z01", "Z02", "Z03",
                                            "Z12", "Z13", "Z23", "S"]
    for g in GENERATORS:
        assert parse_generator(g.name) is g
        assert pickle.loads(pickle.dumps(g)) is g
    assert pickle.loads(pickle.dumps({GENERATORS[5]: 1})) == {GENERATORS[5]: 1}
    # equality is identity: a second object with the same components is another field
    twin = Generator("S", SCALING.components)
    assert twin != SCALING and len({twin, SCALING}) == 2


def test_metric_factor_needs_a_conformal_killing_field():
    assert [g.c for g in GENERATORS] == [0] * 10 + [-2]
    with pytest.raises(NotProportional):
        Generator("X", ((1, 2, 1),))     # Z^1 = x^2 is no conformal Killing field
    with pytest.raises(NotProportional):
        Generator("T", ((0, 0, 1),))     # t d_t scales m^00 only


def test_minkowski_inverse_factors():
    # c_hat(I), the product of the generators' factors, against the exact
    # Lie derivative of m^{-1} for every multi-index with |I| <= 3
    assert c_hat(()) == 1
    assert c_hat((SCALING, SCALING)) == 4
    assert c_hat((SCALING, TRANSLATIONS[2])) == 0
    for k in range(4):
        for I in itertools.product(GENERATORS, repeat=k):
            want = oracles.minkowski_inverse_factor(I)
            got = c_hat(I)
            assert got == want and bool(got) == bool(want), I


def test_decay_constants_small(rng):
    phi = PolyField.random(rng, rank=1, channels=1, degree=3, nterms=4)
    pts = sample_points(rng, 150, tmin=1.0, tmax=4.0, box=4.0, rmin=0.3)
    ((c_full, c_tang),) = measure_decay_constants(phi, [()], pts)
    assert 0 < c_full <= 10.0
    assert 0 < c_tang <= 10.0


def test_decay_sum_builds_each_lie_derivative_once(rng, monkeypatch):
    # I = () and I = (g,) from one lattice of order 2: 11 + 11^2 Lie
    # derivatives, where a lattice per multi-index and lie_multi for
    # L_{Z^I} phi took 11 + (11 + 11^2 + 1); the constants are the
    # per-index ones bit for bit, and so is a from-scratch right-hand side
    phi = PolyField.random(rng, rank=1, channels=1, degree=3, nterms=4)
    pts = sample_points(rng, 50, tmin=1.0, tmax=4.0, box=4.0, rmin=0.3)
    Is = [(), (GENERATORS[6],)]
    want = [oracles.measure_decay_constants(phi, I, pts) for I in Is]
    scratch = np.zeros(len(pts))
    for J in [()] + [J for k in (1, 2) for J in itertools.product(GENERATORS, repeat=k)]:
        scratch += np.sqrt(np.sum(lie_multi(J, phi).eval(pts) ** 2, axis=(1, 2)))
    assert np.array_equal(oracles.decay_rhs_sum(phi, 2, pts), scratch)
    calls = []
    lie = vecfields.lie_derivative
    monkeypatch.setattr(vecfields, "lie_derivative", lambda g, T: calls.append(g) or lie(g, T))
    assert measure_decay_constants(phi, Is, pts) == want
    assert len(calls) == 11 + 11 ** 2


@settings(max_examples=100, deadline=None)
@given(f=exact_scalars)
def test_generator_action_keeps_the_tuple_key_dict_order(f):
    """The one-pass action of every generator builds the dict, in the same
    order, that summing Z^mu * d_mu f over the components built."""
    tf = TuplePoly.of(f)
    for gen in GENERATORS:
        assert same_terms(apply_to_scalar(gen, f), tuple_apply_to_scalar(gen, tf)), gen


def test_generator_action_reinserts_a_cancelled_monomial_last():
    """S f: the x1^2 x2^2 x3^2 r^-5 term of x1 d1 f cancels against x2 d2 f
    and comes back with x3 d3 f, at the end of the dict."""
    f = Poly({pack((0, 0, 2, 2, 3, 0)): 1, pack((0, 2, 0, 2, 3, 0)): -1,
              pack((0, 2, 2, 0, 3, 0)): 1})
    sf = apply_to_scalar(SCALING, f)
    assert same_terms(sf, tuple_apply_to_scalar(SCALING, TuplePoly.of(f)))
    assert unpack(list(sf.c)[-1]) == (0, 2, 2, 2, 5, 0)


@settings(max_examples=15, deadline=None)
@given(comps=st.lists(exact_scalars, min_size=32, max_size=32),
       rank=st.sampled_from([1, 2]))
def test_lie_derivative_keeps_the_tuple_key_dict_order(comps, rank):
    T = PolyField.zero(rank=rank, channels=2)
    tcomps = np.empty(T.shape, dtype=object)
    for idx, p in zip(np.ndindex(T.shape), comps):
        T.comps[idx], tcomps[idx] = p, TuplePoly.of(p)
    for gen in GENERATORS:
        got, want = lie_derivative(gen, T), tuple_lie_derivative(gen, tcomps, ("d",) * rank)
        assert all(same_terms(got.comps[i], want[i]) for i in np.ndindex(T.shape)), gen


def test_generator_action_on_gausspoly_matches_its_diff(rng):
    """A GaussPoly takes the diff-multiply-add route: Z(g) at points is
    sum_mu Z^mu (d_mu g), with d_mu g from GaussPoly.diff."""
    g = GaussPoly(random_poly(rng, degree=3, nterms=5) * Fraction(1, 2) + R_INV,
                  center=(0.3, -0.2, 0.5), sigma=1.2)
    pts = sample_points(rng, 30, rmin=0.5)
    diffs = [g.diff(mu).eval_many(pts) for mu in range(4)]
    for gen in GENERATORS:
        zg = apply_to_scalar(gen, g)
        assert isinstance(zg, GaussPoly) and (zg.center, zg.sigma) == (g.center, g.sigma)
        field = as_field(gen)
        want = sum(field.comps[mu, 0].eval_many(pts) * diffs[mu] for mu in range(4))
        np.testing.assert_allclose(zg.eval_many(pts), want, rtol=1e-12, atol=1e-12)


def test_generator_action_overflow_raises():
    # Z12 = x2 d1 - x1 d2 on x1 x2^127 makes x2^128
    f = Poly({pack((0, 1, MAX_EXPONENT, 0, 0, 0)): 1})
    with pytest.raises(ExponentOverflow):
        apply_to_scalar(parse_generator("Z12"), f)
    assert apply_to_scalar(SCALING, f) == f * (MAX_EXPONENT + 1)
