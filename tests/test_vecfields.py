import numpy as np
import pytest

from framewave.errors import PoleDegenerate, TimeZero
from framewave.fields import PolyField
from framewave.geometry import MINKOWSKI, Point
from framewave.poly import Poly, RadPoly, random_poly
from framewave.vecfields import (GENERATORS, SCALING, TRANSLATIONS, VectorFieldId,
                                 apply_representation, apply_to_scalar, as_field,
                                 commutator, jacobi_residual, lie_derivative,
                                 lie_lattice, lie_minkowski_inverse_factor, lie_multi,
                                 measure_decay_constants, parse_generator,
                                 parse_multi_index, restricted_derivative_as_Z,
                                 restricted_derivative_direct, splittings,
                                 subsequences)
from conftest import sample_points


def _mink_field(variance):
    f = PolyField.zero(rank=2, variance=variance)
    for mu in range(4):
        f.comps[mu, mu, 0] = Poly.const(int(MINKOWSKI[mu, mu]))
    return f


def test_as_field_examples():
    S = as_field(SCALING)
    assert [S.comps[mu, 0] for mu in range(4)] == [Poly.var(m) for m in range(4)]
    Z12 = as_field(VectorFieldId("Z", 1, 2))
    assert Z12.comps[0, 0].is_zero() and Z12.comps[3, 0].is_zero()
    assert Z12.comps[1, 0] == Poly.var(2)
    assert Z12.comps[2, 0] == -Poly.var(1)
    # lowering convention x_0 = -t pins the boost components
    Z01 = as_field(VectorFieldId("Z", 0, 1))
    assert Z01.comps[0, 0] == Poly.var(1)
    assert Z01.comps[1, 0] == Poly.var(0)


def test_eleven_generators():
    assert len(GENERATORS) == 11
    assert len({g.name for g in GENERATORS}) == 11


def test_lie_time_independent_killed_by_Pt(rng):
    T = PolyField.random(rng, rank=1, channels=2, degree=3, time_dependent=False)
    out = lie_derivative(TRANSLATIONS[0], T)
    assert all(out.comps[i].is_zero() for i in np.ndindex(out.shape))


def test_lie_scaling_of_metric():
    out = lie_derivative(SCALING, _mink_field(("d", "d")))
    for mu in range(4):
        for nu in range(4):
            want = Poly.const(2 * int(MINKOWSKI[mu, nu])) if mu == nu else Poly.zero()
            assert out.comps[mu, nu, 0] == want


def test_rotations_are_killing():
    for g in GENERATORS:
        if g.kind == "Z" or g.kind == "P":
            out = lie_derivative(g, _mink_field(("d", "d")))
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
    if isinstance(a, RadPoly):
        return (isinstance(b, RadPoly) and list(a.terms) == list(b.terms)
                and all(_same_scalar(a.terms[k], b.terms[k]) for k in a.terms))
    return isinstance(b, Poly) and list(a.c.items()) == list(b.c.items())


@pytest.mark.parametrize("rank, variance", [(0, ()), (1, ("u",)), (2, ("u", "d")),
                                            (2, ("d", "u"))])
def test_lie_lattice_matches_lie_multi(rng, rank, variance):
    T = PolyField.random(rng, rank=rank, channels=2, degree=2, nterms=3,
                         variance=variance)
    if rank == 0:  # a radial scalar, as the projected frame components are
        T = PolyField.scalar([p * RadPoly({(1, 0, 0): Poly.var(1)}) for p in T.comps])
    I = (VectorFieldId("Z", 1, 3), SCALING, TRANSLATIONS[2])
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
    out = commutator(VectorFieldId("Z", 1, 2), VectorFieldId("Z", 2, 3))
    assert out == {VectorFieldId("Z", 1, 3): -1}
    # [Z, d_mu] is a combination of translations only
    out = commutator(VectorFieldId("Z", 0, 1), TRANSLATIONS[0])
    assert all(g.kind == "P" for g in out)


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
    assert jacobi_residual() == 0


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
    rr = RadPoly({(1, 0, 0): Poly.var(1) * Poly.var(1)
                  + Poly.var(2) * Poly.var(2) + Poly.var(3) * Poly.var(3)})
    p = Point(1.0, (0.7, -0.4, 1.1))
    for i in (1, 2, 3):
        rot, boost = restricted_derivative_as_Z(i, p)
        assert apply_representation(rot, rr, p) == pytest.approx(0.0, abs=1e-12)
        assert apply_representation(boost, rr, p) == pytest.approx(0.0, abs=1e-12)


def test_restricted_derivative_example():
    p = Point(2.0, (0.0, 3.0, 0.0))
    F = Poly.var(1)  # x1
    want = restricted_derivative_direct(1, F, p)
    assert want == pytest.approx(1.0)
    rot, boost = restricted_derivative_as_Z(1, p)
    assert apply_representation(rot, F, p) == pytest.approx(1.0, abs=1e-12)
    assert apply_representation(boost, F, p) == pytest.approx(1.0, abs=1e-12)


def test_restricted_derivative_cross_agreement(rng):
    F = random_poly(rng, degree=3, nterms=5)
    for pt in sample_points(rng, 30):
        if abs(pt[0]) < 0.2:
            continue
        p = Point(pt[0], tuple(pt[1:]))
        for i in (1, 2, 3):
            rot, boost = restricted_derivative_as_Z(i, p)
            a = apply_representation(rot, F, p)
            b = apply_representation(boost, F, p)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_restricted_derivative_errors():
    with pytest.raises(PoleDegenerate):
        restricted_derivative_as_Z(1, Point(1.0, (0.0, 0.0, 0.0)))
    with pytest.raises(TimeZero):
        restricted_derivative_as_Z(1, Point(0.0, (1.0, 0.0, 0.0)))


def test_generator_grammar():
    assert parse_generator("S") == SCALING
    assert parse_generator("Z01") == VectorFieldId("Z", 0, 1)
    assert parse_generator("P t") == TRANSLATIONS[0]
    assert parse_generator("Px2") == TRANSLATIONS[2]
    assert parse_generator("P 3") == TRANSLATIONS[3]
    assert parse_multi_index("S,Z01,P t") == (SCALING, VectorFieldId("Z", 0, 1),
                                              TRANSLATIONS[0])
    assert parse_multi_index("") == ()
    with pytest.raises(ValueError):
        parse_generator("Z10")
    with pytest.raises(ValueError):
        parse_generator("Q")


def test_minkowski_inverse_factors():
    assert lie_minkowski_inverse_factor(()) == 1
    assert lie_minkowski_inverse_factor((SCALING,)) == -2
    assert lie_minkowski_inverse_factor((SCALING, SCALING)) == 4
    assert lie_minkowski_inverse_factor((VectorFieldId("Z", 1, 2),)) == 0
    assert lie_minkowski_inverse_factor((SCALING, TRANSLATIONS[2])) == 0


def test_decay_constants_small(rng):
    phi = PolyField.random(rng, rank=1, channels=1, degree=3, nterms=4)
    pts = sample_points(rng, 150, tmin=1.0, tmax=4.0, box=4.0, rmin=0.3)
    c_full, c_tang = measure_decay_constants(phi, (), pts)
    assert 0 < c_full <= 10.0
    assert 0 < c_tang <= 10.0
