"""The 11 flat-spacetime symmetry vector fields and their Lie calculus.

Generators: 4 translations P_mu, 6 rotations/boosts Z_{ab} (a < b) with
Z_{ab} = x_b d_a - x_a d_b and the lowering convention x_0 = -t, and the
scaling S = t d_t + x^i d_i.  All coefficient functions are affine, so
second derivatives of the coefficients vanish and Lie derivatives commute
with coordinate Hessians on scalars -- the fact every exact identity in
:mod:`framewave.estimates` leans on.

Each generator is one ``Generator`` object, built once from its nonzero
components Z^lam = coeff * x^mu, and carries every form read from them:
the exact action on scalars, the slot terms of its Jacobian, the
augmented matrix of Z = c + J x that the commutators multiply, and its
metric factor c with L_Z m^{-1} = c m^{-1} (0 for the Killing fields P
and Z, -2 for S), computed from J.  The grid Lie step of
:mod:`framewave.estimates` reads the same components, and its chat(I) is
the product of the factors c along I.  Each bracket is computed once.

Multi-indices are ordered generator sequences; iterated Lie derivatives
apply the leftmost generator last (outermost).  A Lie lattice builds each
L_{Z^s} T once, from its suffix entry, and lives as long as its caller.
Ordered splittings enumerate all assignments of sequence positions into
parts, preserving relative order within each part.

The restricted derivatives slash-d_i are written as generator
combinations on point batches (n, 4): a representation is a list of
(coefficient array (n,), generator) pairs, evaluated on a scalar by
:func:`apply_representation`; a single point is a one-row batch.

The 11 generators are built once, at import; pure functions throughout,
and one cache holds the brackets.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction

import numpy as np

from .errors import NotProportional, PoleDegenerate, TimeZero
from .fields import PolyField, tangential_norm_sq
from .geometry import TANGENTIAL_NAMES, frame_arrays, radius
from .poly import Poly, pack


# x_mu = _LOWER[mu] x^mu: the lowering convention x_0 = -t, x_i = x^i; the
# same diagonal is m and m^{-1}.
_LOWER = (-1, 1, 1, 1)
_AXIS_NAMES = ("t", "x1", "x2", "x3")


class Generator:
    """One affine generator Z = z + J x, built from its nonzero components
    Z^lam = coeff * x^mu: (lam, mu, coeff) triples in ascending lam, mu
    None for the constant 1 and coeff an int.

    Every other form is derived once, here: ``affine``, the matrix
    [[0, 0], [z, J]] (5 x 5, exact ints) whose commutators give the
    brackets; ``action``, the (lam, key of x^mu, coeff) triples of
    Poly.monomial_action; ``slot_terms``, for a covariant ("d") and a
    contravariant ("u") slot holding index mu the (lam, coefficient)
    pairs of the slot's Lie term with a nonzero coefficient, J[lam, mu]
    and -J[mu, lam], kept as the numpy ints the Lie terms have always been
    scaled by; and ``c``, the metric factor with L_Z m^{-1} = c m^{-1}.
    Raises NotProportional for a field that is not conformal Killing.

    The 11 instances below are the only ones: equality and hashing are
    by identity, and a pickled generator comes back as the same object.
    """

    def __init__(self, name, components):
        self.name, self.components = name, components
        M = np.zeros((5, 5), dtype=object)
        for lam, mu, coeff in components:
            M[1 + lam, 0 if mu is None else 1 + mu] = coeff
        self.affine = M
        J = M[1:, 1:].astype(int)
        self.action = tuple((lam, pack([int(a == mu) for a in range(6)]), coeff)
                            for lam, mu, coeff in components)
        self.slot_terms = {
            "d": tuple(tuple((lam, J[lam, mu]) for lam in range(4) if J[lam, mu])
                       for mu in range(4)),
            "u": tuple(tuple((lam, -J[mu, lam]) for lam in range(4) if J[mu, lam])
                       for mu in range(4))}
        # L_Z m^{ab} = -(J[a, b] m^{bb} + m^{aa} J[b, a]) for the diagonal m,
        # in the plain ints of M
        lie = [[-(M[1 + a, 1 + b] * _LOWER[b] + _LOWER[a] * M[1 + b, 1 + a])
                for b in range(4)] for a in range(4)]
        self.c = lie[0][0] * _LOWER[0]
        if any(lie[a][b] != (self.c * _LOWER[a] if a == b else 0)
               for a in range(4) for b in range(4)):
            raise NotProportional(f"L_{name} m^-1 is not a multiple of m^-1")

    def __repr__(self):
        return self.name

    def __reduce__(self):
        return parse_generator, (self.name,)


TRANSLATIONS = tuple(Generator(f"P{_AXIS_NAMES[a]}", ((a, None, 1),)) for a in range(4))
# Z_ab = x_b d_a - x_a d_b
ROTATIONS = tuple(Generator(f"Z{a}{b}", ((a, b, _LOWER[b]), (b, a, -_LOWER[a])))
                  for a in range(4) for b in range(a + 1, 4))
SCALING = Generator("S", tuple((mu, mu, 1) for mu in range(4)))
GENERATORS = TRANSLATIONS + ROTATIONS + (SCALING,)
_BY_NAME = {g.name: g for g in GENERATORS}
# the axis of a translation by name or index, after an optional space or "_"
_AXES = {**{a: a for a in _AXIS_NAMES}, **{str(k): a for k, a in enumerate(_AXIS_NAMES)}}


def parse_generator(token):
    """Parse a generator token: S | Zab (a < b) | P <axis> (axis in t,
    x1..x3, 0..3)."""
    tok = token.strip()
    if tok.startswith("P"):
        tok = "P" + _AXES.get(tok[1:].strip().lstrip("_"), "?")
    if tok not in _BY_NAME:
        raise ValueError(f"unknown generator token {token!r}")
    return _BY_NAME[tok]


def parse_multi_index(text):
    """Comma-separated generator names -> tuple of generators."""
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_generator(tok) for tok in text.split(","))


def apply_to_scalar(gen, p):
    """Z(f) = Z^mu d_mu f for an exact scalar.

    A Poly takes one pass over its keys per nonzero component of Z; a
    GaussPoly sums the products of each component with its derivative.
    """
    if type(p) is Poly:
        return p.monomial_action(gen.action)
    return functools.reduce(operator.add, (p.diff(lam) * Poly({key: coeff})
                                           for lam, key, coeff in gen.action))


def lie_derivative(gen: Generator, T: PolyField) -> PolyField:
    """Variance-aware Lie derivative along one generator.

    Covariant slots gain + (d_slot Z^lam) T_{..lam..}; contravariant slots
    gain - (d_lam Z^slot) T^{..lam..}.  Exact on polynomial components.
    """
    out = T.map(lambda p: apply_to_scalar(gen, p))
    for slot, var in enumerate(T.variance):
        terms = gen.slot_terms[var]
        for idx in np.ndindex(T.shape):
            acc = out.comps[idx]
            for lam, coeff in terms[idx[slot]]:
                acc = acc + T.comps[idx[:slot] + (lam,) + idx[slot + 1:]] * coeff
            out.comps[idx] = acc
    return out


def lie_multi(I, T: PolyField) -> PolyField:
    """Iterated Lie derivative; leftmost generator applied last (outermost)."""
    out = T
    for gen in reversed(I):
        out = lie_derivative(gen, out)
    return out


def lie_lattice(seqs, lattice):
    """Extend a Lie lattice {s: L_{Z^s} T}, holding at least () -> T, to every
    sequence in seqs and its suffixes, each new entry built as one Lie
    derivative of its suffix entry, L_{s[0]} L_{Z^{s[1:]}} T; returns it."""
    for s in map(tuple, seqs):
        for k in range(len(s) - 1, -1, -1):
            if s[k:] not in lattice:
                lattice[s[k:]] = lie_multi(s[k:k + 1], lattice[s[k + 1:]])
    return lattice


def splittings(I, parts):
    """All ordered splittings of I into `parts` complementary subsequences."""
    out = []
    for assign in itertools.product(range(parts), repeat=len(I)):
        groups = tuple(
            tuple(g for g, s in zip(I, assign) if s == p) for p in range(parts)
        )
        out.append(groups)
    return out


def subsequences(I):
    """Distinct subsequences of I (order preserved)."""
    seen = []
    for bits in itertools.product((0, 1), repeat=len(I)):
        sub = tuple(g for g, s in zip(I, bits) if s)
        if sub not in seen:
            seen.append(sub)
    return seen


def ksize_plus(k):
    """(k - 1)_+ bookkeeping: k - 1 for k >= 1, else 0."""
    return k - 1 if k >= 1 else 0


# ---------------------------------------------------------------------------
# Commutators


@functools.cache
def commutator(z1: Generator, z2: Generator):
    """Exact structure constants: [z1, z2] as {generator: coefficient}.

    Covers generator pairs including [Z, P_mu], which lands in the span of
    the translations.  The expansion is reconstructed and verified exactly.
    Each ordered pair is computed once; callers read the returned dict and
    never write to it.
    """
    # With Z = z + J x, [Z1, Z2] = Z1(Z2^mu) - Z2(Z1^mu) is the affine field
    # (J2 z1 - J1 z2) + (J2 J1 - J1 J2) x: the commutator of the augmented
    # matrices, in exact ints.
    M1, M2 = z1.affine, z2.affine
    bracket = M2 @ M1 - M1 @ M2
    c, A = bracket[1:, 0], bracket[1:, 1:]

    out = {}
    for mu in range(4):
        if c[mu] != 0:
            out[TRANSLATIONS[mu]] = c[mu]
    # Linear part: split m-lowered matrix B = eta A into the symmetric
    # multiple of eta (scaling) and the antisymmetric span of the Z's.
    eta = _LOWER
    trace = sum(A[mu, mu] for mu in range(4))
    cS = Fraction(trace, 4) if trace % 4 else trace // 4
    if cS:
        out[SCALING] = cS
    for a in range(4):
        for b in range(a + 1, 4):
            anti = eta[a] * A[a, b] - eta[b] * A[b, a]
            coeff = Fraction(anti, 2) if anti % 2 else anti // 2
            coeff = coeff * (eta[a] * eta[b])  # eta products are +-1
            if coeff:
                out[parse_generator(f"Z{a}{b}")] = coeff
    # Exact verification of the reconstruction.
    recon = sum(coeff * gen.affine for gen, coeff in out.items())
    if not np.all(recon == bracket):
        raise ValueError(f"[{z1}, {z2}] not in the generator span")
    return out


def jacobi_residual():
    """Max coefficient residual of the Jacobi identity over all 165 triples."""
    worst = 0
    for z1, z2, z3 in itertools.combinations(GENERATORS, 3):
        total = {}

        def acc(gen, coeff):
            total[gen] = total.get(gen, 0) + coeff

        for a, b, c in ((z1, z2, z3), (z2, z3, z1), (z3, z1, z2)):
            inner = commutator(b, c)
            for gen, coeff in inner.items():
                for gen2, coeff2 in commutator(a, gen).items():
                    acc(gen2, coeff * coeff2)
        worst = max(worst, max((abs(v) for v in total.values()), default=0))
    return worst


# ---------------------------------------------------------------------------
# Restricted (sphere-tangent) derivatives as generator combinations


def _radius(pts):
    """The radii of a point batch (n, 4); raises PoleDegenerate if any
    point sits at r = 0."""
    r = radius(pts[:, 1], pts[:, 2], pts[:, 3])
    if np.any(r == 0.0):
        raise PoleDegenerate("restricted derivative undefined at r = 0")
    return r


def restricted_derivative_as_Z(i, pts):
    """Two expansions of the restricted derivative slash-d_i on a point
    batch pts (n, 4).

    Returns (rep_rotation, rep_boost), each a list of (coefficient (n,),
    generator) pairs:

        slash-d_i = (x^j / r^2) Z_{ij}
        slash-d_i = ( -(x_i/r)(x^j/r) Z_{0j} + Z_{0i} ) / t

    using Z_{ij} = -Z_{ji} for the canonical a < b ordering.  Every
    coefficient is kept, also where it is 0.  Raises PoleDegenerate if any
    point has r = 0 and TimeZero if any has t = 0.
    """
    if i not in (1, 2, 3):
        raise ValueError("spatial index expected")
    r = _radius(pts)
    x, t = pts[:, 1:], pts[:, 0]
    if np.any(t == 0.0):
        raise TimeZero("boost representation undefined at t = 0")
    rep_rot = []
    for j in (1, 2, 3):
        if j == i:
            continue
        coeff = x[:, j - 1] / r ** 2
        if i < j:
            rep_rot.append((coeff, parse_generator(f"Z{i}{j}")))
        else:
            rep_rot.append((-coeff, parse_generator(f"Z{j}{i}")))
    rep_boost = []
    for j in (1, 2, 3):
        coeff = -(x[:, i - 1] / r) * (x[:, j - 1] / r) / t
        if j == i:
            coeff = coeff + 1.0 / t
        rep_boost.append((coeff, parse_generator(f"Z0{j}")))
    return rep_rot, rep_boost


def apply_representation(rep, scalar, pts):
    """sum coeff * (Z f) over a representation, on a point batch (n, 4)."""
    total = np.zeros(len(pts))
    for coeff, gen in rep:
        total += coeff * apply_to_scalar(gen, scalar).eval_many(pts)
    return total


def restricted_derivative_direct(i, scalar, pts):
    """slash-d_i f = d_i f - (x_i/r) d_r f with d_r f = (x . grad f) / r,
    evaluated exactly on a point batch (n, 4); raises PoleDegenerate if any
    point has r = 0."""
    r = _radius(pts)
    x = pts[:, 1:]
    grad = np.stack([scalar.diff(j).eval_many(pts) for j in (1, 2, 3)])
    dr = np.einsum("ni,in->n", x, grad) / r
    return grad[i - 1] - (x[:, i - 1] / r) * dr


# ---------------------------------------------------------------------------
# Measured constants for the flat-spacetime decay inequalities


def _norm_at(field_vals):
    return np.sqrt(np.sum(field_vals ** 2, axis=tuple(range(1, field_vals.ndim))))


def measure_decay_constants(phi: PolyField, Is, pts):
    """Best constants in the pointwise decay inequalities on a sample set.

    Returns one (C_full, C_tangential) per multi-index I of Is for

        (1 + |q|)     |d   L_{Z^I} phi| <= C_full * sum_{|J|<=|I|+1} |L_{Z^J} phi|
        (1 + t + |q|) |tan L_{Z^I} phi| <= C_tang * same right-hand side

    with the tangential norm summed over {L, e1, e2}.  Every L_{Z^J} phi
    comes from one Lie lattice of order max |I| + 1, and the right-hand
    side of each order is a prefix of one running sum, shortest J first.
    """
    pts = np.asarray(pts, dtype=float)
    Is = [tuple(I) for I in Is]
    top = max(map(len, Is)) + 1
    lattice = lie_lattice(itertools.product(GENERATORS, repeat=top), {(): phi})
    rhs_upto, total = [], np.zeros(len(pts))
    for k in range(top + 1):
        for J in itertools.product(GENERATORS, repeat=k):
            total += _norm_at(lattice[J].eval(pts))
        rhs_upto.append(total.copy())
    fr = frame_arrays(pts[:, 1], pts[:, 2], pts[:, 3])
    q = fr["r"] - pts[:, 0]
    out = []
    for I in Is:
        grad = lattice[I].gradient().eval(pts)  # (n, 4) + shape
        full = _norm_at(grad)
        # slots and channels fold into one channel axis of the grid layout
        d = np.moveaxis(grad, 0, -1).reshape(4, -1, len(pts))
        tang = np.sqrt(tangential_norm_sq(d, (fr[name] for name in TANGENTIAL_NAMES)))
        rhs = rhs_upto[len(I) + 1]
        ok = rhs > 1e-12
        if not ok.any():
            out.append((0.0, 0.0))
            continue
        out.append((float(np.max((1.0 + np.abs(q[ok])) * full[ok] / rhs[ok])),
                    float(np.max((1.0 + pts[ok, 0] + np.abs(q[ok])) * tang[ok] / rhs[ok]))))
    return out

