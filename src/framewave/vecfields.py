"""The 11 flat-spacetime symmetry vector fields and their Lie calculus.

Generators: 4 translations P_mu, 6 rotations/boosts Z_{ab} (a < b) with
Z_{ab} = x_b d_a - x_a d_b and the lowering convention x_0 = -t, and the
scaling S = t d_t + x^i d_i.  All coefficient functions are affine, so
second derivatives of the coefficients vanish and Lie derivatives commute
with coordinate Hessians on scalars -- the fact every exact identity in
:mod:`framewave.estimates` leans on.

Each generator is written once, as its nonzero components Z^lam =
coeff * x^mu (``_components``).  Every other form is read from that one
table: the exact action on scalars, the Jacobian of the slot terms, the
augmented matrix of Z = c + J x that the commutators multiply, and the
coefficients of the grid Lie step in :mod:`framewave.estimates`.

Multi-indices are ordered generator sequences; iterated Lie derivatives
apply the leftmost generator last (outermost).  A Lie lattice builds each
L_{Z^s} T once, from its suffix entry, and lives as long as its caller.
Ordered splittings enumerate all assignments of sequence positions into
parts, preserving relative order within each part.

The restricted derivatives slash-d_i are written as generator
combinations on point batches (n, 4): a representation is a list of
(coefficient array (n,), generator) pairs, evaluated on a scalar by
:func:`apply_representation`; a single point is a one-row batch.

Stateless tables and pure functions throughout.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PoleDegenerate, TimeZero
from .fields import PolyField, tangential_norm_sq
from .geometry import MINKOWSKI, TANGENTIAL_NAMES, frame_arrays, radius
from .poly import ZERO_KEY, Poly, pack


@dataclass(frozen=True)
class VectorFieldId:
    """One generator: kind "P" (translation), "Z" (rotation/boost), "S"."""

    kind: str
    a: int = -1
    b: int = -1

    @property
    def name(self):
        if self.kind == "S":
            return "S"
        if self.kind == "P":
            return f"P{_AXIS_NAMES[self.a]}"
        return f"Z{self.a}{self.b}"

    def __repr__(self):
        return self.name


_AXIS_NAMES = ("t", "x1", "x2", "x3")

TRANSLATIONS = tuple(VectorFieldId("P", a) for a in range(4))
ROTATIONS = tuple(VectorFieldId("Z", a, b) for a in range(4) for b in range(a + 1, 4))
SCALING = VectorFieldId("S")
GENERATORS = TRANSLATIONS + ROTATIONS + (SCALING,)
assert len(GENERATORS) == 11


def parse_generator(token):
    """Parse a generator token: S | Zab | P <axis> (axis in t, x1..x3, 0..3)."""
    tok = token.strip()
    if tok == "S":
        return SCALING
    if tok.startswith("Z") and len(tok) == 3 and tok[1:].isdigit():
        a, b = int(tok[1]), int(tok[2])
        if not (0 <= a < b <= 3):
            raise ValueError(f"bad rotation indices in {token!r}")
        return VectorFieldId("Z", a, b)
    if tok.startswith("P"):
        rest = tok[1:].strip().lstrip("_")
        names = {"t": 0, "x1": 1, "x2": 2, "x3": 3, "0": 0, "1": 1, "2": 2, "3": 3}
        if rest in names:
            return VectorFieldId("P", names[rest])
    raise ValueError(f"unknown generator token {token!r}")


def parse_multi_index(text):
    """Comma-separated generator names -> tuple of VectorFieldId."""
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_generator(tok) for tok in text.split(","))


# x_mu = _LOWER[mu] x^mu: the lowering convention x_0 = -t, x_i = x^i.
_LOWER = (-1, 1, 1, 1)


def _components(gen: VectorFieldId):
    """The nonzero components Z^lam = coeff * x^mu of a generator as
    (lam, mu, coeff) triples in ascending lam, mu None for the constant 1
    and coeff an int: P_a = d_a, Z_ab = x_b d_a - x_a d_b, S = x^mu d_mu."""
    if gen.kind == "P":
        return ((gen.a, None, 1),)
    if gen.kind == "S":
        return tuple((mu, mu, 1) for mu in range(4))
    a, b = gen.a, gen.b
    return ((a, b, _LOWER[b]), (b, a, -_LOWER[a]))


def _augmented(components):
    """The matrix [[0, 0], [c, J]] (5 x 5, ints) of the affine field
    Z = c + J x: row 1 + lam holds (c^lam, d_0 Z^lam, ..., d_3 Z^lam)."""
    M = np.zeros((5, 5), dtype=object)
    for lam, mu, coeff in components:
        M[1 + lam, 0 if mu is None else 1 + mu] = coeff
    return M


# The one generator table and its views: the augmented matrix, the
# Jacobian J[lam, mu] = d_mu Z^lam as numpy ints, and the (lam, key of
# x^mu, coeff) triples of Poly.monomial_action (mu None packs to the
# constant's key).
_COMPONENTS = {g: _components(g) for g in GENERATORS}
_AFFINE = {g: _augmented(comps) for g, comps in _COMPONENTS.items()}
_JAC_CACHE = {g: M[1:, 1:].astype(int) for g, M in _AFFINE.items()}
_ACTION_CACHE = {g: tuple((lam, pack([int(a == mu) for a in range(6)]), coeff)
                          for lam, mu, coeff in comps) for g, comps in _COMPONENTS.items()}


def _slot_terms(J):
    """For a covariant ("d") and a contravariant ("u") slot holding index
    mu: the (lam, coefficient) pairs of the slot's Lie term with a nonzero
    coefficient, J[lam, mu] and -J[mu, lam] respectively, kept as the
    numpy ints the Lie terms have always been scaled by."""
    return {"d": tuple(tuple((lam, J[lam, mu]) for lam in range(4) if J[lam, mu])
                       for mu in range(4)),
            "u": tuple(tuple((lam, -J[mu, lam]) for lam in range(4) if J[mu, lam])
                       for mu in range(4))}


_SLOT_TERMS = {g: _slot_terms(J) for g, J in _JAC_CACHE.items()}


def apply_to_scalar(gen, p):
    """Z(f) = Z^mu d_mu f for an exact scalar.

    A Poly takes one pass over its keys per nonzero component of Z; a
    GaussPoly sums the products of each component with its derivative.
    """
    if type(p) is Poly:
        return p.monomial_action(_ACTION_CACHE[gen])
    return functools.reduce(operator.add, (p.diff(lam) * Poly({key: coeff})
                                           for lam, key, coeff in _ACTION_CACHE[gen]))


def lie_derivative(gen: VectorFieldId, T: PolyField) -> PolyField:
    """Variance-aware Lie derivative along one generator.

    Covariant slots gain + (d_slot Z^lam) T_{..lam..}; contravariant slots
    gain - (d_lam Z^slot) T^{..lam..}.  Exact on polynomial components.
    """
    slot_terms = _SLOT_TERMS[gen]
    out = T.map(lambda p: apply_to_scalar(gen, p))
    for slot, var in enumerate(T.variance):
        terms = slot_terms[var]
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


def commutator(z1: VectorFieldId, z2: VectorFieldId):
    """Exact structure constants: [z1, z2] as {generator: coefficient}.

    Covers generator pairs including [Z, P_mu], which lands in the span of
    the translations.  The expansion is reconstructed and verified exactly.
    """
    # With Z = c + J x, [Z1, Z2] = Z1(Z2^mu) - Z2(Z1^mu) is the affine field
    # (J2 c1 - J1 c2) + (J2 J1 - J1 J2) x: the commutator of the augmented
    # matrices, in exact ints.
    M1, M2 = _AFFINE[z1], _AFFINE[z2]
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
                out[VectorFieldId("Z", a, b)] = coeff
    # Exact verification of the reconstruction.
    recon = sum(coeff * _AFFINE[gen] for gen, coeff in out.items())
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
            rep_rot.append((coeff, VectorFieldId("Z", i, j)))
        else:
            rep_rot.append((-coeff, VectorFieldId("Z", j, i)))
    rep_boost = []
    for j in (1, 2, 3):
        coeff = -(x[:, i - 1] / r) * (x[:, j - 1] / r) / t
        if j == i:
            coeff = coeff + 1.0 / t
        rep_boost.append((coeff, VectorFieldId("Z", 0, j)))
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


def lie_minkowski_inverse_factor(I):
    """Proportionality factor of L_{Z^I} m^{-1} against m^{-1}.

    Computed, never hard-coded: the iterated Lie derivative of the constant
    inverse metric is evaluated exactly and compared slotwise.  Raises
    NotProportional if the result is not a multiple of m^{-1}.
    """
    from .errors import NotProportional

    minv = PolyField.zero(rank=2, variance=("u", "u"))
    for mu in range(4):
        minv.comps[mu, mu, 0] = Poly.const(int(MINKOWSKI[mu, mu]))
    out = lie_multi(tuple(I), minv)
    factor = None
    for mu in range(4):
        for nu in range(4):
            p = out.comps[mu, nu, 0]
            base = int(MINKOWSKI[mu, nu])
            if base == 0:
                if not p.is_zero():
                    raise NotProportional(f"off-diagonal slot ({mu},{nu}) nonzero")
                continue
            val = p.c.get(ZERO_KEY, 0)
            if len(p.c) > (1 if val else 0):
                raise NotProportional("non-constant Lie derivative of m^-1")
            ratio = val * base  # base is +-1
            if factor is None:
                factor = ratio
            elif factor != ratio:
                raise NotProportional("slotwise factors disagree")
    return factor if factor is not None else 0
