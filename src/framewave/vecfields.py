"""The 11 flat-spacetime symmetry vector fields and their Lie calculus.

Generators: 4 translations P_mu, 6 rotations/boosts Z_{ab} (a < b) with
Z_{ab} = x_b d_a - x_a d_b and the lowering convention x_0 = -t, and the
scaling S = t d_t + x^i d_i.  All coefficient functions are affine, so
second derivatives of the coefficients vanish and Lie derivatives commute
with coordinate Hessians on scalars -- the fact every exact identity in
:mod:`framewave.estimates` leans on.

Multi-indices are ordered generator sequences; iterated Lie derivatives
apply the leftmost generator last (outermost).  A Lie lattice builds each
L_{Z^s} T once, from its suffix entry, and lives as long as its caller.
Ordered splittings enumerate all assignments of sequence positions into
parts, preserving relative order within each part.

Stateless tables and pure functions throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PoleDegenerate, TimeZero
from .fields import PolyField
from .geometry import MINKOWSKI
from .poly import P_ONE, Poly


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


def as_field(gen: VectorFieldId) -> PolyField:
    """Contravariant coefficient field of a generator (affine components)."""
    comps = {}
    if gen.kind == "P":
        comps[(gen.a,)] = P_ONE
    elif gen.kind == "S":
        for mu in range(4):
            comps[(mu,)] = Poly.var(mu)
    else:
        a, b = gen.a, gen.b
        # x_beta = m_{mu beta} x^mu, so x_0 = -t and x_i = x^i.
        xb = Poly.var(b) * (-1 if b == 0 else 1)
        xa = Poly.var(a) * (-1 if a == 0 else 1)
        comps[(a,)] = xb
        comps[(b,)] = -xa
    return PolyField.from_components(comps, rank=1, variance=("u",))


def jacobian(gen: VectorFieldId):
    """Constant matrix (d_mu Z^lam) as J[lam, mu], exact integers."""
    J = np.zeros((4, 4), dtype=int)
    if gen.kind == "S":
        J[:] = np.eye(4, dtype=int)
    elif gen.kind == "Z":
        a, b = gen.a, gen.b
        J[a, b] = -1 if b == 0 else 1
        J[b, a] = 1 if a == 0 else -1
    return J


_FIELD_CACHE = {g: as_field(g) for g in GENERATORS}
_JAC_CACHE = {g: jacobian(g) for g in GENERATORS}


def apply_to_scalar(gen, p):
    """Z(f) = Z^mu d_mu f for an exact scalar."""
    zf = _FIELD_CACHE[gen]
    out = None
    for mu in range(4):
        coeff = zf.comps[mu, 0]
        if coeff.is_zero():
            continue
        term = coeff * p.diff(mu)
        out = term if out is None else out + term
    return out if out is not None else p.diff(0) * 0


def lie_derivative(gen: VectorFieldId, T: PolyField) -> PolyField:
    """Variance-aware Lie derivative along one generator.

    Covariant slots gain + (d_slot Z^lam) T_{..lam..}; contravariant slots
    gain - (d_lam Z^slot) T^{..lam..}.  Exact on polynomial components.
    """
    J = _JAC_CACHE[gen]
    out = T.map(lambda p: apply_to_scalar(gen, p))
    for slot, var in enumerate(T.variance):
        for idx in np.ndindex(T.shape):
            acc = out.comps[idx]
            for lam in range(4):
                src = list(idx)
                src[slot] = lam
                src = tuple(src)
                if var == "d":
                    coeff = J[lam, idx[slot]]
                else:
                    coeff = -J[idx[slot], lam]
                if coeff:
                    acc = acc + T.comps[src] * coeff
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


def _affine_parts(f: PolyField):
    """Constant and linear parts (c^mu, A^mu_nu) of an affine vector field."""
    c = np.zeros(4, dtype=object)
    A = np.zeros((4, 4), dtype=object)
    for mu in range(4):
        p = f.comps[mu, 0]
        for k, v in p.c.items():
            s = sum(k)
            if s == 0:
                c[mu] = c[mu] + v
            elif s == 1:
                nu = k.index(1)
                A[mu, nu] = A[mu, nu] + v
            else:
                raise ValueError("commutator table expects affine fields")
    return c, A


def commutator(z1: VectorFieldId, z2: VectorFieldId):
    """Exact structure constants: [z1, z2] as {generator: coefficient}.

    Covers generator pairs including [Z, P_mu], which lands in the span of
    the translations.  The expansion is reconstructed and verified exactly.
    """
    f1, f2 = _FIELD_CACHE[z1], _FIELD_CACHE[z2]
    J1, J2 = _JAC_CACHE[z1], _JAC_CACHE[z2]
    # [Z1, Z2]^mu = Z1(Z2^mu) - Z2(Z1^mu); both results stay affine.
    comps = {}
    for mu in range(4):
        comps[(mu,)] = apply_to_scalar(z1, f2.comps[mu, 0]) - apply_to_scalar(
            z2, f1.comps[mu, 0]
        )
    bracket = PolyField.from_components(comps, rank=1, variance=("u",))
    c, A = _affine_parts(bracket)

    out = {}
    for mu in range(4):
        if c[mu] != 0:
            out[TRANSLATIONS[mu]] = out.get(TRANSLATIONS[mu], 0) + c[mu]
    # Linear part: split m-lowered matrix B = eta A into the symmetric
    # multiple of eta (scaling) and the antisymmetric span of the Z's.
    eta = np.array([-1, 1, 1, 1], dtype=object)
    B = np.empty((4, 4), dtype=object)
    for mu in range(4):
        for nu in range(4):
            B[mu, nu] = eta[mu] * A[mu, nu]
    trace = sum(A[mu, mu] for mu in range(4))
    cS = Fraction(trace, 4) if trace % 4 else trace // 4
    if cS:
        out[SCALING] = cS
    for a in range(4):
        for b in range(a + 1, 4):
            anti = B[a, b] - B[b, a]
            coeff = Fraction(anti, 2) if anti % 2 else anti // 2
            coeff = coeff * (eta[a] * eta[b])  # eta products are +-1
            if coeff:
                out[VectorFieldId("Z", a, b)] = coeff
    # Exact verification of the reconstruction.
    recon = PolyField.zero(rank=1, variance=("u",))
    for gen, coeff in out.items():
        recon = recon + _FIELD_CACHE[gen].scale(coeff)
    for mu in range(4):
        if not (recon.comps[mu, 0] - bracket.comps[mu, 0]).is_zero():
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


def restricted_derivative_as_Z(i, p):
    """Two expansions of the restricted derivative slash-d_i at a point.

    Returns (rep_rotation, rep_boost), each a list of (coefficient,
    generator) pairs:

        slash-d_i = (x^j / r^2) Z_{ij}
        slash-d_i = ( -(x_i/r)(x^j/r) Z_{0j} + Z_{0i} ) / t

    using Z_{ij} = -Z_{ji} for the canonical a < b ordering.
    """
    if i not in (1, 2, 3):
        raise ValueError("spatial index expected")
    r = p.r
    if r == 0.0:
        raise PoleDegenerate("restricted derivative undefined at r = 0")
    x = p.x
    rep_rot = []
    for j in (1, 2, 3):
        if j == i:
            continue
        coeff = x[j - 1] / r ** 2
        if i < j:
            rep_rot.append((coeff, VectorFieldId("Z", i, j)))
        else:
            rep_rot.append((-coeff, VectorFieldId("Z", j, i)))
    if p.t == 0.0:
        raise TimeZero("boost representation undefined at t = 0")
    rep_boost = []
    for j in (1, 2, 3):
        coeff = -(x[i - 1] / r) * (x[j - 1] / r) / p.t
        if j == i:
            coeff += 1.0 / p.t
        if coeff:
            rep_boost.append((coeff, VectorFieldId("Z", 0, j)))
    return rep_rot, rep_boost


def apply_representation(rep, scalar, p):
    """Sum coeff * (Z f)(p) for a representation over a scalar field."""
    pt = p.coords()[None, :]
    total = 0.0
    for coeff, gen in rep:
        zf = apply_to_scalar(gen, scalar)
        total += coeff * float(zf.eval_many(pt)[0])
    return total


def restricted_derivative_direct(i, scalar, p):
    """slash-d_i f = (d_i - (x_i/r) d_r) f evaluated exactly at a point."""
    r = p.r
    if r == 0.0:
        raise PoleDegenerate
    pt = p.coords()[None, :]
    di = float(scalar.diff(i).eval_many(pt)[0])
    dr = sum(
        (p.x[j - 1] / r) * float(scalar.diff(j).eval_many(pt)[0]) for j in (1, 2, 3)
    )
    return di - (p.x[i - 1] / r) * dr


# ---------------------------------------------------------------------------
# Measured constants for the flat-spacetime decay inequalities


def _norm_at(field_vals):
    return np.sqrt(np.sum(field_vals ** 2, axis=tuple(range(1, field_vals.ndim))))


def all_multi_indices(max_order):
    out = [()]
    for k in range(1, max_order + 1):
        out.extend(itertools.product(GENERATORS, repeat=k))
    return out


def decay_rhs_sum(phi: PolyField, max_order, pts):
    """sum_{|J| <= max_order} |L_{Z^J} phi| evaluated at points."""
    total = np.zeros(len(pts))
    for J in all_multi_indices(max_order):
        total += _norm_at(lie_multi(J, phi).eval(pts))
    return total


def measure_decay_constants(phi: PolyField, I, pts):
    """Best constants in the pointwise decay inequalities on a sample set.

    Returns (C_full, C_tangential) for

        (1 + |q|)     |d   L_{Z^I} phi| <= C_full * sum_{|J|<=|I|+1} |L_{Z^J} phi|
        (1 + t + |q|) |tan L_{Z^I} phi| <= C_tang * same right-hand side

    with the tangential norm summed over {L, e1, e2}.
    """
    pts = np.asarray(pts, dtype=float)
    lie_phi = lie_multi(tuple(I), phi)
    grad = lie_phi.gradient().eval(pts)  # (n, 4) + shape
    full = np.sqrt(np.sum(grad ** 2, axis=tuple(range(1, grad.ndim))))

    from .geometry import frame_arrays

    fr = frame_arrays(pts[:, 1], pts[:, 2], pts[:, 3])
    tang_sq = np.zeros(len(pts))
    for name in ("L", "e1", "e2"):
        U = fr[name]  # (4, n)
        dU = np.einsum("mn,nm...->n...", U, grad)
        tang_sq += np.sum(dU ** 2, axis=tuple(range(1, dU.ndim)))
    tang = np.sqrt(tang_sq)

    r = fr["r"]
    q = r - pts[:, 0]
    rhs = decay_rhs_sum(phi, len(tuple(I)) + 1, pts)
    ok = rhs > 1e-12
    c_full = float(np.max((1.0 + np.abs(q[ok])) * full[ok] / rhs[ok])) if ok.any() else 0.0
    c_tang = (
        float(np.max((1.0 + pts[ok, 0] + np.abs(q[ok])) * tang[ok] / rhs[ok]))
        if ok.any()
        else 0.0
    )
    return c_full, c_tang


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
            val = p.c.get((0, 0, 0, 0), 0)
            if len(p.c) > (1 if val else 0):
                raise NotProportional("non-constant Lie derivative of m^-1")
            ratio = val * base  # base is +-1
            if factor is None:
                factor = ratio
            elif factor != ratio:
                raise NotProportional("slotwise factors disagree")
    return factor if factor is not None else 0
