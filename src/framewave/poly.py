"""Exact polynomial calculus in the coordinates (t, x1, x2, x3).

Three scalar families share one small interface (add/mul/diff/eval_many):

* ``Poly`` -- plain multivariate polynomials with exact (int/Fraction)
  coefficients.  All identity certification runs on these.
* ``RadPoly`` -- polynomials extended by negative powers of the radii
  r = |x|, rho12 = sqrt(x1^2+x2^2), rho23 = sqrt(x2^2+x3^2).  The ring is
  closed under differentiation, which makes frame-projected scalars
  (x^i/r coefficients and the sphere frame away from the poles) exactly
  differentiable.
* ``GaussPoly`` -- polynomial times a spatial Gaussian envelope; closed
  under differentiation and used for localized smooth test data and
  manufactured solutions.

Evaluation goes through one kernel for point batches of shape (n, 4).
It takes a list of Poly/RadPoly scalars, collects the union of their
monomials (powers of t, x1, x2, x3 and inverse powers of r, rho12,
rho23), builds one power table per axis in use, forms each monomial
column once by gathering from those tables and contracts the columns
with every scalar's float coefficients.  Points go through in blocks
sized so that each (monomials x points) temporary holds at most
``_BLOCK_ENTRIES`` floats, which bounds memory on N^3 grid batches.
"""

from __future__ import annotations

import numbers
from fractions import Fraction

import numpy as np

AXES = ("t", "x1", "x2", "x3")


def _key_diff(key, axis):
    e = key[axis]
    if e == 0:
        return None, 0
    k = list(key)
    k[axis] = e - 1
    return tuple(k), e


class Poly:
    """Exact polynomial, stored as {exponent 4-tuple: coefficient}."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {}
        if coeffs:
            for k, v in coeffs.items():
                if v != 0:
                    self.c[k] = v

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, v):
        return cls({(0, 0, 0, 0): v}) if v != 0 else cls()

    @classmethod
    def var(cls, axis):
        k = [0, 0, 0, 0]
        k[axis] = 1
        return cls({tuple(k): 1})

    def copy(self):
        p = Poly()
        p.c = dict(self.c)
        return p

    def is_zero(self):
        return not self.c

    def degree(self):
        return max((sum(k) for k in self.c), default=0)

    def __add__(self, other):
        if isinstance(other, numbers.Number):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        out = dict(self.c)
        for k, v in other.c.items():
            w = out.get(k, 0) + v
            if w == 0:
                out.pop(k, None)
            else:
                out[k] = w
        p = Poly()
        p.c = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = Poly()
        p.c = {k: -v for k, v in self.c.items()}
        return p

    def __sub__(self, other):
        if isinstance(other, numbers.Number):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, numbers.Number):
            if other == 0:
                return Poly()
            p = Poly()
            p.c = {k: v * other for k, v in self.c.items()}
            return p
        if not isinstance(other, Poly):
            return NotImplemented
        out = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2], k1[3] + k2[3])
                w = out.get(k, 0) + v1 * v2
                if w == 0:
                    out.pop(k, None)
                else:
                    out[k] = w
        p = Poly()
        p.c = out
        return p

    __rmul__ = __mul__

    def diff(self, axis):
        out = {}
        for k, v in self.c.items():
            dk, e = _key_diff(k, axis)
            if dk is not None:
                out[dk] = out.get(dk, 0) + e * v
        p = Poly()
        p.c = {k: v for k, v in out.items() if v != 0}
        return p

    def eval_many(self, pts):
        """Evaluate at points of shape (n, 4); returns an (n,) float array."""
        return _eval_scalars((self,), pts)[:, 0]

    def __call__(self, pt):
        return float(self.eval_many(np.asarray(pt, dtype=float)[None, :])[0])

    def __eq__(self, other):
        if isinstance(other, numbers.Number):
            other = Poly.const(other)
        return isinstance(other, Poly) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __repr__(self):
        if not self.c:
            return "Poly(0)"
        parts = []
        for k in sorted(self.c):
            mono = "*".join(
                f"{AXES[a]}^{e}" if e > 1 else AXES[a]
                for a, e in enumerate(k) if e
            )
            parts.append(f"{self.c[k]}{'*' + mono if mono else ''}")
        return "Poly(" + " + ".join(parts) + ")"


P_ZERO = Poly.zero()
P_ONE = Poly.const(1)
P_T, P_X1, P_X2, P_X3 = (Poly.var(a) for a in range(4))

# Radical index sets: r over all spatial axes, rho12 over (x1,x2), rho23 over (x2,x3).
_RADICAL_AXES = ((1, 2, 3), (1, 2), (2, 3))


class RadPoly:
    """Sum of Poly terms times r^-a * rho12^-b * rho23^-c, keyed by (a, b, c).

    Closed under +, *, and partial differentiation; radii appear only with
    nonnegative inverse powers, so every element is smooth wherever the
    radii involved are positive.  No canonicalization is attempted (the same
    function can have several representations); all checks built on this
    class compare evaluations, never raw coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, p in terms.items():
                if not p.is_zero():
                    self.terms[k] = p

    @classmethod
    def from_poly(cls, p):
        if isinstance(p, numbers.Number):
            p = Poly.const(p)
        return cls({(0, 0, 0): p})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if isinstance(other, (numbers.Number, Poly)):
            other = RadPoly.from_poly(other)
        out = dict(self.terms)
        for k, p in other.terms.items():
            s = out.get(k, P_ZERO) + p
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return RadPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return RadPoly({k: -p for k, p in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (numbers.Number, Poly)):
            other = RadPoly.from_poly(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (numbers.Number, Poly)):
            if isinstance(other, numbers.Number) and other == 0:
                return RadPoly()
            other = RadPoly.from_poly(other)
        out = {}
        for k1, p1 in self.terms.items():
            for k2, p2 in other.terms.items():
                k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                prod = p1 * p2
                s = out.get(k, P_ZERO) + prod
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        return RadPoly(out)

    __rmul__ = __mul__

    def diff(self, axis):
        out = {}

        def _acc(key, poly):
            if poly.is_zero():
                return
            s = out.get(key, P_ZERO) + poly
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s

        for k, p in self.terms.items():
            _acc(k, p.diff(axis))
            if axis == 0:
                continue
            for which, exps in enumerate(k):
                if exps and axis in _RADICAL_AXES[which]:
                    nk = list(k)
                    nk[which] = exps + 2
                    _acc(tuple(nk), p * Poly.var(axis) * (-exps))
        return RadPoly(out)

    def eval_many(self, pts):
        return _eval_scalars((self,), pts)[:, 0]

    def __call__(self, pt):
        return float(self.eval_many(np.asarray(pt, dtype=float)[None, :])[0])

    def __repr__(self):
        return f"RadPoly({len(self.terms)} radial terms)"


class GaussPoly:
    """p(t, x) * exp(-|x - center|^2 / sigma^2), closed under differentiation."""

    __slots__ = ("poly", "center", "sigma")

    def __init__(self, poly, center=(0.0, 0.0, 0.0), sigma=1.0):
        self.poly = poly if isinstance(poly, Poly) else Poly.const(poly)
        self.center = tuple(float(c) for c in center)
        self.sigma = float(sigma)

    def _compatible(self, other):
        return self.center == other.center and self.sigma == other.sigma

    def __add__(self, other):
        if isinstance(other, GaussPoly):
            if not self._compatible(other):
                raise ValueError("GaussPoly addition requires a shared envelope")
            return GaussPoly(self.poly + other.poly, self.center, self.sigma)
        raise TypeError("GaussPoly only adds to GaussPoly")

    def __mul__(self, other):
        if isinstance(other, (numbers.Number, Poly)):
            return GaussPoly(self.poly * other, self.center, self.sigma)
        raise TypeError("GaussPoly scales by plain polynomials only")

    __rmul__ = __mul__

    def __neg__(self):
        return GaussPoly(-self.poly, self.center, self.sigma)

    def diff(self, axis):
        p = self.poly.diff(axis)
        if axis != 0:
            shift = Poly.var(axis) - self.center[axis - 1]
            p = p + self.poly * shift * (-2.0 / self.sigma ** 2)
        return GaussPoly(p, self.center, self.sigma)

    def envelope_many(self, pts):
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        d2 = sum((pts[:, i + 1] - self.center[i]) ** 2 for i in range(3))
        return np.exp(-d2 / self.sigma ** 2)

    def eval_many(self, pts):
        return _eval_scalars((self.poly,), pts)[:, 0] * self.envelope_many(pts)

    def __call__(self, pt):
        return float(self.eval_many(np.asarray(pt, dtype=float)[None, :])[0])


# Upper bound on the floats in one block's (monomials x points) temporary.
_BLOCK_ENTRIES = 1 << 15


def _power_table(pts, axis, top):
    """Rows k = 0..top: the k-th power of exponent axis ``axis`` at pts.

    Axes 0-3 are t, x1, x2, x3; axes 4-6 count inverse powers of r, rho12
    and rho23.
    """
    if axis < 4:
        base = pts[:, axis]
    else:
        base = 1.0 / np.sqrt(sum(pts[:, a] ** 2 for a in _RADICAL_AXES[axis - 4]))
    table = np.empty((top + 1, len(pts)))
    table[0] = 1.0
    table[1] = base
    for k in range(2, top + 1):
        np.multiply(table[k - 1], base, out=table[k])
    return table


def _eval_scalars(scalars, pts):
    """Values of Poly/RadPoly scalars at points (n, 4) as an (n, k) array."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    index, rows, coefs, starts, filled = {}, [], [], [], []
    for j, s in enumerate(scalars):
        terms = s.terms.items() if isinstance(s, RadPoly) else (((0, 0, 0), s),)
        start = len(rows)
        for rad, p in terms:
            for k, v in p.c.items():
                rows.append(index.setdefault(k + rad, len(index)))
                coefs.append(float(v))
        if len(rows) > start:  # reduceat needs strictly increasing starts
            starts.append(start)
            filled.append(j)
    n = pts.shape[0]
    out = np.zeros((n, len(scalars)))
    if not rows:
        return out
    keys = np.array(list(index), dtype=np.intp)
    tops = keys.max(axis=0)
    axes = [(ax, int(tops[ax])) for ax in range(7) if tops[ax]]
    rows = np.array(rows, dtype=np.intp)
    coefs = np.array(coefs)[:, None]
    # Every monomial is used at least once, so len(rows) bounds each temporary.
    width = max(1, _BLOCK_ENTRIES // len(rows))
    for lo in range(0, n, width):
        blk = pts[lo:lo + width]
        mono = np.ones((len(keys), len(blk)))
        for ax, top in axes:
            mono *= _power_table(blk, ax, top)[keys[:, ax]]
        terms = mono[rows]
        terms *= coefs
        out[lo:lo + width, filled] = np.add.reduceat(terms, starts, axis=0).T
    return out


def random_poly(rng, degree=2, nterms=4, time_dependent=True):
    """Sparse random polynomial with integer coefficients in [-3, 3]."""
    c = {}
    for _ in range(nterms):
        while True:
            k = tuple(int(e) for e in rng.integers(0, degree + 1, size=4))
            if sum(k) <= degree and (time_dependent or k[0] == 0):
                break
        v = int(rng.integers(-3, 4))
        if v:
            c[k] = c.get(k, 0) + v
    return Poly({k: v for k, v in c.items() if v})


def measure_order(hs, errors):
    """Least-squares slope of log(error) against log(h).

    NaN when fewer than two errors are positive: no slope is measured, and
    NaN fails every order gate (``order >= p`` is false).
    """
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = errors > 0
    if mask.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(hs[mask]), np.log(errors[mask]), 1)[0])
