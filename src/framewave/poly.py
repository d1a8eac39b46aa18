"""Exact calculus in the coordinates (t, x1, x2, x3) and two inverse radii.

Two scalar classes share one small interface (add/mul/diff/eval_many):

* ``Poly`` -- the exact scalar: a polynomial with exact (int/Fraction)
  coefficients in t, x1, x2, x3 and the inverse radii 1/r and 1/rho12
  (r = |x|, rho12 = sqrt(x1^2 + x2^2)), stored as {exponent key:
  coefficient}.  The key is (t, x1, x2, x3, r^-1, rho12^-1): six
  non-negative exponents, the last two counting inverse powers.  The
  ring is closed under differentiation, d_i r^-a = -a x_i r^-(a+2) and
  likewise rho12 on x1 and x2, which makes frame-projected scalars
  (x^i/r coefficients and the sphere frame away from the poles) exactly
  differentiable.  The radii are free variables: no canonicalization is
  attempted (r^2 = x.x is never applied), so a scalar with radii can have
  several representations, and every check built on such scalars
  compares evaluations, never raw coefficients.  Identity certification
  runs on scalars without radii, where equal dicts are equal functions.
* ``GaussPoly`` -- a polynomial times a spatial Gaussian envelope; closed
  under differentiation and used for localized smooth test data and
  manufactured solutions.

Evaluation goes through one kernel for point batches of shape (n, 4).
It takes a list of Poly scalars, collects the union of their monomial
keys, builds one power table per key axis in use, forms each monomial
column once by gathering from those tables and contracts the columns
with every scalar's float coefficients.  Points go through in blocks
sized so that each (monomials x points) temporary holds at most
``_BLOCK_ENTRIES`` floats, which bounds memory on N^3 grid batches.
"""

from __future__ import annotations

import numbers

import numpy as np

AXES = ("t", "x1", "x2", "x3", "1/r", "1/rho12")
ZERO_KEY = (0,) * len(AXES)

# The inverse-radius key slots and the coordinate axes of each radius, and
# for each coordinate axis the slots whose radius depends on it.
_RADIUS_AXES = {4: (1, 2, 3), 5: (1, 2)}
_CHAIN = tuple(tuple(s for s, axes in _RADIUS_AXES.items() if a in axes) for a in range(4))


class Poly:
    """Exact polynomial in t, x1, x2, x3, 1/r and 1/rho12, stored as
    {exponent 6-tuple: coefficient}."""

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
        return cls({ZERO_KEY: v}) if v != 0 else cls()

    @classmethod
    def var(cls, axis):
        k = list(ZERO_KEY)
        k[axis] = 1
        return cls({tuple(k): 1})

    def is_zero(self):
        return not self.c

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
                k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2], k1[3] + k2[3],
                     k1[4] + k2[4], k1[5] + k2[5])
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
        """d/dx^axis (axis 0..3); a radius power differentiates by the
        chain rule, d_i r^-a = -a x_i r^-(a+2)."""
        out = {}
        for k, v in self.c.items():
            e = k[axis]
            if e:
                dk = k[:axis] + (e - 1,) + k[axis + 1:]
                out[dk] = out.get(dk, 0) + e * v
            for slot in _CHAIN[axis]:
                a = k[slot]
                if a:
                    dk = list(k)
                    dk[axis] += 1
                    dk[slot] = a + 2
                    dk = tuple(dk)
                    out[dk] = out.get(dk, 0) - a * v
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
R_INV = Poly.var(4)
RHO12_INV = Poly.var(5)


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
    """Rows k = 0..top: the k-th power of key axis ``axis`` at pts (an
    inverse radius for the slots 4 and 5)."""
    if axis < 4:
        base = pts[:, axis]
    else:
        base = 1.0 / np.sqrt(sum(pts[:, a] ** 2 for a in _RADIUS_AXES[axis]))
    table = np.empty((top + 1, len(pts)))
    table[0] = 1.0
    table[1] = base
    for k in range(2, top + 1):
        np.multiply(table[k - 1], base, out=table[k])
    return table


def _eval_scalars(scalars, pts):
    """Values of Poly scalars at points (n, 4) as an (n, k) array."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    index, rows, coefs, starts, filled = {}, [], [], [], []
    for j, s in enumerate(scalars):
        start = len(rows)
        for k, v in s.c.items():
            rows.append(index.setdefault(k, len(index)))
            coefs.append(float(v))
        if len(rows) > start:  # reduceat needs strictly increasing starts
            starts.append(start)
            filled.append(j)
    n = pts.shape[0]
    out = np.zeros((n, len(scalars)))
    if not rows:
        return out
    keys = np.array(list(index), dtype=np.intp)
    axes = [(ax, int(top)) for ax, top in enumerate(keys.max(axis=0)) if top]
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
    """Sparse random polynomial in t, x1, x2, x3 (no radii) with integer
    coefficients in [-3, 3]."""
    c = {}
    for _ in range(nterms):
        while True:
            k = tuple(rng.integers(0, degree + 1, size=4).tolist())
            if sum(k) <= degree and (time_dependent or k[0] == 0):
                break
        v = int(rng.integers(-3, 4))
        if v:
            k += (0, 0)
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
