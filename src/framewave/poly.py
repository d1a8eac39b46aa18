"""Exact calculus in the coordinates (t, x1, x2, x3) and two inverse radii.

Two scalar classes share one small interface (add/mul/diff/eval_many):

* ``Poly`` -- the exact scalar: a polynomial with exact (int/Fraction)
  coefficients in t, x1, x2, x3 and the inverse radii 1/r and 1/rho12
  (r = |x|, rho12 = sqrt(x1^2 + x2^2)), stored as {exponent key:
  coefficient}.  The exponents are (t, x1, x2, x3, r^-1, rho12^-1): six
  non-negative integers, the last two counting inverse powers.  The
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

Keys.  A monomial key is one Python int holding the six exponents in
8-bit fields, t in the most significant field and rho12^-1 in the least,
so keys sort like exponent tuples.  ``pack`` builds a key and ``unpack``
reads one back.  An exponent may be 0..127: the top bit of each field is
a guard bit.  The key of a product is the sum of the factors' keys, and
a derivative adds or subtracts a fixed key per term (the chain rule
included); a field stays below 256 in both, so no carry reaches the next
field, and a result key with a guard bit set raises ``ExponentOverflow``
instead of wrapping.  Every operation inserts its result's keys in the
order the exponent-tuple arithmetic did, term by term, and that order is
part of the interface: it fixes the summation order of ``_eval_scalars``
and so the last bits of every evaluation.

Evaluation goes through one kernel for point batches of shape (n, 4).
It takes a list of Poly scalars, collects the union of their monomial
keys, builds one power table per key axis in use, forms each monomial
column once by gathering from those tables and contracts the columns
with every scalar's float coefficients.  Points go through in blocks
sized so that each (monomials x points) temporary holds at most
``_BLOCK_ENTRIES`` floats, which bounds memory on N^3 grid batches.
"""

from __future__ import annotations

import itertools
import numbers
import operator
from functools import reduce

import numpy as np

from .errors import ExponentOverflow

AXES = ("t", "x1", "x2", "x3", "1/r", "1/rho12")
ZERO_KEY = 0

_BITS = 8
_FIELD = (1 << _BITS) - 1
MAX_EXPONENT = (1 << (_BITS - 1)) - 1
# Bit offset of each axis in a key, the key of each single variable and
# the guard bits of all fields.
_SHIFTS = tuple(_BITS * (len(AXES) - 1 - a) for a in range(len(AXES)))
_UNIT = tuple(1 << s for s in _SHIFTS)
_SHIFT_ROW = np.array(_SHIFTS, dtype=np.int64)
_GUARD = sum(u << (_BITS - 1) for u in _UNIT)
_KEY_END = 1 << (_BITS * len(AXES))

# The inverse-radius slots and the coordinate axes of each radius.  For
# each coordinate axis: the bit offset of every radius that depends on it
# with the key its chain-rule term adds (x_axis r^-(a+2) for r^-a), and
# the mask of those radii's fields.
_RADIUS_AXES = {4: (1, 2, 3), 5: (1, 2)}
_CHAIN = tuple(tuple((_SHIFTS[s], _UNIT[a] + 2 * _UNIT[s])
                     for s, axes in _RADIUS_AXES.items() if a in axes) for a in range(4))
_CHAIN_MASK = tuple(sum(_FIELD << rs for rs, _ in chain) for chain in _CHAIN)


def pack(exponents):
    """The key of six exponents (t, x1, x2, x3, r^-1, rho12^-1); raises
    ExponentOverflow for an exponent outside 0..MAX_EXPONENT."""
    if len(exponents) != len(AXES):
        raise ValueError(f"a key has {len(AXES)} exponents, got {len(exponents)}")
    key = 0
    for e in exponents:
        e = operator.index(e)
        if not 0 <= e <= MAX_EXPONENT:
            raise ExponentOverflow(f"exponent {e} outside 0..{MAX_EXPONENT} in "
                                   f"{tuple(exponents)}")
        key = key << _BITS | e
    return key


def unpack(key):
    """The six exponents of a key, as a tuple of ints."""
    return tuple(key >> s & _FIELD for s in _SHIFTS)


def _checked(c):
    """c, a {key: coefficient} dict, unless one of its keys has an
    exponent above MAX_EXPONENT."""
    if reduce(operator.or_, c, 0) & _GUARD:
        bad = next(unpack(k) for k in c if k & _GUARD)
        raise ExponentOverflow(f"exponent above {MAX_EXPONENT} in {bad}")
    return c


def _poly(c):
    """A Poly holding the dict c, which has no zero coefficient."""
    p = object.__new__(Poly)
    p.c = c
    return p


def _diff_terms(c, axis, shift):
    """The terms of d/dx^axis of {key: coefficient} c, each key moved by
    ``shift`` (the key of a monomial factor): {key: coefficient} in the
    order of first appearance, zero sums kept."""
    s, field, chain, radii = _SHIFTS[axis], _FIELD, _CHAIN[axis], _CHAIN_MASK[axis]
    down = shift - _UNIT[axis]
    out = {}
    get = out.get
    for k, v in c.items():
        e = k >> s & field
        if e:
            dk = k + down
            out[dk] = get(dk, 0) + e * v
        if k & radii:
            for rs, step in chain:
                a = k >> rs & field
                if a:
                    dk = k + step + shift
                    out[dk] = get(dk, 0) - a * v
    return out


class Poly:
    """Exact polynomial in t, x1, x2, x3, 1/r and 1/rho12, stored as
    {packed exponent key: coefficient}."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        coeffs = coeffs or {}
        for k in coeffs:
            if type(k) is not int:
                raise TypeError(f"Poly keys are ints built by pack(), got {k!r}")
            if not 0 <= k < _KEY_END or k & _GUARD:
                raise ExponentOverflow(f"key {k:#x} is not six exponents in "
                                       f"0..{MAX_EXPONENT}")
        self.c = {k: v for k, v in coeffs.items() if v != 0}

    @classmethod
    def zero(cls):
        return _poly({})

    @classmethod
    def const(cls, v):
        return _poly({ZERO_KEY: v} if v != 0 else {})

    @classmethod
    def var(cls, axis):
        return _poly({_UNIT[axis]: 1})

    def is_zero(self):
        return not self.c

    def __add__(self, other):
        if type(other) is not Poly:
            if isinstance(other, numbers.Number):
                other = Poly.const(other)
            elif not isinstance(other, Poly):
                return NotImplemented
        out = dict(self.c)
        for k, v in other.c.items():
            w = out.get(k, 0) + v
            if w == 0:
                out.pop(k, None)
            else:
                out[k] = w
        return _poly(out)

    __radd__ = __add__

    def __neg__(self):
        return _poly({k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        if type(other) is not Poly:
            if isinstance(other, numbers.Number):
                other = Poly.const(other)
            elif not isinstance(other, Poly):
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Poly:
            if isinstance(other, numbers.Number):
                if other == 0:
                    return _poly({})
                return _poly({k: v * other for k, v in self.c.items()})
            if not isinstance(other, Poly):
                return NotImplemented
        out = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = k1 + k2
                w = out.get(k, 0) + v1 * v2
                if w == 0:
                    out.pop(k, None)
                else:
                    out[k] = w
        return _poly(_checked(out))

    __rmul__ = __mul__

    def diff(self, axis):
        """d/dx^axis (axis 0..3); a radius power differentiates by the
        chain rule, d_i r^-a = -a x_i r^-(a+2)."""
        terms = _diff_terms(self.c, axis, 0)
        if 0 in terms.values():   # only where terms cancelled
            terms = {k: v for k, v in terms.items() if v != 0}
        return _poly(_checked(terms))

    def monomial_action(self, components):
        """sum_mu c_mu x^{k_mu} d_mu self for a vector field whose
        components are the monomials c_mu x^{k_mu}, given as (mu, k_mu,
        c_mu) triples with nonzero c_mu.

        One pass over the keys per component, no intermediate Poly: the
        result is the dict, in the same order, that summing the products
        ``Poly({k_mu: c_mu}) * self.diff(mu)`` left to right builds.
        """
        out = None
        for axis, shift, cv in components:
            terms = _diff_terms(self.c, axis, shift)
            if out is None:
                out = {k: (v if cv == 1 else cv * v) for k, v in terms.items() if v != 0}
                continue
            for k, v in terms.items():
                if v != 0:
                    w = out.get(k, 0) + (v if cv == 1 else cv * v)
                    if w == 0:
                        out.pop(k, None)
                    else:
                        out[k] = w
        return _poly(_checked(out or {}))

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
                for a, e in enumerate(unpack(k)) if e
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
    dicts = [s.c for s in scalars]
    starts, filled, nrows = [], [], 0
    for j, c in enumerate(dicts):
        if c:  # reduceat needs strictly increasing starts
            starts.append(nrows)
            filled.append(j)
            nrows += len(c)
    n = pts.shape[0]
    out = np.zeros((n, len(scalars)))
    if not nrows:
        return out
    # The union of the keys in order of first appearance, and the union
    # position of every term.
    index = dict.fromkeys(itertools.chain.from_iterable(dicts))
    index = dict(zip(index, range(len(index))))
    rows = np.fromiter(map(index.__getitem__, itertools.chain.from_iterable(dicts)),
                       dtype=np.intp, count=nrows)
    coefs = np.fromiter(itertools.chain.from_iterable(c.values() for c in dicts),
                        dtype=float, count=nrows)[:, None]
    # unpack on every key at once: one column of exponents per key axis
    keys = np.fromiter(index, dtype=np.int64, count=len(index))[:, None] >> _SHIFT_ROW & _FIELD
    axes = [(ax, int(top)) for ax, top in enumerate(keys.max(axis=0)) if top]
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
            k = rng.integers(0, degree + 1, size=4).tolist()
            if sum(k) <= degree and (time_dependent or k[0] == 0):
                break
        v = int(rng.integers(-3, 4))
        if v:
            k = pack(k + [0, 0])
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
