"""Weight functions of the retarded parameter q = r - t.

    w(q)    = (1+|q|)^(1+2*gamma)  for q > 0,   1               for q < 0
    what(q) = (1+|q|)^(1+2*gamma)  for q > 0,   (1+|q|)^(2*mu)  for q < 0
    wtilde  = what + w

with gamma > 0 and mu < 0.  Values at the q = 0 kink are defined by
continuity (both branches agree there); derivative queries exactly at the
kink raise KinkPoint rather than silently picking a branch -- quadratures
never need the derivative on that measure-zero set.

All functions accept scalars or numpy arrays.  Pure functions; safe for
unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, KinkPoint


@dataclass(frozen=True)
class WeightParams:
    gamma: float = 0.5
    mu: float = -0.25

    def __post_init__(self):
        if not self.gamma > 0:
            raise ConstraintError("gamma must be > 0")
        if not self.mu < 0:
            raise ConstraintError("mu must be < 0")


def _by_side(q, pos, neg):
    """pos(b) where q > 0 and neg(b) elsewhere, with b = 1 + |q|.

    Each branch is evaluated on its own side of the kink only, so a power
    is computed once per element.  A scalar q stays a numpy scalar, as in
    the whole-array form ``np.where(q > 0, pos(b), neg(b))``; the values
    are that form's, element by element.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim == 0:
        return (pos if q > 0 else neg)(1.0 + np.abs(q))
    out = np.empty(q.shape)
    up = q > 0
    for side, fn in ((up, pos), (~up, neg)):
        out[side] = fn(1.0 + np.abs(q[side]))
    return out


def _check_kink(q):
    if np.any(np.asarray(q) == 0.0):
        raise KinkPoint("weight derivative undefined at q = 0")


def _ret(val, q):
    return float(val) if np.isscalar(q) or np.ndim(q) == 0 else val


def w(q, params: WeightParams):
    a = 1.0 + 2.0 * params.gamma
    return _ret(_by_side(q, lambda b: b ** a, lambda b: 1.0), q)


def w_prime(q, params: WeightParams):
    _check_kink(q)
    c, a = 1.0 + 2.0 * params.gamma, 2.0 * params.gamma
    return _ret(_by_side(q, lambda b: c * b ** a, lambda b: 0.0), q)


def w_hat(q, params: WeightParams):
    a, m = 1.0 + 2.0 * params.gamma, 2.0 * params.mu
    return _ret(_by_side(q, lambda b: b ** a, lambda b: b ** m), q)


def w_hat_prime(q, params: WeightParams):
    # For q < 0, d|q|/dq = -1 makes the derivative -2 mu (1+|q|)^(2 mu - 1) > 0.
    _check_kink(q)
    c, a = 1.0 + 2.0 * params.gamma, 2.0 * params.gamma
    d, m = -2.0 * params.mu, 2.0 * params.mu - 1.0
    return _ret(_by_side(q, lambda b: c * b ** a, lambda b: d * b ** m), q)


def w_tilde(q, params: WeightParams):
    # w + what: P + P with P = (1+|q|)^(1+2 gamma) for q > 0, 1 + (1+|q|)^(2 mu) else
    a, m = 1.0 + 2.0 * params.gamma, 2.0 * params.mu

    def pos(b):
        P = b ** a
        return P + P

    return _ret(_by_side(q, pos, lambda b: 1.0 + b ** m), q)


def w_tilde_prime(q, params: WeightParams):
    # w' + what': R + R with R = (1+2 gamma)(1+|q|)^(2 gamma) for q > 0, what' else
    _check_kink(q)
    c, a = 1.0 + 2.0 * params.gamma, 2.0 * params.gamma
    d, m = -2.0 * params.mu, 2.0 * params.mu - 1.0

    def pos(b):
        R = c * b ** a
        return R + R

    return _ret(_by_side(q, pos, lambda b: 0.0 + d * b ** m), q)
