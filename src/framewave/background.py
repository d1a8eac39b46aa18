"""Prescribed analytic perturbations H of the inverse flat metric.

The evolution consumes g^{mu nu} = m^{mu nu} + H^{mu nu} with H supplied
by an analytic family rather than solved for; families stay below the
|H| < 1/3 smallness threshold whenever |epsilon| <= 0.3.

Every family is a scalar profile times a constant direction,

    H^{mu nu}(t, x) = chi(t, x) M^{mu nu},

with chi already scaled by epsilon and M a fixed symmetric unit matrix.
Callers contract M once and multiply by chi or its 4-gradient dchi
instead of building dense (4, 4, n, n, n) tensors.  A bump profile is
evaluated only on the index box of its support (clipped to the grid,
possibly empty); every cell outside that box is exactly 0.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstraintError
from .geometry import MINKOWSKI_INV

# Fixed symmetric direction with unit Frobenius norm; generic enough to
# populate every frame component of H.
_DEFAULT_DIRECTION = np.array(
    [
        [0.5, 0.2, 0.1, 0.1],
        [0.2, -0.4, 0.1, 0.0],
        [0.1, 0.1, 0.3, 0.1],
        [0.1, 0.0, 0.1, -0.2],
    ]
)
_DEFAULT_DIRECTION = _DEFAULT_DIRECTION / np.linalg.norm(_DEFAULT_DIRECTION)


class Background:
    """Interface: H = chi * direction with a scalar profile chi on the grid.

    ``profile(geom, t)`` returns chi (n, n, n) and its 4-gradient dchi
    (4, n, n, n) on the full cube; ``direction`` is the constant M.
    H_full, dH_full and g_inv_full are dense tensors derived from them,
    for the few callers that need pointwise 4x4 algebra.
    """

    epsilon = 0.0
    direction = np.zeros((4, 4))

    def is_flat(self):
        return False

    def profile(self, geom, t):
        raise NotImplementedError

    def H_full(self, geom, t):
        chi, _ = self.profile(geom, t)
        return chi * self.direction[:, :, None, None, None]

    def dH_full(self, geom, t):
        _, dchi = self.profile(geom, t)
        return dchi[:, None, None] * self.direction[None, :, :, None, None, None]

    def sup_abs(self):
        """Upper bound on the Frobenius norm |H| over spacetime."""
        raise NotImplementedError

    def g_inv_full(self, geom, t):
        return MINKOWSKI_INV[:, :, None, None, None] + self.H_full(geom, t)


class ZeroBackground(Background):
    def is_flat(self):
        return True

    def profile(self, geom, t):
        n = geom.n_full
        return np.zeros((n, n, n)), np.zeros((4, n, n, n))

    def sup_abs(self):
        return 0.0


class BumpBackground(Background):
    """H = epsilon * chi(|x - c(t)| / R) * M with chi(s) = (1 - s^2)^3.

    chi is C^2 with compact support in the ball |x - c(t)| < R; M is
    symmetric with |M| = 1, so |H| <= |epsilon| everywhere.  A nonzero
    velocity makes the bump travel, c(t) = center + t v (|v| < 1), giving
    a time-dependent background with exact dH/dt.
    """

    def __init__(self, epsilon, center=(0.0, 0.0, 0.0), radius=4.0,
                 velocity=(0.0, 0.0, 0.0), direction=None):
        self.epsilon = float(epsilon)
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.velocity = np.asarray(velocity, dtype=float)
        if np.linalg.norm(self.velocity) >= 1.0:
            raise ConstraintError("bump velocity must stay below lightspeed")
        M = _DEFAULT_DIRECTION if direction is None else np.asarray(direction, float)
        M = 0.5 * (M + M.T)
        self.direction = M / np.linalg.norm(M)

    def is_flat(self):
        return self.epsilon == 0.0

    def profile(self, geom, t):
        """epsilon * chi and its 4-gradient, evaluated on the support box.

        Along each axis the box keeps the nodes with |x_k - c_k(t)| < R;
        a node outside it has s^2 >= 1 in floating point too, so the box
        drops no nonzero value.
        """
        n = geom.n_full
        chi = np.zeros((n, n, n))
        dchi = np.zeros((4, n, n, n))
        c = self.center + t * self.velocity
        R2 = self.radius ** 2
        d, box = [], []
        for k in range(3):
            dk = geom.axis - c[k]
            idx = np.flatnonzero(np.abs(dk) < self.radius)
            if idx.size == 0:
                return chi, dchi
            box.append(slice(idx[0], idx[-1] + 1))
            d.append(dk[box[-1]])
        d = [d[0][:, None, None], d[1][None, :, None], d[2][None, None, :]]
        s2 = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]) / R2
        inside = s2 < 1.0
        one = np.where(inside, 1.0 - s2, 0.0)
        # d(chi)/d(s2) = -3 (1 - s2)^2;  grad s2 = 2 d_i / R^2, dt s2 = -2 d.v / R^2
        dchi_ds2 = -3.0 * one ** 2
        grad = np.zeros((4,) + s2.shape)
        for k in range(3):
            grad[1 + k] = dchi_ds2 * 2.0 * d[k] / R2
        if np.any(self.velocity):
            v = self.velocity
            grad[0] = dchi_ds2 * (-2.0) * (d[0] * v[0] + d[1] * v[1] + d[2] * v[2]) / R2
        grad[:, ~inside] = 0.0
        box = tuple(box)
        chi[box] = self.epsilon * one ** 3
        dchi[(slice(None),) + box] = self.epsilon * grad
        return chi, dchi

    def sup_abs(self):
        return abs(self.epsilon)


def make_background(family, epsilon=0.0, **kwargs):
    if family == "zero" or epsilon == 0.0:
        return ZeroBackground()
    if family == "static-bump":
        kwargs.pop("velocity", None)
        return BumpBackground(epsilon, **kwargs)
    if family == "traveling-bump":
        kwargs.setdefault("velocity", (0.3, 0.0, 0.0))
        return BumpBackground(epsilon, **kwargs)
    raise ValueError(f"unknown background family {family!r}")
