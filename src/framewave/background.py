"""Prescribed analytic perturbations H of the inverse flat metric.

The evolution consumes g^{mu nu} = m^{mu nu} + H^{mu nu} with H supplied
by an analytic family rather than solved for; families stay below the
|H| < 1/3 smallness threshold whenever epsilon <= 0.3.  Each family
provides exact pointwise values and first derivatives, both on point
batches and on full grid cubes.
"""

from __future__ import annotations

import numpy as np

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
    """Interface: H_at/dH_at on (n, 4) points, H_full/dH_full on grids."""

    epsilon = 0.0

    def is_flat(self):
        return False

    def H_at(self, pts):
        raise NotImplementedError

    def dH_at(self, pts):
        raise NotImplementedError

    def H_full(self, geom, t):
        pts = geom.points_full(t)
        n = geom.n_full
        return np.moveaxis(self.H_at(pts), 0, -1).reshape(4, 4, n, n, n)

    def dH_full(self, geom, t):
        pts = geom.points_full(t)
        n = geom.n_full
        return np.moveaxis(self.dH_at(pts), 0, -1).reshape(4, 4, 4, n, n, n)

    def sup_abs(self):
        """Upper bound on the Frobenius norm |H| over spacetime."""
        raise NotImplementedError

    def g_inv_full(self, geom, t):
        n = geom.n_full
        g = np.zeros((4, 4, n, n, n))
        g += MINKOWSKI_INV[:, :, None, None, None]
        if not self.is_flat():
            g += self.H_full(geom, t)
        return g


class ZeroBackground(Background):
    def is_flat(self):
        return True

    def H_at(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.zeros((pts.shape[0], 4, 4))

    def dH_at(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.zeros((pts.shape[0], 4, 4, 4))

    def H_full(self, geom, t):
        n = geom.n_full
        return np.zeros((4, 4, n, n, n))

    def dH_full(self, geom, t):
        n = geom.n_full
        return np.zeros((4, 4, 4, n, n, n))

    def sup_abs(self):
        return 0.0


class BumpBackground(Background):
    """H = epsilon * chi(|x - c(t)| / R) * M with chi(s) = (1 - s^2)^3.

    chi is C^2 with compact support; M is symmetric with |M| = 1, so
    |H| <= epsilon everywhere.  A nonzero velocity makes the bump travel
    (|v| < 1), giving a time-dependent background with exact dH/dt.
    """

    def __init__(self, epsilon, center=(0.0, 0.0, 0.0), radius=4.0,
                 velocity=(0.0, 0.0, 0.0), direction=None):
        self.epsilon = float(epsilon)
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.velocity = np.asarray(velocity, dtype=float)
        if np.linalg.norm(self.velocity) >= 1.0:
            raise ValueError("bump velocity must stay below lightspeed")
        M = _DEFAULT_DIRECTION if direction is None else np.asarray(direction, float)
        M = 0.5 * (M + M.T)
        self.direction = M / np.linalg.norm(M)

    def is_flat(self):
        return self.epsilon == 0.0

    def _chi_parts(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        c = self.center[None, :] + pts[:, 0:1] * self.velocity[None, :]
        d = pts[:, 1:4] - c
        s2 = np.sum(d * d, axis=1) / self.radius ** 2
        inside = s2 < 1.0
        one = np.where(inside, 1.0 - s2, 0.0)
        chi = one ** 3
        # d(chi)/d(s2) = -3 (1 - s2)^2;  grad s2 = 2 d_i / R^2, dt s2 = -2 d.v / R^2
        dchi_ds2 = -3.0 * one ** 2
        grad = np.zeros((pts.shape[0], 4))
        grad[:, 1:4] = dchi_ds2[:, None] * 2.0 * d / self.radius ** 2
        grad[:, 0] = dchi_ds2 * (-2.0) * np.sum(d * self.velocity[None, :], axis=1) / self.radius ** 2
        grad[~inside] = 0.0
        return chi, grad

    def H_at(self, pts):
        chi, _ = self._chi_parts(pts)
        return self.epsilon * chi[:, None, None] * self.direction[None, :, :]

    def dH_at(self, pts):
        _, grad = self._chi_parts(pts)
        return self.epsilon * grad[:, :, None, None] * self.direction[None, None, :, :]

    def sup_abs(self):
        return abs(self.epsilon)


class PolyBackground(Background):
    """Exact polynomial H (rank-2 contravariant symmetric PolyField)."""

    def __init__(self, field, epsilon=None, sup_bound=None):
        self.field = field
        self.epsilon = epsilon if epsilon is not None else float("nan")
        self._sup = sup_bound

    def is_flat(self):
        return self.field is None or self.field.is_zero()

    def H_at(self, pts):
        return self.field.eval(pts)[..., 0]

    def dH_at(self, pts):
        return self.field.gradient().eval(pts)[..., 0]

    def sup_abs(self):
        return self._sup if self._sup is not None else float("inf")


def make_background(family, epsilon=0.0, **kwargs):
    if family == "zero" or epsilon == 0.0:
        return ZeroBackground()
    if family == "static-bump":
        kwargs.pop("velocity", None)
        return BumpBackground(epsilon, **kwargs)
    if family == "traveling-bump":
        kwargs.setdefault("velocity", (0.3, 0.0, 0.0))
        return BumpBackground(epsilon, **kwargs)
    if family == "poly":
        return PolyBackground(kwargs["field"], epsilon=epsilon,
                              sup_bound=kwargs.get("sup_bound"))
    raise ValueError(f"unknown background family {family!r}")
