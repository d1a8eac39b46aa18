"""Prescribed analytic perturbations H of the inverse flat metric.

The evolution consumes g^{mu nu} = m^{mu nu} + H^{mu nu} with H supplied
by an analytic family rather than solved for; families stay below the
|H| < 1/3 smallness threshold whenever |epsilon| <= 0.3.

Every family is one class, ``BumpBackground``: a scalar profile times a
constant direction,

    H^{mu nu}(t, x) = chi(t, x) M^{mu nu},

with chi already scaled by epsilon and M a fixed symmetric unit matrix;
the zero family is the bump with epsilon 0.  Callers contract M once and
multiply by chi or its 4-gradient dchi; no dense (4, 4, n, n, n) tensor
of H is ever built.  The background states that structure once: its
``hessian_terms`` list the nonzero entries of M with the weights of
H^{ab} d_a d_b, which the grid lane's wave-operator kernel
(``fields.h_on_box``) and the manufactured sources read.  The primitive
is the support box: ``support(geom, t)`` returns the index box of the
support (clipped to the grid) with chi and dchi on it, or None where H
vanishes on the whole cube.  Every cell outside the box is exactly 0, so
consumers do their H work on the box only, pointwise 4x4 algebra on
g = m + chi M included; ``profile`` is the zero-filled scatter of the
same result onto the full cube.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstraintError
from .geometry import MINKOWSKI, MINKOWSKI_INV

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


class BumpBackground:
    """H = epsilon * chi(|x - c(t)| / R) * M with chi(s) = (1 - s^2)^3.

    chi is C^2 with compact support in the ball |x - c(t)| < R; M is
    symmetric with |M| = 1, so |H| <= |epsilon| everywhere.  A nonzero
    velocity makes the bump travel, c(t) = center + t v (|v| < 1), giving
    a time-dependent background with exact dH/dt.  epsilon = 0 is the flat
    background.

    ``support(geom, t)`` returns (box, chi, dchi): a tuple of three slices
    of the full cube outside which chi is exactly 0, chi on the box and
    its 4-gradient (4, *box shape), or None when H vanishes on the whole
    cube.  ``profile(geom, t)`` scatters them onto the full cube, chi
    (n, n, n) and dchi (4, n, n, n); ``direction`` is the constant M.
    ``hessian_terms`` lists (a, b, c) for a <= b and M_ab != 0 with
    c = (2 - delta_ab) M_ab, so that H^{ab} d_a d_b = chi * sum c d_a d_b;
    it is empty when epsilon is 0.  Callers that need pointwise 4x4
    algebra on g = m + chi M (the CFL speed bound, the covariant h of the
    schematic sources) do it on the box, since g = m exactly outside it;
    ``covariant_tt`` is the covariant h.
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
        self.hessian_terms = () if self.is_flat() else tuple(
            (a, b, float((1.0 if a == b else 2.0) * self.direction[a, b]))
            for a in range(4) for b in range(a, 4) if self.direction[a, b])
        self._static = {}

    def is_flat(self):
        return self.epsilon == 0.0

    def support(self, geom, t):
        """The support box at time t with epsilon * chi and its 4-gradient
        on it, or None when epsilon is 0 or the box is empty.

        Along each axis the box keeps the nodes with |x_k - c_k(t)| < R,
        clipped to the cube; a node outside it has s^2 >= 1 in floating
        point too, so the box drops no nonzero value.  A static bump
        computes its support once per grid and returns the same read-only
        arrays at every t.
        """
        return self._per_grid(self._support_at, geom, t)

    def covariant_tt(self, geom, t):
        """The tt component of the covariant perturbation h = g - m on the
        support box and its 4-gradient: (box, h_tt, dh_tt) with dh_tt of
        shape (4, *box shape), or None where ``support`` is None.

        g_cov is the pointwise inverse of g^{mu nu} = m + chi M; the
        gradient is -g_cov (dH) g_cov = -(g_cov M g_cov) dchi.  Like the
        support, a static bump computes them once per grid.
        """
        return self._per_grid(self._covariant_tt_at, geom, t)

    def _per_grid(self, compute, geom, t):
        """compute(geom, t); for a static bump computed once per grid and
        kept, its arrays read-only."""
        if np.any(self.velocity):
            return compute(geom, t)
        key = (compute.__name__, geom.N, geom.X)
        if key not in self._static:
            val = compute(geom, t)
            if val is not None:
                for arr in val[1:]:
                    arr.setflags(write=False)
            self._static[key] = val
        return self._static[key]

    def _covariant_tt_at(self, geom, t):
        sup = self.support(geom, t)
        if sup is None:
            return None
        box, chi, dchi = sup
        M = self.direction
        g_cov = np.linalg.inv(MINKOWSKI_INV + chi[..., None, None] * M)
        gMg = np.einsum("...j,jk,...k->...", g_cov[..., 0, :], M, g_cov[..., :, 0])
        return box, g_cov[..., 0, 0] - MINKOWSKI[0, 0], -gMg * dchi

    def _support_at(self, geom, t):
        if self.is_flat():
            return None
        c = self.center + t * self.velocity
        R2 = self.radius ** 2
        d, box = [], []
        for k in range(3):
            dk = geom.axis - c[k]
            idx = np.flatnonzero(np.abs(dk) < self.radius)
            if idx.size == 0:
                return None
            box.append(slice(int(idx[0]), int(idx[-1]) + 1))
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
        return tuple(box), self.epsilon * one ** 3, self.epsilon * grad

    def profile(self, geom, t):
        n = geom.n_full
        chi, dchi = np.zeros((n, n, n)), np.zeros((4, n, n, n))
        sup = self.support(geom, t)
        if sup is not None:
            box, chi_box, dchi_box = sup
            chi[box] = chi_box
            dchi[(slice(None),) + box] = dchi_box
        return chi, dchi

    def sup_abs(self):
        """Upper bound on the Frobenius norm |H| over spacetime."""
        return abs(self.epsilon)


def make_background(family, epsilon=0.0, center=(0.0, 0.0, 0.0), radius=4.0,
                    velocity=(0.3, 0.0, 0.0)):
    """The background of a config family; a static bump ignores the
    velocity."""
    if family == "zero" or epsilon == 0.0:
        return BumpBackground(0.0)
    if family == "static-bump":
        return BumpBackground(epsilon, center=center, radius=radius)
    if family == "traveling-bump":
        return BumpBackground(epsilon, center=center, radius=radius, velocity=velocity)
    raise ValueError(f"unknown background family {family!r}")
