"""Flat metric, null frame construction, and frame projections.

Conventions. Coordinates are (t, x1, x2, x3) with the flat metric
m = diag(-1, +1, +1, +1); indices are raised and lowered with m, which for
a diagonal metric is a sign flip on the time slot.  Coordinate tensors are
numpy arrays of shape (4,)*rank + optional trailing channel axes.

The null frame at a point with r > 0 is

    L    = d_t + (x^i/r) d_i,      Lbar = d_t - (x^i/r) d_i,

plus an orthonormal sphere-tangent pair (e1, e2) built by one rule from
two overlapping charts: the pair adapted to the x3 axis away from the
poles, and the pair adapted to the x1 axis inside the polar caps
|x3|/r > 0.9.  Both spans agree where the charts overlap (the projector
onto the tangent plane is chart independent).  The frame is written
once, as :func:`frame_arrays` over coordinate arrays; the grid's frame
fields (``fields.GridGeometry.frame``) and the exact lane's point
batches (n, 4) both evaluate it.  A single point is a one-row batch.

Everything here is pure value semantics; nothing is mutated after
construction, so all operations are safe under unrestricted concurrency.
"""

from __future__ import annotations

import numpy as np

MINKOWSKI = np.diag([-1.0, 1.0, 1.0, 1.0])
MINKOWSKI_INV = np.diag([-1.0, 1.0, 1.0, 1.0])

POLAR_CAP = 0.9  # |x3|/r threshold switching the sphere chart


TANGENTIAL_NAMES = ("L", "e1", "e2")
FULL_NAMES = ("Lbar", "L", "e1", "e2")


def radius(x1, x2, x3):
    """r = |x| over coordinate arrays (any common shape)."""
    return np.sqrt(x1 ** 2 + x2 ** 2 + x3 ** 2)


def null_vector(r, x1, x2, x3, sign=1.0):
    """The radial half of the frame: L = (1, x/r) for sign +1, Lbar =
    (1, -x/r) for sign -1, shape (4,) + r.shape.  The spatial part is 0
    where r = 0."""
    rs = np.where(r == 0.0, 1.0, r)
    out = np.empty((4,) + r.shape)
    out[0] = 1.0
    for i, x in enumerate((x1, x2, x3), 1):
        out[i] = x / rs
    if sign < 0:
        np.negative(out[1:], out=out[1:])
    return out


def sphere_frame(xh):
    """The sphere half of the frame: (e1, e2), each (4,) + xh.shape[1:],
    from the unit radial vector xh = x/r (3, ...), e.g. L[1:]: the
    x3-axis chart's pair, replaced by the x1-axis chart's inside the
    polar caps."""
    shape = xh.shape[1:]

    def pair(axis):
        n = np.zeros((3,) + (1,) * len(shape))
        n[axis] = 1.0
        u = np.cross(np.broadcast_to(n, (3,) + shape), xh, axis=0)
        nu = np.sqrt(np.sum(u ** 2, axis=0))
        nu = np.where(nu == 0.0, 1.0, nu)
        ephi = u / nu
        etheta = np.cross(ephi, xh, axis=0)
        return etheta, ephi

    et, ep = pair(2)
    cap = np.abs(xh[2]) > POLAR_CAP
    for mine, cap_value in zip((et, ep), pair(0)):
        np.copyto(mine, cap_value, where=cap)
    e1 = np.zeros((4,) + shape)
    e2 = np.zeros((4,) + shape)
    e1[1:] = et
    e2[1:] = ep
    return e1, e2


def frame_arrays(x1, x2, x3):
    """Vectorized frame over coordinate arrays (any common shape): the
    radial half (:func:`null_vector`) and the sphere half
    (:func:`sphere_frame`) together.

    Returns dict of arrays with a leading slot axis of length 4:
    {"L": (4, ...), "Lbar": ..., "e1": ..., "e2": ..., "r": (...,)}.
    Entries at r = 0 would be undefined; callers must not index them
    (cell-centered grids never place a node at the origin, and the
    exact lane's consumers raise PoleDegenerate there).
    """
    r = radius(x1, x2, x3)
    L = null_vector(r, x1, x2, x3)
    e1, e2 = sphere_frame(L[1:])
    return {"L": L, "Lbar": null_vector(r, x1, x2, x3, -1.0), "e1": e1, "e2": e2, "r": r}
