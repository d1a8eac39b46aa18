"""Flat metric, null frame construction, and frame projections.

Conventions. Coordinates are (t, x1, x2, x3) with the flat metric
m = diag(-1, +1, +1, +1); indices are raised and lowered with m, which for
a diagonal metric is a sign flip on the time slot.  Coordinate tensors are
numpy arrays of shape (4,)*rank + optional trailing channel axes.

The null frame at a point with r > 0 is

    L    = d_t + (x^i/r) d_i,      Lbar = d_t - (x^i/r) d_i,

plus an orthonormal sphere-tangent pair (e1, e2) built from one of two
overlapping charts: the pair adapted to the x3 axis away from the poles,
and the pair adapted to the x1 axis inside the polar caps |x3|/r > 0.9.
Both spans agree where the charts overlap (the projector onto the tangent
plane is chart independent).

Everything here is pure value semantics; nothing is mutated after
construction, so all operations are safe under unrestricted concurrency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PoleDegenerate, RankMismatch

MINKOWSKI = np.diag([-1.0, 1.0, 1.0, 1.0])
MINKOWSKI_INV = np.diag([-1.0, 1.0, 1.0, 1.0])

POLAR_CAP = 0.9  # |x3|/r threshold switching the sphere chart


@dataclass(frozen=True)
class Point:
    """Spacetime event with derived radius and retarded parameter q = r - t."""

    t: float
    x: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "t", float(self.t))

    @property
    def r(self):
        return float(np.sqrt(sum(v * v for v in self.x)))

    @property
    def q(self):
        return self.r - self.t

    def coords(self):
        return np.array((self.t,) + self.x)


@dataclass(frozen=True)
class Frame:
    """Null frame {Lbar, L, e1, e2} at a point, as contravariant 4-vectors."""

    L: np.ndarray
    Lbar: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    def tangential(self):
        return (self.L, self.e1, self.e2)

    def full(self):
        return (self.Lbar, self.L, self.e1, self.e2)

    def by_name(self, name):
        return {"L": self.L, "Lbar": self.Lbar, "e1": self.e1, "e2": self.e2}[name]


TANGENTIAL_NAMES = ("L", "e1", "e2")
FULL_NAMES = ("Lbar", "L", "e1", "e2")


@dataclass
class Metric:
    """Flat metric plus an optional exact contravariant perturbation H.

    g^{mu nu} = m^{mu nu} + H^{mu nu}.  The covariant perturbation
    h = g - m is only needed on the grid lane, where it is computed
    numerically from H (see evolve); the exact lane works with H alone.
    """

    H: object = None  # rank-2 contravariant PolyField, or None for flat
    m: np.ndarray = field(default_factory=lambda: MINKOWSKI.copy())


def _sphere_pair(xhat, axis):
    n = np.zeros(3)
    n[axis] = 1.0
    u = np.cross(n, xhat)
    nu = np.linalg.norm(u)
    e_phi = u / nu
    e_theta = np.cross(e_phi, xhat)
    v1 = np.zeros(4)
    v2 = np.zeros(4)
    v1[1:] = e_theta
    v2[1:] = e_phi
    return v1, v2


def null_frame_at(p: Point, chart: str = "auto") -> Frame:
    """Null frame at p; raises PoleDegenerate at the spatial origin.

    chart: "auto" applies the polar-cap rule; "z" / "x" force one chart
    (useful when matching a fixed symbolic chart at sampled points).
    """
    r = p.r
    if r == 0.0:
        raise PoleDegenerate("null frame undefined at r = 0")
    xhat = np.asarray(p.x) / r
    L = np.zeros(4)
    L[0] = 1.0
    L[1:] = xhat
    Lbar = np.zeros(4)
    Lbar[0] = 1.0
    Lbar[1:] = -xhat
    if chart == "auto":
        chart = "x" if abs(xhat[2]) > POLAR_CAP else "z"
    axis = {"z": 2, "x": 0}[chart]
    e1, e2 = _sphere_pair(xhat, axis)
    return Frame(L=L, Lbar=Lbar, e1=e1, e2=e2)


def lower_index(v):
    """Covector m_{mu nu} v^nu: sign flip on the time slot."""
    out = np.array(v, dtype=float)
    out[0] = -out[0]
    return out


def raise_index(xi):
    """Vector m^{mu nu} xi_nu: sign flip on the time slot."""
    return lower_index(xi)


def frame_component(T, v1, v2=None):
    """Full contraction of a coordinate tensor with one or two vectors.

    T has shape (4,)*rank + channel axes; returns the contracted value with
    the channel axes preserved.  Raises RankMismatch when the number of
    supplied vectors does not match the leading tensor slots.
    """
    T = np.asarray(T, dtype=float)
    vecs = [np.asarray(v1, dtype=float)]
    if v2 is not None:
        vecs.append(np.asarray(v2, dtype=float))
    rank = 0
    shape = T.shape
    while rank < len(shape) and shape[rank] == 4 and rank < len(vecs):
        rank += 1
    if rank != len(vecs) or (len(shape) > rank and shape[:rank] != (4,) * rank):
        if len(shape) < len(vecs) or shape[: len(vecs)] != (4,) * len(vecs):
            raise RankMismatch(
                f"tensor shape {shape} incompatible with {len(vecs)} contraction vectors"
            )
    out = T
    for v in vecs:
        out = np.tensordot(v, out, axes=(0, 0))
    return out


def frobenius_norm(T):
    """Square root of the sum of squared entries over all slots and channels."""
    T = np.asarray(T, dtype=float)
    return float(np.sqrt(np.sum(T * T)))


def frame_coefficients(v, frame: Frame):
    """Expansion coefficients of v in the frame {Lbar, L, e1, e2}.

    v = c_Lbar Lbar + c_L L + c_e1 e1 + c_e2 e2 with
    c_Lbar = -m(L, v)/2, c_L = -m(Lbar, v)/2, c_eA = m(eA, v).
    """
    mv = MINKOWSKI @ np.asarray(v, dtype=float)
    return {
        "Lbar": -0.5 * float(frame.L @ mv),
        "L": -0.5 * float(frame.Lbar @ mv),
        "e1": float(frame.e1 @ mv),
        "e2": float(frame.e2 @ mv),
    }


def sphere_projector(p: Point):
    """Projector onto the sphere-tangent plane at p (spatial 3x3 block)."""
    r = p.r
    if r == 0.0:
        raise PoleDegenerate("projector undefined at r = 0")
    xhat = np.asarray(p.x) / r
    return np.eye(3) - np.outer(xhat, xhat)


def frame_arrays(x1, x2, x3, chart: str = "auto"):
    """Vectorized frame over coordinate arrays (any common shape).

    Returns dict of arrays with a leading slot axis of length 4:
    {"L": (4, ...), "Lbar": ..., "e1": ..., "e2": ..., "r": (...,)}.
    Entries at r = 0 would be undefined; callers must not index them
    (cell-centered grids never place a node at the origin).
    """
    r = np.sqrt(x1 ** 2 + x2 ** 2 + x3 ** 2)
    rs = np.where(r == 0.0, 1.0, r)
    xh = np.stack([x1 / rs, x2 / rs, x3 / rs])
    shape = r.shape
    L = np.zeros((4,) + shape)
    Lb = np.zeros((4,) + shape)
    L[0] = 1.0
    Lb[0] = 1.0
    L[1:] = xh
    Lb[1:] = -xh

    def pair(axis):
        n = np.zeros((3,) + (1,) * len(shape))
        n[axis] = 1.0
        u = np.cross(np.broadcast_to(n, (3,) + shape), xh, axis=0)
        nu = np.sqrt(np.sum(u ** 2, axis=0))
        nu = np.where(nu == 0.0, 1.0, nu)
        ephi = u / nu
        etheta = np.cross(ephi, xh, axis=0)
        return etheta, ephi

    if chart == "z":
        et, ep = pair(2)
    elif chart == "x":
        et, ep = pair(0)
    else:
        et_z, ep_z = pair(2)
        et_x, ep_x = pair(0)
        cap = np.abs(xh[2]) > POLAR_CAP
        et = np.where(cap, et_x, et_z)
        ep = np.where(cap, ep_x, ep_z)
    e1 = np.zeros((4,) + shape)
    e2 = np.zeros((4,) + shape)
    e1[1:] = et
    e2[1:] = ep
    return {"L": L, "Lbar": Lb, "e1": e1, "e2": e2, "r": r}
