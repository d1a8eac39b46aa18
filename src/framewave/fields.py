"""Tensor field representations: exact polynomial fields and uniform grids.

Two interchangeable lanes share the derivative and norm operators:

* ``PolyField`` wraps exact scalars from :mod:`framewave.poly` in a tensor
  of rank <= 2 with a channel axis; differentiation is exact, so these
  fields back every identity certification.
* ``GridField`` samples a field on a uniform cell-centered grid over
  [-X, X]^3 with a ghost layer of width 2.  Cell centering keeps every
  node away from r = 0, so frame projections are defined everywhere and
  the origin exclusion is purely a quadrature mask.

Spatial derivatives on grids are 4th-order centered stencils; the
"extrapolate" ghost fill reproduces one-sided 4th-order closures at the
domain edge.  Fields are immutable after construction apart from explicit
whole-field ghost fills, so read-only sharing across workers is safe;
stencils and quadratures are plain numpy slicing and parallelize by slab
if a caller chooses to split the arrays.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import EmptyRegion, GhostInvalid, PoleDegenerate
from .geometry import MINKOWSKI_INV, frame_arrays, null_frame_at
from .poly import Poly, _eval_scalars

GHOST = 2

VARIANCE_DOWN = "d"
VARIANCE_UP = "u"


class InnerProduct:
    """Channel-wise Euclidean pairing; positive definite and symmetric."""

    @staticmethod
    def dot(a, b, channel_axis=0):
        return np.sum(np.asarray(a) * np.asarray(b), axis=channel_axis)

    @staticmethod
    def norm_sq(a, channel_axis=0):
        return InnerProduct.dot(a, a, channel_axis=channel_axis)


class PolyField:
    """Tensor field with exact polynomial (or radial-polynomial) components.

    comps is an object array of shape (4,)*rank + (channels,), entries are
    Poly or RadPoly scalars.  variance is a tuple of "d"/"u" per slot
    (covariant by default).
    """

    def __init__(self, rank, channels, comps, variance=None):
        self.rank = int(rank)
        self.channels = int(channels)
        self.comps = comps
        self.variance = tuple(variance) if variance is not None else ("d",) * rank
        assert comps.shape == (4,) * self.rank + (self.channels,)
        assert len(self.variance) == self.rank

    @property
    def shape(self):
        return self.comps.shape

    @classmethod
    def zero(cls, rank=0, channels=1, variance=None):
        comps = np.empty((4,) * rank + (channels,), dtype=object)
        for idx in np.ndindex(comps.shape):
            comps[idx] = Poly.zero()
        return cls(rank, channels, comps, variance)

    @classmethod
    def scalar(cls, polys):
        if not isinstance(polys, (list, tuple)):
            polys = [polys]
        comps = np.empty((len(polys),), dtype=object)
        for i, p in enumerate(polys):
            comps[i] = p
        return cls(0, len(polys), comps)

    @classmethod
    def from_components(cls, comp_dict, rank, channels=1, variance=None):
        """Build from {slot tuple: poly} (single channel) entries."""
        f = cls.zero(rank, channels, variance)
        for idx, p in comp_dict.items():
            key = tuple(idx) if isinstance(idx, tuple) else (idx,)
            f.comps[key + (0,)] = p
        return f

    @classmethod
    def random(cls, rng, rank=0, channels=1, degree=2, nterms=4,
               variance=None, symmetric=False, time_dependent=True):
        from .poly import random_poly

        f = cls.zero(rank, channels, variance)
        for idx in np.ndindex(f.shape):
            f.comps[idx] = random_poly(rng, degree=degree, nterms=nterms,
                                       time_dependent=time_dependent)
        if symmetric and rank == 2:
            for mu in range(4):
                for nu in range(mu):
                    for c in range(channels):
                        f.comps[mu, nu, c] = f.comps[nu, mu, c]
        return f

    def map(self, fn):
        comps = np.empty(self.shape, dtype=object)
        for idx in np.ndindex(self.shape):
            comps[idx] = fn(self.comps[idx])
        return PolyField(self.rank, self.channels, comps, self.variance)

    def __add__(self, other):
        assert self.shape == other.shape and self.variance == other.variance
        comps = np.empty(self.shape, dtype=object)
        for idx in np.ndindex(self.shape):
            comps[idx] = self.comps[idx] + other.comps[idx]
        return PolyField(self.rank, self.channels, comps, self.variance)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, a):
        return self.map(lambda p: p * a)

    def partial(self, mu):
        """Componentwise coordinate derivative (same rank)."""
        return self.map(lambda p: p.diff(mu))

    def gradient(self):
        """Covariant gradient: new leading covariant slot for d_mu."""
        comps = np.empty((4,) + self.shape, dtype=object)
        for mu in range(4):
            for idx in np.ndindex(self.shape):
                comps[(mu,) + idx] = self.comps[idx].diff(mu)
        return PolyField(self.rank + 1, self.channels, comps,
                         ("d",) + self.variance)

    def _move_slot(self, slot, src, dst):
        """Flip the variance of ``slot`` from src to dst with the Minkowski
        metric, which only negates the time entries."""
        assert self.variance[slot] == src
        comps = np.empty(self.shape, dtype=object)
        for idx in np.ndindex(self.shape):
            sign = -1 if idx[slot] == 0 else 1
            comps[idx] = self.comps[idx] * sign
        var = list(self.variance)
        var[slot] = dst
        return PolyField(self.rank, self.channels, comps, var)

    def lower_slot(self, slot):
        return self._move_slot(slot, "u", "d")

    def raise_slot(self, slot):
        return self._move_slot(slot, "d", "u")

    def lower_all(self):
        f = self
        for slot, v in enumerate(self.variance):
            if v == "u":
                f = f.lower_slot(slot)
        return f

    def eval(self, pts):
        """Evaluate at points (n, 4) -> array (n,) + (4,)*rank + (channels,)."""
        vals = _eval_scalars(self.comps.ravel(), pts)
        return vals.reshape((vals.shape[0],) + self.shape)

    def is_zero(self):
        return all(self.comps[idx].is_zero() for idx in np.ndindex(self.shape))


@dataclass
class AnalyticField:
    """Scalar field given by closed-form value/gradient callables.

    value(pts) -> (n,), grad(pts) -> (n, 4).  Used for non-polynomial
    reference profiles (outgoing pulses, radial profiles of q = r - t).
    """

    value: object
    grad: object
    channels: int = 1
    rank: int = 0


def gradient_at(field, pts):
    """(d_mu F)(pts) for PolyField / AnalyticField -> (n, 4) + shape."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if isinstance(field, AnalyticField):
        g = np.asarray(field.grad(pts))
        return g.reshape(pts.shape[0], 4, 1)
    return field.gradient().eval(pts)


def tangential_gradient_norm(field, p):
    """sqrt( sum_{U in {L, e1, e2}} sum_slots |d_U F|^2 ) at a point."""
    frame = null_frame_at(p)  # raises PoleDegenerate at r = 0
    pt = p.coords()[None, :]
    grad = gradient_at(field, pt)[0]  # (4,) + shape
    total = 0.0
    for U in (frame.L, frame.e1, frame.e2):
        dU = np.tensordot(U, grad, axes=(0, 0))
        total += float(np.sum(dU * dU))
    return float(np.sqrt(total))


def wave_operator(metric, field):
    """g^{ab} d_a d_b F for exact fields: flat part plus H contraction."""
    hess = field.gradient().gradient()  # slots (b, a, ...orig)
    out = PolyField.zero(field.rank, field.channels, field.variance)
    for a in range(4):
        sgn = MINKOWSKI_INV[a, a]
        for idx in np.ndindex(field.shape):
            out.comps[idx] = out.comps[idx] + hess.comps[(a, a) + idx] * sgn
    H = getattr(metric, "H", metric)
    if H is not None:
        for a in range(4):
            for b in range(4):
                Hab = H.comps[a, b, 0]
                if Hab.is_zero():
                    continue
                for idx in np.ndindex(field.shape):
                    out.comps[idx] = out.comps[idx] + Hab * hess.comps[(b, a) + idx]
    return out


# ---------------------------------------------------------------------------
# Uniform grids


class GridGeometry:
    """Cell-centered uniform grid over [-X, X]^3 with ghost width 2.

    Node i along an axis sits at -X + (i + 1/2) dx for i in [-2, N+2);
    N must be even so no node ever lands on the origin.  Coordinate
    meshes and frame arrays are built lazily and cached.
    """

    def __init__(self, N, X):
        if N % 2:
            raise ValueError("N must be even (keeps cell centers off the origin)")
        if N < 8:
            raise ValueError("N >= 8 required")
        self.N = int(N)
        self.X = float(X)
        self.dx = 2.0 * self.X / self.N
        idx = np.arange(-GHOST, self.N + GHOST)
        self.axis = -self.X + (idx + 0.5) * self.dx
        self._mesh = None
        self._r = None
        self._frames = None

    @property
    def n_full(self):
        return self.N + 2 * GHOST

    def interior(self, arr):
        return arr[..., GHOST:-GHOST, GHOST:-GHOST, GHOST:-GHOST]

    def mesh(self):
        if self._mesh is None:
            self._mesh = np.meshgrid(self.axis, self.axis, self.axis, indexing="ij")
        return self._mesh

    def points_full(self, t):
        X1, X2, X3 = self.mesh()
        pts = np.empty((X1.size, 4))
        pts[:, 0] = t
        pts[:, 1] = X1.ravel()
        pts[:, 2] = X2.ravel()
        pts[:, 3] = X3.ravel()
        return pts

    def r_full(self):
        if self._r is None:
            X1, X2, X3 = self.mesh()
            self._r = np.sqrt(X1 ** 2 + X2 ** 2 + X3 ** 2)
        return self._r

    def frames(self):
        if self._frames is None:
            X1, X2, X3 = self.mesh()
            self._frames = frame_arrays(X1, X2, X3)
        return self._frames

    def q_full(self, t):
        return self.r_full() - t

    def region_mask(self, region, t):
        """Interior-node mask for {q >= q0} minus the origin ball."""
        r = self.interior(self.r_full())
        q = r - t
        q0 = region.q0
        ball = region.origin_ball_radius
        if ball is None:
            ball = 2.0 * self.dx
        mask = r > ball
        if np.isfinite(q0):
            mask &= q >= q0
        return mask


class GridField:
    """Field sampled on a GridGeometry at one time.

    data has shape (4,)*rank + (channels, n, n, n) over the full cube
    including ghosts.  Ghost layers must be valid before derivatives.
    """

    def __init__(self, geom, rank, channels, data, t, variance=None, ghost_valid=True):
        self.geom = geom
        self.rank = int(rank)
        self.channels = int(channels)
        self.data = data
        self.t = float(t)
        self.variance = tuple(variance) if variance is not None else ("d",) * rank
        self.ghost_valid = bool(ghost_valid)
        n = geom.n_full
        assert data.shape == (4,) * self.rank + (self.channels, n, n, n)

    @classmethod
    def zeros(cls, geom, rank=0, channels=1, t=0.0, variance=None):
        n = geom.n_full
        data = np.zeros((4,) * rank + (channels, n, n, n))
        return cls(geom, rank, channels, data, t, variance)

    @classmethod
    def sample_scalar(cls, geom, fn, t=0.0, channels=1):
        """Sample fn(T, X1, X2, X3) -> (n,n,n) (or per-channel list) on the full cube."""
        X1, X2, X3 = geom.mesh()
        T = np.full_like(X1, t)
        vals = fn(T, X1, X2, X3)
        if channels == 1 and not isinstance(vals, (list, tuple)):
            vals = [vals]
        data = np.stack([np.asarray(v, dtype=float) for v in vals])
        return cls(geom, 0, channels, data, t)

    def interior(self):
        return self.geom.interior(self.data)

    def copy(self):
        return GridField(self.geom, self.rank, self.channels, self.data.copy(),
                         self.t, self.variance, self.ghost_valid)

    def fill_ghosts(self, mode="extrapolate"):
        fill_ghosts_array(self.data, mode)
        self.ghost_valid = True
        return self


def fill_ghosts_array(data, mode="extrapolate"):
    """Populate the width-2 ghost layers of (..., n, n, n) data in place."""
    if mode == "zero":
        for ax in range(data.ndim - 3, data.ndim):
            sl = [slice(None)] * data.ndim
            sl[ax] = slice(0, GHOST)
            data[tuple(sl)] = 0.0
            sl[ax] = slice(-GHOST, None)
            data[tuple(sl)] = 0.0
        return
    if mode == "periodic":
        for ax in range(data.ndim - 3, data.ndim):
            sl = [slice(None)] * data.ndim

            def take(s):
                t = list(sl)
                t[ax] = s
                return tuple(t)

            data[take(slice(0, GHOST))] = data[take(slice(-2 * GHOST, -GHOST))]
            data[take(slice(-GHOST, None))] = data[take(slice(GHOST, 2 * GHOST))]
        return
    if mode == "extrapolate":
        # Degree-4 extrapolation; exact for polynomials of degree <= 4,
        # equivalent to one-sided 4th-order closures at the edge.
        c1 = np.array([5.0, -10.0, 10.0, -5.0, 1.0])
        c2 = np.array([15.0, -40.0, 45.0, -24.0, 5.0])
        for ax in range(data.ndim - 3, data.ndim):
            sl = [slice(None)] * data.ndim

            def take(i):
                t = list(sl)
                t[ax] = i
                return tuple(t)

            n = data.shape[ax]
            lo = [data[take(GHOST + k)] for k in range(5)]
            data[take(GHOST - 1)] = sum(c * v for c, v in zip(c1, lo))
            data[take(GHOST - 2)] = sum(c * v for c, v in zip(c2, lo))
            hi = [data[take(n - GHOST - 1 - k)] for k in range(5)]
            data[take(n - GHOST)] = sum(c * v for c, v in zip(c1, hi))
            data[take(n - GHOST + 1)] = sum(c * v for c, v in zip(c2, hi))
        return
    raise ValueError(f"unknown ghost mode {mode!r}")


def _axslice(ndim, ax, s):
    sl = [slice(None)] * ndim
    sl[ax] = s
    return tuple(sl)


def d1_axis(arr, spatial_axis, dx):
    """4th-order centered first derivative along spatial_axis in {1,2,3}.

    Valid wherever the 5-point stencil fits (width-2 margin along that
    axis); other axes keep their full extent, so mixed derivatives can be
    built by composition.
    """
    ax = arr.ndim - 3 + (spatial_axis - 1)
    out = np.zeros_like(arr)
    n = arr.shape[ax]
    c = slice(2, n - 2)
    sm2 = _axslice(arr.ndim, ax, slice(0, n - 4))
    sm1 = _axslice(arr.ndim, ax, slice(1, n - 3))
    sp1 = _axslice(arr.ndim, ax, slice(3, n - 1))
    sp2 = _axslice(arr.ndim, ax, slice(4, n))
    out[_axslice(arr.ndim, ax, c)] = (
        arr[sm2] - 8.0 * arr[sm1] + 8.0 * arr[sp1] - arr[sp2]
    ) / (12.0 * dx)
    return out


def d2_axis(arr, spatial_axis, dx):
    """4th-order centered pure second derivative along spatial_axis."""
    ax = arr.ndim - 3 + (spatial_axis - 1)
    out = np.zeros_like(arr)
    n = arr.shape[ax]
    c = slice(2, n - 2)
    sm2 = _axslice(arr.ndim, ax, slice(0, n - 4))
    sm1 = _axslice(arr.ndim, ax, slice(1, n - 3))
    s0 = _axslice(arr.ndim, ax, slice(2, n - 2))
    sp1 = _axslice(arr.ndim, ax, slice(3, n - 1))
    sp2 = _axslice(arr.ndim, ax, slice(4, n))
    out[_axslice(arr.ndim, ax, c)] = (
        -arr[sm2] + 16.0 * arr[sm1] - 30.0 * arr[s0] + 16.0 * arr[sp1] - arr[sp2]
    ) / (12.0 * dx * dx)
    return out


def partial_derivative(field, mu):
    """Coordinate derivative d_mu: exact for PolyField, stencil for GridField."""
    if isinstance(field, PolyField):
        return field.partial(mu)
    if isinstance(field, GridField):
        if mu == 0:
            raise ValueError("time derivatives of grid snapshots come from the "
                             "evolution state, not from a single slice")
        if not field.ghost_valid:
            raise GhostInvalid("fill_ghosts before taking grid derivatives")
        data = d1_axis(field.data, mu, field.geom.dx)
        return GridField(field.geom, field.rank, field.channels, data, field.t,
                         field.variance, ghost_valid=False)
    raise TypeError(f"unsupported field type {type(field)!r}")


def quadrature_slice(field, region, t=None):
    """Midpoint-rule integral of a scalar field over the exterior slice.

    Sums F * dx^3 over interior nodes with q >= q0, excluding the origin
    ball.  Accepts a scalar GridField or a raw interior array plus an
    explicit geometry via region duck typing.
    """
    if isinstance(field, GridField):
        assert field.rank == 0
        geom = field.geom
        vals = field.interior()
        t = field.t if t is None else t
        vals = vals.sum(axis=0) if field.channels > 1 else vals[0]
    else:
        raise TypeError("quadrature_slice expects a scalar GridField")
    mask = geom.region_mask(region, t)
    if not mask.any():
        raise EmptyRegion(f"no nodes with q >= {region.q0} at t = {t}")
    return float(np.sum(vals[mask]) * geom.dx ** 3)


def quadrature_masked(geom, values_interior, mask):
    """dx^3-weighted sum of an interior array over a boolean mask."""
    return float(np.sum(values_interior[mask]) * geom.dx ** 3)


# ---------------------------------------------------------------------------
# Snapshot serialization: binary header + row-major payload, JSON sidecar.

_HEADER = struct.Struct("<qqqdd")  # rank, channels, N (int64); X, t (float64)


def save_snapshot(field: GridField, path):
    payload = np.ascontiguousarray(field.interior(), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(field.rank, field.channels, field.geom.N,
                              field.geom.X, field.t))
        fh.write(payload.tobytes())
    sidecar = {
        "rank": field.rank,
        "channels": field.channels,
        "N": field.geom.N,
        "X": field.geom.X,
        "t": field.t,
        "layout": "row-major over (4,)*rank + (channels, N, N, N), float64 LE",
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    return path


def load_snapshot(path, geom=None):
    with open(path, "rb") as fh:
        rank, channels, N, X, t = _HEADER.unpack(fh.read(_HEADER.size))
        raw = np.frombuffer(fh.read(), dtype="<f8")
    if geom is None:
        geom = GridGeometry(N, X)
    assert geom.N == N and geom.X == X
    shape = (4,) * rank + (channels, N, N, N)
    interior = raw.reshape(shape)
    out = GridField.zeros(geom, rank, channels, t)
    out.geom.interior(out.data)[...] = interior
    out.ghost_valid = False
    return out
