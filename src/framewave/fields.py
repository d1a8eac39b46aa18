"""Tensor field representations: exact polynomial fields and uniform grids.

Two lanes:

* ``PolyField`` wraps exact scalars from :mod:`framewave.poly` in a tensor
  of rank <= 2 with a channel axis; differentiation is exact, so these
  fields back every identity certification.
* ``GridGeometry`` is a uniform cell-centered grid over [-X, X]^3 with a
  ghost layer of width 2; a grid field is a plain array of shape
  (4,)*rank + (channels, n, n, n) over its full cube.  Cell centering
  keeps every node away from r = 0, so frame projections are defined
  everywhere and the origin exclusion is purely a quadrature mask.

The operators both lanes need are written here once: the frame tangential
norm (on grid fields and point batches alike) and the exact wave
operator (for the commutator machinery and the (div T)_nu display).
The grid lane's H part of the wave operator is one support-box kernel,
``h_on_box``, that the evolution's right-hand side and the monitors'
``SliceState.wave_op`` both run.

Spatial derivatives on grids are 4th-order centered stencils; the
"extrapolate" ghost fill reproduces one-sided 4th-order closures at the
domain edge.  Fields are immutable after construction apart from explicit
whole-field ghost fills, so read-only sharing across workers is safe;
stencils and quadratures are plain numpy slicing and parallelize by slab
if a caller chooses to split the arrays.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .geometry import MINKOWSKI_INV, null_vector, radius, sphere_frame
from .poly import Poly, _eval_scalars

GHOST = 2


class InnerProduct:
    """Channel-wise Euclidean pairing; positive definite and symmetric."""

    @staticmethod
    def dot(a, b, channel_axis=0):
        return np.sum(np.asarray(a) * np.asarray(b), axis=channel_axis)

    @staticmethod
    def norm_sq(a):
        return InnerProduct.dot(a, a)


class PolyField:
    """Tensor field with exact scalar components.

    comps is an object array of shape (4,)*rank + (channels,), entries are
    Poly scalars (inverse radii included, as a frame projection makes
    them) or, for smooth localized data, GaussPoly scalars.  Slots are
    covariant, which is what the Lie calculus of :mod:`framewave.vecfields`
    assumes.  The one exception, by convention, is the background
    perturbation H, stored with upper slots H^{ab}: the wave operator and
    the stress densities contract it as it is, and the commutator
    machinery lowers it once (:meth:`lowered`) before any Lie derivative.
    """

    def __init__(self, rank, channels, comps):
        self.rank = int(rank)
        self.channels = int(channels)
        self.comps = comps
        assert comps.shape == (4,) * self.rank + (self.channels,)

    @property
    def shape(self):
        return self.comps.shape

    @classmethod
    def zero(cls, rank=0, channels=1):
        comps = np.empty((4,) * rank + (channels,), dtype=object)
        for idx in np.ndindex(comps.shape):
            comps[idx] = Poly.zero()
        return cls(rank, channels, comps)

    @classmethod
    def scalar(cls, polys):
        if not isinstance(polys, (list, tuple)):
            polys = [polys]
        comps = np.empty((len(polys),), dtype=object)
        for i, p in enumerate(polys):
            comps[i] = p
        return cls(0, len(polys), comps)

    @classmethod
    def random(cls, rng, rank=0, channels=1, degree=2, nterms=4,
               symmetric=False, time_dependent=True):
        from .poly import random_poly

        f = cls.zero(rank, channels)
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
        return PolyField(self.rank, self.channels, comps)

    def __add__(self, other):
        assert self.shape == other.shape
        comps = np.empty(self.shape, dtype=object)
        for idx in np.ndindex(self.shape):
            comps[idx] = self.comps[idx] + other.comps[idx]
        return PolyField(self.rank, self.channels, comps)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, a):
        return self.map(lambda p: p * a)

    def gradient(self):
        """Gradient: new leading slot for d_mu."""
        comps = np.empty((4,) + self.shape, dtype=object)
        for mu in range(4):
            for idx in np.ndindex(self.shape):
                comps[(mu,) + idx] = self.comps[idx].diff(mu)
        return PolyField(self.rank + 1, self.channels, comps)

    def lowered(self):
        """Every slot of an upper-slot field (H) lowered with the Minkowski
        metric, which negates each time entry: each component times
        (-1)^(its number of time indices)."""
        comps = np.empty(self.shape, dtype=object)
        for idx in np.ndindex(self.shape):
            comps[idx] = self.comps[idx] * (-1) ** idx[:self.rank].count(0)
        return PolyField(self.rank, self.channels, comps)

    def eval(self, pts):
        """Evaluate at points (n, 4) -> array (n,) + (4,)*rank + (channels,)."""
        vals = _eval_scalars(self.comps.ravel(), pts)
        return vals.reshape((vals.shape[0],) + self.shape)


def wave_operator(H, hess):
    """g^{ab} d_a d_b psi = m^{ab} d_a d_b psi + H^{ab} d_a d_b psi of the
    exact scalar field whose Hessian is hess (slots (b, a, ch)); H is a
    rank-2 upper-slot PolyField or None for flat."""
    comps = np.empty((hess.channels,), dtype=object)
    for c in range(hess.channels):
        acc = None
        for a in range(4):
            t = hess.comps[a, a, c] * int(MINKOWSKI_INV[a, a])
            acc = t if acc is None else acc + t
        if H is not None:
            for a in range(4):
                for b in range(4):
                    Hab = H.comps[a, b, 0]
                    if Hab.is_zero():
                        continue
                    acc = acc + Hab * hess.comps[b, a, c]
        comps[c] = acc
    return PolyField(0, hess.channels, comps)


def tangential_norm_sq(d, vectors):
    """sum over the frame vectors U of |d_U psi|^2, |U^m d_m psi|^2 summed
    over channels: d is the 4-gradient (4, ch, ...) and each U is
    (4, ...), a grid field or a point batch (both lanes)."""
    return sum(InnerProduct.norm_sq(np.einsum("m...,mc...->c...", U, d)) for U in vectors)


# ---------------------------------------------------------------------------
# Uniform grids


class GridGeometry:
    """Cell-centered uniform grid over [-X, X]^3 with ghost width 2.

    Node i along an axis sits at -X + (i + 1/2) dx for i in [-2, N+2);
    N must be even so no node ever lands on the origin.  The coordinate
    meshes, r and each frame vector field are built on first read and
    cached (see :meth:`frame`).
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
        self._frames = {}

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
            self._r = radius(*self.mesh())
        return self._r

    def frame(self, name):
        """Frame vector field ``name`` ("L", "Lbar", "e1" or "e2") on the
        full cube, shape (4, n, n, n), as :func:`geometry.frame_arrays`
        gives it over the mesh.

        Each field is built the first time it is read and then kept, with
        none of its temporaries: L and Lbar on their own (x/r is L[1:]),
        e1 and e2 together, from L[1:].  Any other name raises KeyError.
        """
        if name not in self._frames:
            if name == "L":
                self._frames[name] = null_vector(self.r_full(), *self.mesh())
            elif name == "Lbar":
                self._frames[name] = null_vector(self.r_full(), *self.mesh(), -1.0)
            elif name in ("e1", "e2"):
                self._frames["e1"], self._frames["e2"] = sphere_frame(self.frame("L")[1:])
            else:
                raise KeyError(name)
        return self._frames[name]

    def q_full(self, t):
        return self.r_full() - t

    def region_mask(self, region, t):
        """Interior-node mask for {q >= q0} minus the origin ball."""
        r = self.interior(self.r_full())
        q = r - t
        q0 = region.q0
        mask = r > region.ball(self)
        if np.isfinite(q0):
            mask &= q >= q0
        return mask


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


# Floats per block of the stencil kernel: a block's partial sum and its
# scaled-term scratch stay in cache across the five stencil terms.
_BLOCK = 1 << 16


def _contiguous_pair(arr, out):
    """C-contiguous input and an output of its shape (new if None) that
    must be C-contiguous and must not overlap the input."""
    arr = np.ascontiguousarray(arr)
    if out is None:
        out = np.empty(arr.shape, dtype=arr.dtype)
    elif out.shape != arr.shape or not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous with the shape of arr")
    elif np.may_share_memory(arr, out):
        raise ValueError("out must not overlap arr")
    return arr, out


def _stencil_axis(arr, spatial_axis, dx, out, second):
    """Shared body of :func:`d1_axis` and :func:`d2_axis`.

    Shifting along ``spatial_axis`` is shifting the flat C-order view by
    the axis stride, so the five stencil terms are plain 1-d slices.  The
    flat range is walked in blocks of ``_BLOCK`` floats; each block is
    summed in the reference order, (a - 8b) + 8d - e then / 12dx, or
    ((-a + 16b) - 30c) + 16d - e then / 12dx^2, so the result is
    bit-identical to the whole-array expression.  Flat positions within
    two cells of an axis edge read across rows and are zeroed afterwards.
    """
    if spatial_axis not in (1, 2, 3):
        raise ValueError(f"spatial_axis must be 1, 2 or 3, not {spatial_axis!r}")
    arr, out = _contiguous_pair(arr, out)
    ax = arr.ndim - 3 + (spatial_axis - 1)
    s = math.prod(arr.shape[ax + 1:])  # the axis stride, in elements
    src, dst = arr.reshape(-1), out.reshape(-1)
    scale = 12.0 * dx * dx if second else 12.0 * dx
    lo, hi = 2 * s, src.size - 2 * s
    tmp = np.empty(min(_BLOCK, max(hi - lo, 0)), dtype=arr.dtype)
    for j in range(lo, hi, _BLOCK):
        k = min(j + _BLOCK, hi)
        o, t = dst[j:k], tmp[:k - j]
        a, b, d, e = (src[j + m * s:k + m * s] for m in (-2, -1, 1, 2))
        if second:
            np.multiply(b, 16.0, out=o)
            np.subtract(o, a, out=o)          # -a + 16b
            np.multiply(src[j:k], 30.0, out=t)
            np.subtract(o, t, out=o)
            np.multiply(d, 16.0, out=t)
        else:
            np.multiply(b, 8.0, out=t)
            np.subtract(a, t, out=o)
            np.multiply(d, 8.0, out=t)
        np.add(o, t, out=o)
        np.subtract(o, e, out=o)
        np.divide(o, scale, out=o)
    out[_axslice(arr.ndim, ax, slice(None, 2))] = 0.0
    out[_axslice(arr.ndim, ax, slice(-2, None))] = 0.0
    return out


def _laplacian(arr, dx, out=None):
    """4th-order flat Laplacian d_1^2 + d_2^2 + d_3^2 in one pass.

    Walks the flat view in blocks as :func:`_stencil_axis` does; each
    block sums the b/d terms (one cell from the centre) and the a/e terms
    (two cells) over the three axes, then 16 (b + d) - (a + e) - 90c and
    / 12dx^2.  That order differs from the sum of three :func:`d2_axis`
    calls by roundoff.  The width-2 margin of every axis is zero.
    """
    arr, out = _contiguous_pair(arr, out)
    n2, n3 = arr.shape[-2:]
    s1, s2 = n2 * n3, n3                 # axis strides, in elements
    src, dst = arr.reshape(-1), out.reshape(-1)
    scale = 12.0 * dx * dx
    lo, hi = 2 * s1, src.size - 2 * s1
    tmp = np.empty(min(_BLOCK, max(hi - lo, 0)), dtype=arr.dtype)

    def ring(m, j, k, acc):
        """acc = sum of the six cells m steps from each centre in [j, k),
        axis 1 first."""
        np.add(src[j - m * s1:k - m * s1], src[j + m * s1:k + m * s1], out=acc)
        for s in (m * s2, m):
            np.add(acc, src[j - s:k - s], out=acc)
            np.add(acc, src[j + s:k + s], out=acc)
        return acc

    for j in range(lo, hi, _BLOCK):
        k = min(j + _BLOCK, hi)
        o, t = dst[j:k], tmp[:k - j]
        np.multiply(ring(1, j, k, o), 16.0, out=o)
        np.subtract(o, ring(2, j, k, t), out=o)
        np.multiply(src[j:k], 90.0, out=t)
        np.subtract(o, t, out=o)
        np.divide(o, scale, out=o)
    for ax in range(arr.ndim - 3, arr.ndim):
        out[_axslice(arr.ndim, ax, slice(None, 2))] = 0.0
        out[_axslice(arr.ndim, ax, slice(-2, None))] = 0.0
    return out


def _stencil_window(box, n):
    """The cells 5-point stencils read for an index box of the full cube.

    Returns the box grown by 2 cells on each side and clipped to
    [0, n), and the box's slices within that window.  Stencils (composed
    ones too) evaluated on a copy of the window give every box cell the
    value the full-cube stencils give it: where the window is clipped,
    its width-2 margin is the cube's, which is 0 in both.
    """
    window = tuple(slice(max(s.start - 2, 0), min(s.stop + 2, n)) for s in box)
    inner = tuple(slice(s.start - w.start, s.stop - w.start) for s, w in zip(box, window))
    return window, inner


def d1_axis(arr, spatial_axis, dx, out=None):
    """4th-order centered first derivative along spatial_axis in {1,2,3}.

    Valid wherever the 5-point stencil fits; the width-2 margin along
    that axis is 0, other axes keep their full extent, so mixed
    derivatives can be built by composition.  ``out`` (C-contiguous, the
    shape of arr, not overlapping it) receives the result if given.
    """
    return _stencil_axis(arr, spatial_axis, dx, out, second=False)


def d2_axis(arr, spatial_axis, dx, out=None):
    """4th-order centered pure second derivative along spatial_axis; the
    margin and ``out`` as for :func:`d1_axis`."""
    return _stencil_axis(arr, spatial_axis, dx, out, second=True)


def _fresh(name, shape):
    """Work-array callable that allocates a new array on every call."""
    return np.empty(shape)


def h_on_box(terms, U, U_t, box, dx, work=_fresh):
    """The H part of g^{ab} d_a d_b U over chi, less H^{tt} d_tt U, on an
    index box of the full cube: sum c D_ab over the Hessian terms
    (a, b, c) of a background (``BumpBackground.hessian_terms``) but
    (0, 0), shape U.shape[:-3] + the box's.

    D_tj = d_j U_t, D_ii = d_i^2 U and D_ij = d_j d_i U for i < j (the
    one stencil order every consumer uses).  Each D_ab comes from the
    stencils on a copy of the box's window, which give the box the
    full-cube values (:func:`_stencil_window`); the sum keeps the order
    of ``terms``.  ``work(name, shape)`` supplies the window copies, the
    stencil scratch and the returned array.
    """
    window, inner = _stencil_window(box, U.shape[-1])
    lead, cut = U.shape[:-3], (Ellipsis,) + inner

    def windowed(name, V):
        W = work(name, lead + tuple(s.stop - s.start for s in window))
        np.copyto(W, V[(Ellipsis,) + window])
        return W

    P, P_t = windowed("h.U", U), windowed("h.U_t", U_t)
    grads = {a: d1_axis(P, a, dx, out=work(f"h.d{a}", P.shape))
             for a in {a for a, b, _ in terms if 0 < a < b}}
    term_w = work("h.term", P.shape)
    acc = work("h.acc", lead + tuple(s.stop - s.start for s in box))
    acc.fill(0.0)
    for a, b, c in terms:
        if b == 0:
            continue
        if a == 0:
            term = d1_axis(P_t, b, dx, out=term_w)[cut]
        elif a == b:
            term = d2_axis(P, a, dx, out=term_w)[cut]
        else:
            term = d1_axis(grads[a], b, dx, out=term_w)[cut]
        acc += np.multiply(term, c, out=term)
    return acc


def quadrature_masked(geom, values_interior, mask):
    """dx^3-weighted sum of an interior array over a boolean mask."""
    return float(np.sum(values_interior[mask]) * geom.dx ** 3)


# ---------------------------------------------------------------------------
# Snapshot serialization: binary header + row-major payload, JSON sidecar.

_HEADER = struct.Struct("<qqqdd")  # rank, channels, N (int64); X, t (float64)


def save_snapshot(geom, Phi, t, path):
    """Write the interior of Phi, shape (4,)*rank + (channels, n, n, n) over
    geom's full cube, at time t to path, with a JSON sidecar."""
    rank, channels, t = Phi.ndim - 4, Phi.shape[-4], float(t)
    payload = np.ascontiguousarray(geom.interior(Phi), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(rank, channels, geom.N, geom.X, t))
        fh.write(payload.tobytes())
    sidecar = {
        "rank": rank,
        "channels": channels,
        "N": geom.N,
        "X": geom.X,
        "t": t,
        "layout": "row-major over (4,)*rank + (channels, N, N, N), float64 LE",
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    return path


def load_snapshot(path):
    """(interior array, header dict with rank, channels, N, X and t) of a
    snapshot that save_snapshot wrote."""
    with open(path, "rb") as fh:
        rank, channels, N, X, t = _HEADER.unpack(fh.read(_HEADER.size))
        raw = np.frombuffer(fh.read(), dtype="<f8")
    header = {"rank": rank, "channels": channels, "N": N, "X": X, "t": t}
    return raw.reshape((4,) * rank + (channels, N, N, N)), header
