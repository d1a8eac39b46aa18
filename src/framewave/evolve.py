"""Explicit evolution of g^{ab} d_a d_b Phi = S on prescribed backgrounds.

First-order reduction (Phi, Pi = d_t Phi) advanced with classical 4-stage
Runge-Kutta; spatial terms use the 4th-order stencils from
:mod:`framewave.fields`.  The inverse-metric perturbation H is prescribed
analytically (see :mod:`framewave.background`), never solved for, which
isolates verification of the estimates from any constraint solve.

Boundary handling: ghost layers are zero-filled and the outer width-2
shell of interior cells is advanced with a second-order outgoing
(radiation) condition whose differences never read ghosts.  The shell
update runs on its six edge slabs only, from a plan each evolver builds
once (read windows, derivative closures, x^i/r and r per slab); the bulk
update covers the whole cube and the shell overwrites its part.
Experiments keep support at least 4 cells from the edge, so the condition
is inert for acceptance runs.  A periodic mode exists for exact
plane-wave convergence tests.

Stencils and steps: d1_axis and d2_axis share one kernel that shifts
along the flat view of an array by the axis stride, in cache-sized
blocks, summing the five terms in the reference order, so results are
bit-identical to the whole-array expression.  The Laplacian is one such
pass over all three axes (fields._laplacian), on every background; it
differs from the sum of three d2_axis calls by roundoff.  On a bump
background the H terms (d_j Pi and the mixed and diagonal second
derivatives of Phi, listed by the background's hessian_terms) come from
fields.h_on_box, the kernel the monitors' wave operator runs too; they,
their product with chi and the division by -g^{tt} run on the support
box of H only, the derivatives from stencils on a copy of the box grown
by the stencil width; outside the box chi is 0 and g^{tt} is exactly -1.
The right-hand side writes into caller arrays and the evolver's kept
work arrays, the schematic source, the box windows and the shell slabs
included, so a warm flat or static-bump step allocates no full-size
array.  The RK4 step keeps its stage, slope and accumulator arrays
between steps, sums ((k1 + 2 k2) + 2 k3) + k4 as the expression form
does and adds the increment into the state in place.  Everything is
single-threaded: two-thread numpy loops have measured anywhere from no
gain to 1.8x on a 2-core host, so a slab split over threads waits for
its own paired measurement.

Steps are sequential and advance the caller's arrays in place.
Monitors are fed each slice while the run produces it: at t1 and at
every monitor the run hands its state and the slice's slope to a
consumer, which projects copies of the components it reads.  d_tt of a
component has one source, read only when a monitor needs it (the wave
operator of the budget and the estimate): the right-hand side that the
next step takes as its first slope (Evolver.slope), computed once per
slice for every component and the step.  The experiment runner stores
copies of the slices only for an estimate with a non-empty multi-index,
whose Lie series difference them in time.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from .background import make_background
from .energy import ExteriorRegion, SliceState, slice_energy, write_series_csv
from .errors import CFLViolation, ConstraintError, NonFiniteResult, PoleDegenerate
from .fields import (GHOST, GridGeometry, _fresh, _laplacian, d1_axis, d2_axis,
                     fill_ghosts_array, h_on_box, save_snapshot)
from .geometry import FULL_NAMES, MINKOWSKI, MINKOWSKI_INV
from .poly import GaussPoly, Poly, _eval_scalars
from .weights import WeightParams

CFL_LIMIT = 0.5


# ---------------------------------------------------------------------------
# Schematic nonlinear sources

SCHEMATIC_TERMS = ("dh_tangA", "tangh_dA", "A_tangA", "dh_A2", "A3",
                   "AL_dA", "Ae_dAe", "dh_TU_sq", "dAe_sq", "bigO_h_dA")


@dataclass(frozen=True)
class SourceSpec:
    """Sum of schematic nonlinear terms feeding the Phi equation.

    Term names are the schematic patterns of SCHEMATIC_TERMS.  The
    designated scalar part of A is its time slot; h enters through its
    tt covariant component.  Channel wiring is diagonal with unit
    coefficients.
    """

    terms: tuple = ()
    bigO_degree: int = 2
    slots: tuple = (0, 1, 2, 3)

    def __post_init__(self):
        if self.bigO_degree < 1:
            raise ValueError("truncation degree must be >= 1")
        bad = set(self.terms) - set(SCHEMATIC_TERMS)
        if bad:
            raise ValueError(f"unknown schematic terms {sorted(bad)}")


def _h_component_and_grad(geom, bg, t):
    """The tt covariant component of h = g - m and its 4-gradient.

    g_cov is the pointwise inverse of g^{mu nu} = m + chi M, taken on the
    support box only (outside it g_cov = m, so h and its gradient are 0);
    the gradient is -g_cov (dH) g_cov = -(g_cov M g_cov) dchi.
    """
    n = geom.n_full
    h, dh = np.zeros((n, n, n)), np.zeros((4, n, n, n))
    sup = bg.support(geom, t)
    if sup is None:
        return h, dh
    box, chi, dchi = sup
    M = bg.direction
    g_cov = np.linalg.inv(MINKOWSKI_INV + chi[..., None, None] * M)
    h[box] = g_cov[..., 0, 0] - MINKOWSKI[0, 0]
    gMg = np.einsum("...j,jk,...k->...", g_cov[..., 0, :], M, g_cov[..., :, 0])
    dh[(slice(None),) + box] = -gMg * dchi
    return h, dh


def build_source(spec: SourceSpec, geom, bg, t, Phi, Pi, work=_fresh):
    """Assemble the requested schematic terms into a source array.

    Phi must be rank 1 (the potential A); returns (4, channels, n, n, n).
    Frame projections use the grid frame arrays, which are defined at all
    cell centers; the origin exclusion masks them out of any quadrature.
    Each term is formed in one scratch array and added to the zeroed
    source in the order of spec.terms.

    ``work`` is a ``(name, shape) -> array`` callable; the evolver passes
    its kept work arrays.  The source, the scalar gradient, the scratch,
    the frame projections and their gradients come from it, and the
    returned source is one of them.
    """
    if Phi.ndim != 5:
        raise ValueError("schematic sources need a rank-1 evolved field")
    ch = Phi.shape[1]
    n = geom.n_full
    full, comp = (4, ch, n, n, n), (ch, n, n, n)
    S = work("source.S", full)
    S.fill(0.0)                      # +0.0 everywhere, as np.zeros
    if not spec.terms:
        return S
    s = Phi[0]                       # designated scalar part of A
    ds = work("source.ds", full)
    ds[0] = Pi[0]
    for i in (1, 2, 3):
        d1_axis(s, i, geom.dx, out=ds[i])
    L = geom.frame("L")
    tmp = work("source.tmp", full)

    def add(x, y):
        np.add(S, np.multiply(x, y, out=tmp), out=S)

    def project(V, U, out):
        return np.einsum("m...,mc...->c...", V, U, out=out)

    if {"A_tangA", "dh_tangA"} & set(spec.terms):
        Ls = L[0] * ds[0]            # L-derivative of the scalar part
        for i in (1, 2, 3):
            Ls = Ls + L[i] * ds[i]

    need_h = {"dh_tangA", "tangh_dA", "dh_A2", "dh_TU_sq", "bigO_h_dA"} & set(spec.terms)
    if need_h:
        h_tt, dh_tt = _h_component_and_grad(geom, bg, t)
        # Background is time-analytic; the L-transport of h uses dh directly.
        Lh = L[0] * dh_tt[0]
        for i in (1, 2, 3):
            Lh = Lh + L[i] * dh_tt[i]

    proj = {}
    dproj = {}
    if {"Ae_dAe", "dAe_sq"} & set(spec.terms):
        for name in ("e1", "e2"):
            V = geom.frame(name)
            pv = project(V, Phi, work(f"source.{name}", comp))
            dp = work(f"source.d{name}", full)
            project(V, Pi, dp[0])
            for i in (1, 2, 3):
                d1_axis(pv, i, geom.dx, out=dp[i])
            proj[name] = pv
            dproj[name] = dp

    for term in spec.terms:
        if term == "A3":
            add((s * s)[None, :], Phi)
        elif term == "AL_dA":
            add(project(L, Phi, work("source.A_L", comp))[None, :], ds)
        elif term == "Ae_dAe":
            for name in ("e1", "e2"):
                add(proj[name][None, :], dproj[name])
        elif term == "A_tangA":
            add(Phi, Ls[None, :])
        elif term == "dh_tangA":
            add(dh_tt[:, None], Ls[None, :])
        elif term == "tangh_dA":
            add(Lh[None, None], ds)
        elif term == "dh_A2":
            add(dh_tt[:, None], (s * s)[None, :])
        elif term == "dh_TU_sq":
            for mu in spec.slots:
                S[mu] += Lh[None] ** 2
        elif term == "dAe_sq":
            val = np.zeros((ch, n, n, n))
            for name in ("e1", "e2"):
                val += np.einsum("ac...,ac...->c...", dproj[name], dproj[name])
            for mu in spec.slots:
                S[mu] += val
        elif term == "bigO_h_dA":
            series = np.zeros_like(h_tt)
            power = np.ones_like(h_tt)
            for _ in range(spec.bigO_degree):
                series = series + power
                power = power * h_tt
            add((h_tt * series)[None, None], ds)
    return S


def manufactured_source(target_comps, background, geom):
    """Source closure reproducing a chosen exact field.

    target_comps: object array (4,)*rank + (channels,) of exact scalars
    (Poly or GaussPoly).  Returns fn(t) -> g^{ab} d_a d_b target sampled
    on the full cube; evolving with it reproduces the target up to
    discretization error.  Each call evaluates the distinct Hessian
    entries d_a d_b (a <= b) once: the diagonal alone on a flat
    background, all ten otherwise.  The H part is chi times the sum over
    the background's hessian_terms.
    """
    shape = target_comps.shape
    pairs = [(a_, b_) for a_ in range(4) for b_ in range(a_, 4)]
    if not background.hessian_terms:
        pairs = [(a_, a_) for a_ in range(4)]
    col = {p: j for j, p in enumerate(pairs)}
    h_terms = [(col[a_, b_], c) for a_, b_, c in background.hessian_terms]
    hessians = {idx: [target_comps[idx].diff(a_).diff(b_) for a_, b_ in pairs]
                for idx in np.ndindex(shape)}

    def source_fn(t):
        pts = geom.points_full(t)
        n = geom.n_full
        out = np.zeros(shape + (n, n, n))
        chi = background.profile(geom, t)[0] if h_terms else None
        for idx in np.ndindex(shape):
            hs = hessians[idx]
            if isinstance(hs[0], GaussPoly):  # d_a d_b keeps the envelope
                env = hs[0].envelope_many(pts)[:, None]
                hv = _eval_scalars([h.poly for h in hs], pts) * env
            else:
                hv = _eval_scalars(hs, pts)
            hv = hv.T.reshape(len(pairs), n, n, n)
            acc = np.zeros((n, n, n))
            for a_ in range(4):
                acc += MINKOWSKI_INV[a_, a_] * hv[col[a_, a_]]
            if h_terms:
                acc += chi * sum(m * hv[j] for j, m in h_terms)
            out[idx] = acc
        return out

    return source_fn


# ---------------------------------------------------------------------------
# Time stepping


def max_characteristic_speed(geom, bg, t):
    """Safe upper bound for the coordinate lightspeed of g.

    Characteristics of g^{tt} s^2 + 2 g^{tn} s + g^{nn} = 0 bounded via a
    Gershgorin estimate of the largest spatial eigenvalue.  The estimate
    runs on the support box of H only: every cell off it has g = m and a
    bound of exactly 1.
    """
    sup = bg.support(geom, t)
    if sup is None:
        return 1.0
    _, chi, _ = sup
    g = MINKOWSKI_INV[:, :, None, None, None] + chi * bg.direction[:, :, None, None, None]
    gtt = -g[0, 0]
    b = np.sqrt(sum(g[0, j] ** 2 for j in (1, 2, 3)))
    lam = np.max(np.abs(g[1:, 1:]).sum(axis=1), axis=0)
    c = float(np.max((b + np.sqrt(b ** 2 + gtt * lam)) / gtt))
    return c if chi.size == geom.n_full ** 3 else max(c, 1.0)


@dataclass(frozen=True)
class _Slab:
    """One slab of the radiation shell (see :func:`_shell_plan`)."""

    order: tuple     # spatial axes in layout order: the slab's own, then the others
    window: tuple    # cells read, slices of the full cube
    cut: tuple       # cells written, slices of the full cube
    shape: tuple     # cut extents in layout order
    wshape: tuple    # window extents in layout order
    xh: tuple        # x^i / r on the cut, layout (e0, 1, e1, e2), per axis i
    r: np.ndarray    # r on the cut, same layout
    u: tuple         # the cut within the window array
    parts: tuple     # per derivative axis: ((kind, written, reads), ...)


def _shell_parts(a, b, lo, hi):
    """Closures of the cut [a, b) along an axis with interior cells lo..hi:
    (kind, first, stop, read offsets).  One-sided second order on the
    outermost interior layer, centred second order one layer in, the
    4th-order stencil of :func:`d1_axis` elsewhere.  Never reads ghosts."""
    parts = []
    if a <= lo < b:
        parts.append(("lo", lo, lo + 1, (0, 1, 2)))
    if a <= lo + 1 < b:
        parts.append(("c2", lo + 1, lo + 2, (1, -1)))
    c0, c1 = max(a, lo + 2), min(b, hi - 1)
    if c0 < c1:
        parts.append(("c4", c0, c1, (-2, -1, 1, 2)))
    if a <= hi - 1 < b:
        parts.append(("c2", hi - 1, hi, (1, -1)))
    if a <= hi < b:
        parts.append(("hi", hi, hi + 1, (0, -1, -2)))
    return parts


def _shell_plan(geom):
    """Geometry of the radiation shell's six slabs, built once per grid.

    The shell is cut into six disjoint slabs: the two edge pairs of axis
    0 over the whole interior, those of axis 1 without the cells axis 0
    already owns, those of axis 2 without the cells of both.  A slab
    reads a window three cells deep along its own axis and the whole
    interior along the others.  Slab arrays are laid out (own axis,
    stacked fields, other two axes), so no slab runs on rows of length 2.
    """
    lo, hi = GHOST, geom.n_full - GHOST
    full, inner = slice(lo, hi), slice(lo + 2, hi - 2)
    r, xh = geom.r_full(), geom.frame("L")[1:]

    def index(spatial):             # layout-order slices -> array index
        return (spatial[0], slice(None), spatial[1], spatial[2])

    plan = []
    for ax in range(3):
        order = (ax,) + tuple(k for k in range(3) if k != ax)
        for w0, edge in ((lo, slice(lo, lo + 2)), (hi - 3, slice(hi - 2, hi))):
            cut = tuple(edge if k == ax else (inner if k < ax else full)
                        for k in range(3))
            window = tuple(slice(w0, w0 + 3) if k == ax else full for k in range(3))
            cw = [slice(cut[k].start - window[k].start, cut[k].stop - window[k].start)
                  for k in order]
            shape = tuple(cut[k].stop - cut[k].start for k in order)
            parts = []
            for i in range(3):
                p = order.index(i)
                a, w = cut[i].start, window[i].start
                axis_parts = []
                for kind, k0, k1, offsets in _shell_parts(a, cut[i].stop, lo, hi - 1):
                    dst = [slice(None)] * 3
                    dst[p] = slice(k0 - a, k1 - a)
                    reads = []
                    for d in offsets:
                        src = list(cw)
                        src[p] = slice(k0 - w + d, k1 - w + d)
                        reads.append(index(src))
                    axis_parts.append((kind, index(dst), tuple(reads)))
                parts.append(tuple(axis_parts))

            def layout(arr, cut=cut, order=order):
                return np.ascontiguousarray(arr[cut].transpose(order)[:, None])

            plan.append(_Slab(order, window, cut, shape,
                              tuple(window[k].stop - window[k].start for k in order),
                              tuple(layout(x) for x in xh), layout(r), index(cw),
                              tuple(parts)))
    return tuple(plan)


def _radiation_shell(geom, Phi, Pi, dPhi, dPi, plan=None, work=_fresh):
    """Overwrite dPhi, dPi on the width-2 interior shell with the outgoing
    condition d_t U = -x^i/r d_i U - U/r.

    Slab by slab (``plan`` from :func:`_shell_plan`, built here if not
    given): the Pi and Phi windows are copied once into one array, each
    derivative closure writes its part with ``out=``, and the terms are
    combined in place in the order of the expression above.  ``work`` is
    a (name, shape) -> array callable as for :func:`build_source`; its
    arrays are sized for the largest slab and shared by all six.
    """
    plan = _shell_plan(geom) if plan is None else plan
    lead = Phi.shape[:-3]
    nc = math.prod(lead)
    nf = 2 * nc                     # Pi components, then Phi components
    cells = max(math.prod(sl.shape) for sl in plan)
    wbuf = work("shell.window", (nf * max(math.prod(sl.wshape) for sl in plan),))
    gbuf = work("shell.grad", (3, nf * cells))
    tbuf = work("shell.tmp", (nf * cells,))
    two, twelve = 2 * geom.dx, 12.0 * geom.dx
    for sl in plan:
        w0, w1, w2 = sl.wshape
        W = wbuf[:nf * w0 * w1 * w2].reshape(w0, nf, w1, w2)
        for f, U in enumerate((Pi, Phi)):
            src = U[(Ellipsis, *sl.window)]
            src = src.reshape((nc,) + src.shape[-3:])
            np.copyto(W[:, f * nc:(f + 1) * nc], src.transpose(
                1 + sl.order[0], 0, 1 + sl.order[1], 1 + sl.order[2]))
        e0, e1, e2 = sl.shape
        size = nf * e0 * e1 * e2
        g = [gbuf[i, :size].reshape(e0, nf, e1, e2) for i in range(3)]
        for i in range(3):
            for kind, dst, reads in sl.parts[i]:
                o = g[i][dst]
                t = tbuf[:o.size].reshape(o.shape)
                if kind == "lo":            # (-3 U0 + 4 U1 - U2) / 2dx
                    np.multiply(W[reads[0]], -3.0, out=o)
                    np.multiply(W[reads[1]], 4.0, out=t)
                    np.add(o, t, out=o)
                    np.subtract(o, W[reads[2]], out=o)
                elif kind == "hi":          # (3 U0 - 4 U-1 + U-2) / 2dx
                    np.multiply(W[reads[0]], 3.0, out=o)
                    np.multiply(W[reads[1]], 4.0, out=t)
                    np.subtract(o, t, out=o)
                    np.add(o, W[reads[2]], out=o)
                elif kind == "c2":          # (U1 - U-1) / 2dx
                    np.subtract(W[reads[0]], W[reads[1]], out=o)
                else:                       # (U-2 - 8 U-1 + 8 U1 - U2) / 12dx
                    np.multiply(W[reads[1]], 8.0, out=t)
                    np.subtract(W[reads[0]], t, out=o)
                    np.multiply(W[reads[2]], 8.0, out=t)
                    np.add(o, t, out=o)
                    np.subtract(o, W[reads[3]], out=o)
                np.divide(o, twelve if kind == "c4" else two, out=o)
        # -(x0 g0 + x1 g1 + x2 g2) - U / r
        g0, g1, g2 = g
        np.multiply(sl.xh[0], g0, out=g0)
        np.multiply(sl.xh[1], g1, out=g1)
        np.add(g0, g1, out=g0)
        np.multiply(sl.xh[2], g2, out=g2)
        np.add(g0, g2, out=g0)
        np.negative(g0, out=g0)
        np.divide(W[sl.u], sl.r, out=g1)
        np.subtract(g0, g1, out=g0)
        for f, out in enumerate((dPi, dPhi)):
            res = g0[:, f * nc:(f + 1) * nc].reshape((e0,) + lead + (e1, e2))
            np.copyto(out[(Ellipsis, *sl.cut)], np.moveaxis(res, 0, len(lead) + sl.order[0]))


class Evolver:
    """RK4 driver for the first-order reduction on one background."""

    def __init__(self, geom, background, source_fn=None, schematic=None,
                 boundary="sommerfeld"):
        self.geom = geom
        self.bg = background
        self.source_fn = source_fn
        self.schematic = schematic
        self.boundary = boundary
        self._ghost_mode = "periodic" if boundary == "periodic" else "zero"
        self._work = {}
        self._shell = None          # radiation-shell plan, built on first use
        self._held = None           # (t, Phi, Pi) whose slope "acc" holds

    def _buffer(self, name, shape):
        """Work array kept between calls; its contents are undefined."""
        buf = self._work.get(name)
        if buf is None or buf.shape != shape:
            buf = self._work[name] = np.empty(shape)
        return buf

    def _release(self):
        """Drop the work arrays, the held slope and the shell plan; the
        next step or right-hand side builds them again."""
        self._work.clear()
        self._shell = None
        self._held = None

    def rhs(self, t, Phi, Pi, out=None):
        """(d_t Phi, d_t Pi), written into ``out`` = (dPhi, dPi) if given.

        Fills the ghost layers of Phi and Pi in place.  The H terms
        (fields.h_on_box, with Pi for d_t Phi and the evolver's work
        arrays), their product with chi and the division by -g^{tt} run
        on the support box of the background only: outside it chi is 0
        and g^{tt} is exactly -1, so a source divided by g^{tt} sees -1
        there.  H^{tt} enters through that divisor.
        """
        # g^{tt} d_t Pi + 2 g^{tj} d_j Pi + g^{ij} d_i d_j Phi = S
        geom, dx = self.geom, self.geom.dx
        fill_ghosts_array(Phi, self._ghost_mode)
        fill_ghosts_array(Pi, self._ghost_mode)
        dPhi, dPi = out if out is not None else (np.empty(Phi.shape), np.empty(Phi.shape))
        _laplacian(Phi, dx, out=dPi)
        g00 = -1.0
        sup = self.bg.support(geom, t)
        if sup is not None:
            box, chi, _ = sup
            gtt = -1.0 + chi * self.bg.direction[0, 0]
            acc = h_on_box(self.bg.hessian_terms, Phi, Pi, box, dx, self._buffer)
            acc *= chi
            on_box = dPi[(Ellipsis,) + box]
            on_box += acc
            on_box /= -gtt
            if self.source_fn is not None or self.schematic is not None:
                g00 = self._buffer("g00", Phi.shape[-3:])
                g00.fill(-1.0)
                g00[box] = gtt
        if self.source_fn is not None:
            dPi += np.divide(self.source_fn(t), g00, out=self._buffer("tmp", Phi.shape))
        if self.schematic is not None:
            S = build_source(self.schematic, geom, self.bg, t, Phi, Pi,
                             work=self._buffer)
            S /= g00
            dPi += S
        np.copyto(dPhi, Pi)
        if self.boundary != "periodic":
            if self._shell is None:
                self._shell = _shell_plan(geom)
            _radiation_shell(geom, Phi, Pi, dPhi, dPi, self._shell, self._buffer)
        return dPhi, dPi

    def _holds(self, t, Phi, Pi):
        held = self._held
        return held is not None and held[0] == t and held[1] is Phi and held[2] is Pi

    def slope(self, t, Phi, Pi):
        """rhs(t, Phi, Pi) as (dPhi, dPi), computed into the step's k1
        work array on the first call for these arrays and this t, then
        held: a step from them starts from it instead of computing k1
        again.  The next step and :meth:`_release` drop the hold.

        Like rhs, the first call fills the ghost layers of Phi and Pi in
        place.  The returned arrays are the evolver's; read them before
        the next step and do not write to them.
        """
        acc = self._buffer("acc", (2,) + Phi.shape)
        if not self._holds(t, Phi, Pi):
            self.rhs(t, Phi, Pi, out=acc)
            self._held = (t, Phi, Pi)
        return acc[0], acc[1]

    def step(self, t, Phi, Pi, dt):
        """One classical RK4 step: advances Phi and Pi in place and
        returns them.

        Stages and slopes live in work arrays kept between steps.  k1
        seeds the accumulator (a slope held for (t, Phi, Pi) already is
        k1, see :meth:`slope`) and each later slope is weighted in place,
        so the sum keeps the order ((k1 + 2 k2) + 2 k3) + k4 before the
        dt/6 scaling and the add to the state.
        """
        shape = (2,) + Phi.shape
        acc, k, stage = (self._buffer(name, shape) for name in ("acc", "k", "stage"))

        def stage_from(slope, h):
            np.multiply(slope, h, out=stage)
            stage[0] += Phi
            stage[1] += Pi
            return stage

        if not self._holds(t, Phi, Pi):
            self.rhs(t, Phi, Pi, out=acc)
        self._held = None
        self.rhs(t + 0.5 * dt, *stage_from(acc, 0.5 * dt), out=k)
        for h in (0.5 * dt, dt):
            stage_from(k, h)
            k *= 2.0
            acc += k
            self.rhs(t + h, *stage, out=k)
        acc += k
        acc *= dt / 6.0
        Phi += acc[0]
        Pi += acc[1]
        return Phi, Pi


def project(geom, arr, component):
    """Scalar component of a grid tensor arr, of rank arr.ndim - 4.

    rank 0: "scalar"; rank 1: "slotK" or a frame name; rank 2: "slotAB"
    (two digits) or a comma-joined frame pair ("Lbar,L").  Any other name
    is a config error (ConstraintError).
    """
    rank = arr.ndim - 4
    try:
        if rank == 0 and component in (None, "scalar"):
            return arr
        slot = str(component)[4:]
        if str(component).startswith("slot") and len(slot) == rank:
            return arr[tuple(int(i) for i in slot)]
        if rank == 1 and component in FULL_NAMES:
            return np.einsum("m...,mc...->c...", geom.frame(component), arr)
        if rank == 2 and "," in str(component):
            u, v = component.split(",")
            return np.einsum("m...,k...,mkc...->c...", geom.frame(u), geom.frame(v), arr)
    except (IndexError, KeyError, ValueError):
        pass
    raise ConstraintError(f"unknown component {component!r} for rank {rank}")


@dataclass
class RunHistory:
    """The monitor slices of a run that its consumer stored.

    times/fields/dfields hold t, Phi and Pi at each slice that was stored
    (:meth:`store`) exactly as the run left them; nothing writes to them.
    A run whose consumer stores nothing leaves the three lists empty; the
    estimate's Lie series are their only reader in the package.
    """

    geom: object
    background: object
    boundary: str = "sommerfeld"
    times: list = dc_field(default_factory=list)
    fields: list = dc_field(default_factory=list)
    dfields: list = dc_field(default_factory=list)

    @property
    def ghost_mode(self):
        """Ghost fill that gives stencils valid edges on this run's arrays."""
        return "periodic" if self.boundary == "periodic" else "extrapolate"

    def store(self, t, Phi, Pi):
        """Keep copies of the slice (t, Phi, Pi)."""
        self.times.append(t)
        self.fields.append(Phi.copy())
        self.dfields.append(Pi.copy())


def evolve_run(geom, background, Phi, Pi, t1, t2, consumer, source_fn=None,
               schematic=None, cfl=0.45, dt=None, boundary="sommerfeld",
               n_monitors=None, log=None):
    """Advance the reduction from t1 to t2 in place in Phi and Pi, handing
    each of the uniform monitor slices to a consumer.

    At t1 and at every monitor the run calls ``consumer(history, t, Phi,
    Pi, slope)`` with the RunHistory it returns and its state: during a
    call Phi and Pi hold the slice at t, after the run the final state.
    ``slope()`` returns :meth:`Evolver.slope` of the slice, (d_t Phi,
    d_t Pi) from the evolution equation; it is the first slope of the
    next step, so a consumer reads it before it returns.  The last slice
    has no next step and computes its own.

    dt is derived from the CFL number against the background lightspeed
    unless given explicitly, in which case it is validated (CFLViolation).
    """
    ev = Evolver(geom, background, source_fn=source_fn, schematic=schematic,
                 boundary=boundary)
    c = max_characteristic_speed(geom, background, t1)
    dt_max = CFL_LIMIT * geom.dx / c
    T = t2 - t1
    if dt is not None:
        if dt > dt_max * (1 + 1e-12):
            raise CFLViolation(f"dt = {dt} exceeds {dt_max} = 0.5 dx / c")
        nsteps = max(1, math.ceil(T / dt - 1e-12))
    else:
        nsteps = max(1, math.ceil(T / (cfl * geom.dx / c) - 1e-12))
    stride = 1
    if n_monitors is not None:
        nsteps = max(nsteps, n_monitors - 1)
        nsteps = math.ceil(nsteps / (n_monitors - 1)) * (n_monitors - 1)
        stride = nsteps // (n_monitors - 1)
    dt = T / nsteps
    hist = RunHistory(geom, background, boundary)
    t = t1
    consumer(hist, t, Phi, Pi, functools.partial(ev.slope, t, Phi, Pi))
    for k in range(nsteps):
        ev.step(t, Phi, Pi, dt)
        t = t1 + (k + 1) * dt
        if k + 1 == nsteps:  # before the last monitor's temporaries and copies
            ev._release()
        if (k + 1) % stride == 0:
            # solution cells only: the ghost layers are scratch that the
            # next ghost fill overwrites
            max_abs = float(np.max(np.abs(geom.interior(Phi))))
            if log is not None:
                log({"event": "monitor", "step": k + 1, "t": t,
                     "cfl": dt * c / geom.dx, "max_abs": max_abs})
            max_abs_pi = float(np.max(np.abs(geom.interior(Pi))))
            if not (math.isfinite(max_abs) and math.isfinite(max_abs_pi)):
                if log is not None:
                    log({"event": "non_finite", "step": k + 1, "t": t,
                         "quantity": "fields", "max_abs": max_abs,
                         "max_abs_pi": max_abs_pi})
                raise NonFiniteResult(f"max |Phi| = {max_abs}, max |Pi| = "
                                      f"{max_abs_pi} at t = {t} on the N = {geom.N} grid")
            consumer(hist, t, Phi, Pi, functools.partial(ev.slope, t, Phi, Pi))
    ev._release()   # the work arrays of the last monitor's d_tt evaluation
    return hist


# ---------------------------------------------------------------------------
# Initial data families


def sample_scalars(geom, comps, t):
    """Sample an object array of exact scalars on the full cube."""
    pts = geom.points_full(t)
    n = geom.n_full
    out = np.zeros(comps.shape + (n, n, n))
    for idx in np.ndindex(comps.shape):
        out[idx] = comps[idx].eval_many(pts).reshape(n, n, n)
    return out


def gaussian_target(rank=0, channels=1, amplitude=1.0, center=(0, 0, 0),
                    sigma=1.5, poly=None):
    """Object array of GaussPoly scalars amplitude * poly * envelope, one
    per tensor slot and channel (poly None is the constant 1)."""
    base = Poly.const(amplitude) if poly is None else poly * amplitude
    comps = np.empty((4,) * rank + (channels,), dtype=object)
    for idx in np.ndindex(comps.shape):
        comps[idx] = GaussPoly(base, center=center, sigma=sigma)
    return comps


def data_from_target(geom, comps, t1):
    """(Phi0, Pi0) sampled from an exact target and its time derivative."""
    Phi0 = sample_scalars(geom, comps, t1)
    dcomps = np.empty(comps.shape, dtype=object)
    for idx in np.ndindex(comps.shape):
        dcomps[idx] = comps[idx].diff(0)
    Pi0 = sample_scalars(geom, dcomps, t1)
    return Phi0, Pi0


def plane_wave_data(geom, kvec=(1, 0, 0), t0=0.0, channels=1):
    """Exact flat solution sin(k.x - |k| t); periodic boundary required."""
    k = np.asarray(kvec, dtype=float)
    omega = float(np.linalg.norm(k))
    X1, X2, X3 = geom.mesh()
    phase = k[0] * X1 + k[1] * X2 + k[2] * X3 - omega * t0
    n = geom.n_full
    Phi0 = np.broadcast_to(np.sin(phase), (channels, n, n, n)).copy()
    Pi0 = np.broadcast_to(-omega * np.cos(phase), (channels, n, n, n)).copy()

    def exact(t):
        ph = k[0] * X1 + k[1] * X2 + k[2] * X3 - omega * t
        return np.broadcast_to(np.sin(ph), (channels, n, n, n)).copy()

    return Phi0, Pi0, exact


def outgoing_pulse_data(geom, t0, amplitude=1.0, q_center=-2.0, sigma=0.5,
                        channels=1):
    """Exact flat monopole A f(q)/r with a Gaussian profile f (r > 0).

    Purely outgoing: an exact solution of the flat wave equation away from
    the origin; the profile is placed so its tail at the origin is below
    roundoff for the times of interest.
    """
    X1, X2, X3 = geom.mesh()
    r = geom.r_full()
    if np.any(r == 0.0):
        raise PoleDegenerate
    q = r - t0
    f = amplitude * np.exp(-((q - q_center) / sigma) ** 2)
    fp_over = f * (-2.0 * (q - q_center) / sigma ** 2)
    n = geom.n_full
    Phi0 = np.broadcast_to(f / r, (channels, n, n, n)).copy()
    Pi0 = np.broadcast_to(-fp_over / r, (channels, n, n, n)).copy()
    return Phi0, Pi0


# ---------------------------------------------------------------------------
# Experiment orchestration (normalized config in, artifacts out)


def setup_experiment(cfg):
    geom = GridGeometry(cfg["grid"]["N"], cfg["grid"]["X"])
    bgc = cfg["background"]
    bg = make_background(bgc["family"], epsilon=bgc["epsilon"],
                         center=tuple(bgc["center"]), radius=bgc["radius"],
                         velocity=tuple(bgc["velocity"]))
    params = WeightParams(gamma=cfg["weights"]["gamma"], mu=cfg["weights"]["mu"])
    region = ExteriorRegion(q0=cfg["region"]["q0"],
                            origin_ball_radius=cfg["region"]["origin_ball_radius"])
    return geom, bg, params, region


def _initial_data(cfg, geom):
    d = cfg["data"]
    t1 = cfg["times"]["t1"]
    if d["family"] == "zero":
        shape = (4,) * d["rank"] + (d["channels"],) + (geom.n_full,) * 3
        return np.zeros(shape), np.zeros(shape)
    if d["family"] == "gaussian":
        target = gaussian_target(rank=d["rank"], channels=d["channels"],
                                 amplitude=d["amplitude"],
                                 center=tuple(d["center"]), sigma=d["sigma"])
        Phi0 = sample_scalars(geom, target, t1)
        return Phi0, np.zeros_like(Phi0)
    if d["family"] == "plane_wave":
        Phi0, Pi0, _ = plane_wave_data(geom, kvec=tuple(d["kvec"]), t0=t1,
                                       channels=d["channels"])
        return Phi0, Pi0
    if d["family"] == "outgoing_pulse":
        return outgoing_pulse_data(geom, t1, amplitude=d["amplitude"],
                                   q_center=d["q_center"], sigma=d["sigma"],
                                   channels=d["channels"])
    raise ConstraintError(f"unknown data family {d['family']!r}")


def _write_events(path, events):
    with open(path, "w") as fh:
        for ev in events:
            fh.write(json.dumps(ev, sort_keys=True) + "\n")


def run_experiment(cfg, out_dir, tag="", passes=()):
    """Evolve per the config, write the run log, energy series, and
    optional snapshots; returns (history, summary dict).

    Every monitor slice is consumed while the run produces it: one slice
    state per component, built from projected copies of the run's state
    and dropped before the next, gives the slice energies; d_tt of a
    component is the projection of the run's slope, read only by a wave
    operator, and the states of one slice share their q-dependent
    arrays.  ``passes[i]`` (an energy.BudgetPass or an
    estimates.EstimatePass, one per leading component) is fed component
    i's state of every slice.  The history stores snapshots only for an
    estimate with a non-empty multi-index, whose Lie series difference
    them in time.  The non-finite checks run after the run, in
    component-then-time order.

    tag is inserted before each file extension, so runs that share an
    output directory (one per resolution in conserve) keep their own
    files: run_log<tag>.jsonl, energy_series<tag>.csv, final_state<tag>.bin.
    """
    geom, bg, params, region = setup_experiment(cfg)
    spec = None
    if cfg["source"]["terms"]:
        spec = SourceSpec(terms=tuple(cfg["source"]["terms"]),
                          bigO_degree=cfg["source"]["bigO_degree"],
                          slots=tuple(cfg["source"]["slots"]))
    comps = cfg["components"]
    store = cfg["mode"] == "estimate" and any(text.strip() for text in cfg["multi_indices"])
    last = cfg["monitors"] - 1
    times, energies = [], [[] for _ in comps]   # (w, wtilde) per component and slice

    def monitor(hist, t, Phi, Pi, slope):
        if store:
            hist.store(t, Phi, Pi)
        end = not times or len(times) == last
        times.append(t)
        shared = {}

        def projected(arr, comp):    # a copy, ghosts filled for stencils
            out = project(geom, arr, comp).copy()
            fill_ghosts_array(out, hist.ghost_mode)
            return out

        for i, comp in enumerate(comps):
            st = SliceState(geom, t, projected(Phi, comp), projected(Pi, comp),
                            lambda comp=comp: projected(slope()[1], comp), bg, shared)
            energies[i].append((slice_energy(st, region, params, "w"),
                                slice_energy(st, region, params, "wtilde")))
            if i < len(passes):
                passes[i].add(st, end)
            del st   # the last component's state must not outlive the slice

    log_path = os.path.join(out_dir, f"run_log{tag}.jsonl")
    events = []
    Phi, Pi = _initial_data(cfg, geom)   # the run's live state
    try:
        hist = evolve_run(
            geom, bg, Phi, Pi, cfg["times"]["t1"], cfg["times"]["t2"], monitor,
            schematic=spec, cfl=cfg["times"]["cfl"], dt=cfg["times"]["dt"],
            boundary=cfg["boundary"], n_monitors=cfg["monitors"],
            log=events.append)
    finally:
        _write_events(log_path, events)

    rows = []
    summary = {"components": {}, "seed": cfg["seed"]}
    for comp, values in zip(comps, energies):
        for t, (e_w, e_wt) in zip(times, values):
            if not (math.isfinite(e_w) and math.isfinite(e_wt)):
                events.append({"event": "non_finite", "t": float(t),
                               "quantity": f"{comp}:slice_energy"})
                _write_events(log_path, events)
                raise NonFiniteResult(f"slice energy of {comp} is not finite at t = {t} "
                                      f"on the N = {geom.N} grid")
            rows.append((t, f"{comp}:slice_energy_w", e_w))
            rows.append((t, f"{comp}:slice_energy_wtilde", e_wt))
        e_ws = [e_w for e_w, _ in values]
        summary["components"][comp] = {
            "initial_energy_w": e_ws[0],
            "final_energy_w": e_ws[-1],
            "max_energy_w": max(e_ws),
        }
    write_series_csv(os.path.join(out_dir, f"energy_series{tag}.csv"), rows)
    if cfg["snapshots"]:
        save_snapshot(geom, Phi, times[-1], os.path.join(out_dir, f"final_state{tag}.bin"))
    return hist, summary
