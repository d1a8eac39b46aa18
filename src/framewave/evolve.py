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
pass over all three axes (fields._laplacian), on every background; the
monitors' wave operator runs it too, so both read one flat part, bit for
bit.  On a bump background the H terms (d_j Pi and the mixed and
diagonal second derivatives of Phi, listed by the background's
hessian_terms) come from fields.h_on_box, the kernel the monitors' wave
operator runs too; they, their product with chi and the division by
-g^{tt} run on the support box of H only, the derivatives from stencils
on a copy of the box grown by the stencil width; outside the box chi is
0 and g^{tt} is exactly -1.
The right-hand side writes into caller arrays and the evolver's kept
work arrays, the source (schematic or manufactured) and its every term,
the box windows and the shell slabs included, so a warm flat or
static-bump step allocates no full-size array.  The RK4 step keeps its
stage, slope and accumulator arrays between steps, sums ((k1 + 2 k2) +
2 k3) + k4 as the expression form does and adds the increment into the
state in place.

One grid run uses two cores.  Each evolver keeps one worker thread
(:class:`_Pair`, ended by ``evolve_run`` or with the evolver) that
shares the items of each phase with the calling thread, and each phase
ends in one join.  The phases: the ghost fills and the Laplacian over
halves of the leading components, with the radiation shell as one more
item; the schematic source's prologue, one item per field (the scalar
gradient, each frame projection with its gradient); the source terms
over halves of the mu rows; the division by g^{tt}, the add into d_t Pi
and the d_t Phi copy over halves of the leading components; and the RK4
stage and accumulator arithmetic over halves of the components.  Every element sees the same operations in the same
order, so results are bit-identical to a one-core run, which calls the
same items in a loop.  A field with one component has one item per
phase and runs in the calling thread, its shell after the Laplacian and
the source.  Either way the shell computes each of its six slabs into
the slab's own kept array, and the slabs are written once d_t Phi and
d_t Pi are finished.

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
import itertools
import json
import math
import os
import threading
import weakref
from dataclasses import dataclass, field as dc_field

import numpy as np

from .background import make_background
from .energy import ExteriorRegion, SliceState, slice_energy, write_series_csv
from .errors import CFLViolation, ConstraintError, NonFiniteResult, PoleDegenerate
from .fields import (GHOST, GridGeometry, _fresh, _laplacian, d1_axis, fill_ghosts_array,
                     h_on_box, save_snapshot)
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
        if any(mu not in range(4) for mu in self.slots):
            raise ValueError(f"slots must lie in 0..3, not {self.slots}")
        bad = set(self.terms) - set(SCHEMATIC_TERMS)
        if bad:
            raise ValueError(f"unknown schematic terms {sorted(bad)}")


def _h_component_and_grad(geom, bg, t, work=_fresh):
    """The tt covariant component of h = g - m and its 4-gradient on the
    full cube, in the ``work`` arrays "source.h" and "source.dh".

    Both are 0 outside the support box; on it they are the background's
    ``covariant_tt``, which a static bump computes once per grid.
    """
    n = geom.n_full
    h, dh = work("source.h", (n, n, n)), work("source.dh", (4, n, n, n))
    h.fill(0.0)
    dh.fill(0.0)
    cov = bg.covariant_tt(geom, t)
    if cov is not None:
        box, h_box, dh_box = cov
        h[box] = h_box
        dh[(slice(None),) + box] = dh_box
    return h, dh


def _halves(n):
    """range(n) as slices: two halves, or one slice when n is 1."""
    h = (n + 1) // 2
    return [slice(0, h), slice(h, n)] if n > 1 else [slice(0, n)]


def _call(task):
    return task()


def build_source(spec: SourceSpec, geom, bg, t, Phi, Pi, work, fan):
    """Assemble the requested schematic terms into a source array.

    Phi must be rank 1 (the potential A); returns (4, channels, n, n, n).
    Frame projections use the grid frame arrays, which are defined at all
    cell centers; the origin exclusion masks them out of any quadrature.
    Each term is formed in a scratch array and added to the zeroed source
    in the order of spec.terms, row mu by row mu.

    ``work`` is a ``(name, shape) -> array`` callable; the evolver passes
    its kept work arrays.  The source, the scalar gradient, the scratch,
    the frame projections and their gradients and every product the rows
    share come from it, and the returned source is one of them.

    ``fan(fn, items)`` maps the two phases (the evolver passes its
    thread pair, :class:`_Pair`): first the fields the terms read, one item per
    field (the scalar gradient; each frame projection, with its gradient
    where a term reads it), then, after the products every row reads,
    the two halves of the mu rows, each with its own scratch.
    """
    if Phi.ndim != 5:
        raise ValueError("schematic sources need a rank-1 evolved field")
    ch = Phi.shape[1]
    n, dx = geom.n_full, geom.dx
    full, comp = (4, ch, n, n, n), (ch, n, n, n)
    S = work("source.S", full)
    terms = set(spec.terms)
    tmp = work("source.tmp", (2,) + comp)      # one scratch per half of the rows
    s = Phi[0]                       # designated scalar part of A
    L = geom.frame("L")
    ds = work("source.ds", full) if terms else None

    def project(V, U, out):
        return np.einsum("m...,mc...->c...", V, U, out=out)

    def scalar_gradient():
        ds[0] = Pi[0]
        for i in (1, 2, 3):
            d1_axis(s, i, dx, out=ds[i])

    def frame_gradient(name, V):
        pv = project(V, Phi, work(f"source.{name}", comp))
        dp = work(f"source.d{name}", full)
        project(V, Pi, dp[0])
        for i in (1, 2, 3):
            d1_axis(pv, i, dx, out=dp[i])
        return pv, dp

    frames = ("e1", "e2") if {"Ae_dAe", "dAe_sq"} & terms else ()
    tasks = [functools.partial(frame_gradient, name, geom.frame(name)) for name in frames]
    tasks += [scalar_gradient] if terms else []
    if "AL_dA" in terms:
        tasks.append(lambda: project(L, Phi, work("source.A_L", comp)))
    done = fan(_call, tasks)     # the longest items first
    proj = {name: pv for name, (pv, _) in zip(frames, done)}
    dproj = {name: dp for name, (_, dp) in zip(frames, done)}
    A_L = done[-1] if "AL_dA" in terms else None

    # Products every row reads, made once; tmp[0] is their scratch.
    if {"A3", "dh_A2"} & terms:
        ss = np.multiply(s, s, out=work("source.ss", comp))

    def transport(D, out, scratch):  # L^mu D_mu, summed in axis order
        np.multiply(L[0], D[0], out=out)
        for i in (1, 2, 3):
            np.add(out, np.multiply(L[i], D[i], out=scratch), out=out)
        return out

    if {"A_tangA", "dh_tangA"} & terms:
        Ls = transport(ds, work("source.Ls", comp), tmp[0])   # L-derivative of s
    if {"dh_tangA", "tangh_dA", "dh_A2", "dh_TU_sq", "bigO_h_dA"} & terms:
        h_tt, dh_tt = _h_component_and_grad(geom, bg, t, work)
        # Background is time-analytic; the L-transport of h uses dh directly.
        Lh = transport(dh_tt, work("source.Lh", (n, n, n)), tmp[0, 0])
    if "dh_TU_sq" in terms:
        Lh_sq = np.square(Lh, out=work("source.Lh_sq", (n, n, n)))
    if "dAe_sq" in terms:
        val = work("source.dAe_sq", comp)
        val.fill(0.0)
        for name in frames:
            val += np.einsum("ac...,ac...->c...", dproj[name], dproj[name], out=tmp[0])
    if "bigO_h_dA" in terms:
        series, power = work("source.series", (n, n, n)), work("source.power", (n, n, n))
        series.fill(0.0)
        power.fill(1.0)
        for _ in range(spec.bigO_degree):
            np.add(series, power, out=series)
            np.multiply(power, h_tt, out=power)
        h_series = np.multiply(h_tt, series, out=series)

    def rows(r, scratch):
        for mu in range(4)[r]:
            S_mu = S[mu]
            S_mu.fill(0.0)           # +0.0 everywhere, as np.zeros

            def add(x, y):
                np.add(S_mu, np.multiply(x, y, out=scratch), out=S_mu)

            for term in spec.terms:
                if term == "A3":
                    add(ss, Phi[mu])
                elif term == "AL_dA":
                    add(A_L, ds[mu])
                elif term == "Ae_dAe":
                    for name in frames:
                        add(proj[name], dproj[name][mu])
                elif term == "A_tangA":
                    add(Phi[mu], Ls)
                elif term == "dh_tangA":
                    add(dh_tt[mu], Ls)
                elif term == "tangh_dA":
                    add(Lh, ds[mu])
                elif term == "dh_A2":
                    add(dh_tt[mu], ss)
                elif term in ("dh_TU_sq", "dAe_sq"):
                    x = Lh_sq if term == "dh_TU_sq" else val
                    for _ in range(spec.slots.count(mu)):
                        S_mu += x
                elif term == "bigO_h_dA":
                    add(h_series, ds[mu])

    fan(_call, [functools.partial(rows, r, tmp[i]) for i, r in enumerate(_halves(4))])
    return S


def manufactured_source(target_comps, background, geom):
    """Source reproducing a chosen exact field.

    target_comps: object array (4,)*rank + (channels,) of exact scalars
    (Poly or GaussPoly).  Returns an evolver's source, ``source(t, Phi,
    Pi, work, fan)``, which samples g^{ab} d_a d_b target on the full
    cube into the work array "source.S" and returns it; it reads neither
    the state nor ``fan``.  Evolving with it reproduces the target up to
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

    def source(t, Phi, Pi, work, fan):
        pts = geom.points_full(t)
        n = geom.n_full
        out = work("source.S", shape + (n, n, n))
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

    return source


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


def _shell_slabs(geom, Phi, Pi, plan, work):
    """Yield (slab, d_t of Pi and Phi on its cut) for each slab of the
    plan (:func:`_shell_plan`), from the outgoing condition d_t U =
    -x^i/r d_i U - U/r: the Pi and Phi windows are copied once into one
    array, each derivative closure writes its part with ``out=``, and the
    terms are combined in place in the order of the condition.  Reads Phi
    and Pi only.  Each result is the slab's own array of ``work`` (a
    (name, shape) -> array callable as for :func:`build_source`), in the
    slab layout, so all six may be written (:func:`_write_slab`) after
    the last is made.
    """
    nc = math.prod(Phi.shape[:-3])
    nf = 2 * nc                     # Pi components, then Phi components
    largest = nf * max(math.prod(sl.shape) for sl in plan)   # floats of a slab result
    wbuf = work("shell.window", (nf * max(math.prod(sl.wshape) for sl in plan),))
    gbuf = work("shell.grad", (largest,))
    tbuf = work("shell.tmp", (largest,))
    two, twelve = 2 * geom.dx, 12.0 * geom.dx
    for j, sl in enumerate(plan):
        w0, w1, w2 = sl.wshape
        W = wbuf[:nf * w0 * w1 * w2].reshape(w0, nf, w1, w2)
        for f, U in enumerate((Pi, Phi)):
            src = U[(Ellipsis, *sl.window)]
            src = src.reshape((nc,) + src.shape[-3:])
            np.copyto(W[:, f * nc:(f + 1) * nc], src.transpose(
                1 + sl.order[0], 0, 1 + sl.order[1], 1 + sl.order[2]))
        e0, e1, e2 = sl.shape
        size = nf * e0 * e1 * e2
        res = work(f"shell.out{j}", (size,)).reshape(e0, nf, e1, e2)
        g = gbuf[:size].reshape(e0, nf, e1, e2)
        # -(x0 g0 + x1 g1 + x2 g2) - U / r, each g_i scaled as it is made
        for i, o_i in enumerate((res, g, g)):
            for kind, dst, reads in sl.parts[i]:
                o = o_i[dst]
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
            np.multiply(sl.xh[i], o_i, out=o_i)
            if i:
                np.add(res, g, out=res)
        np.negative(res, out=res)
        np.divide(W[sl.u], sl.r, out=g)
        np.subtract(res, g, out=res)
        yield sl, res


def _write_slab(sl, res, lead, dPhi, dPi):
    """Copy a result of :func:`_shell_slabs` onto the slab's cut of dPi
    and dPhi, fields of leading shape ``lead``."""
    nc, (e0, e1, e2) = math.prod(lead), sl.shape
    for f, out in enumerate((dPi, dPhi)):
        res_f = res[:, f * nc:(f + 1) * nc].reshape((e0,) + lead + (e1, e2))
        np.copyto(out[(Ellipsis, *sl.cut)], np.moveaxis(res_f, 0, len(lead) + sl.order[0]))


class _Pair:
    """The calling thread and one kept worker thread, mapping a function
    over independent items.

    ``map(fn, items)`` has the contract of ``certify._fork_map``: both
    threads claim the next unclaimed item until none is left and the
    results come back in item order.  An exception raised on either
    thread stops the claiming and is raised here, with its own type,
    once both threads are done (the one of the lowest item if both
    raised).  With fewer than two items or one usable core it is a plain
    loop in the calling thread.  The worker starts on the first map that
    needs it and runs until :meth:`stop`; it holds no reference to the
    evolver that owns it.  A step makes 20 maps, and handing a map to a
    kept thread costs less than starting a thread for it.
    """

    def __init__(self):
        self._thread = None
        self._task = None

    def map(self, fn, items):
        if len(items) < 2 or len(os.sched_getaffinity(0)) < 2:
            return [fn(item) for item in items]
        results, failed = [None] * len(items), []
        claim = itertools.count().__next__    # one call at a time, under the GIL

        def run():
            k = -1
            try:
                while not failed and (k := claim()) < len(items):
                    results[k] = fn(items[k])
            except BaseException as exc:
                failed.append((k, exc))

        if self._thread is None:
            self._go, self._done = threading.Lock(), threading.Lock()
            self._go.acquire()
            self._done.acquire()
            self._thread = threading.Thread(target=self._serve, name="framewave-grid",
                                            daemon=True)
            self._thread.start()
        self._task = run
        self._go.release()
        run()
        self._done.acquire()
        self._task = None           # holds fn and the items, hence arrays
        if failed:
            raise min(failed, key=lambda f: f[0])[1]
        return results

    def _serve(self):
        go, done = self._go, self._done
        while True:
            go.acquire()
            task = self._task
            if task is None:
                return
            task()
            done.release()

    def stop(self, join=True):
        """End the worker thread, if any; the next map starts a new one."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._task = None
            self._go.release()
            if join:
                thread.join()


class Evolver:
    """RK4 driver for the first-order reduction on one background.

    ``source`` is None (S = 0) or ``source(t, Phi, Pi, work, fan)``: the
    schematic terms (``functools.partial(build_source, spec, geom, bg)``)
    or :func:`manufactured_source`.  The right-hand side calls it after
    the ghost fill with its work arrays and thread pair, and divides the
    S it returns, one of the work arrays, by g^{tt} in place.
    """

    def __init__(self, geom, background, source=None, boundary="sommerfeld"):
        self.geom = geom
        self.bg = background
        self.source = source
        self.boundary = boundary
        self._ghost_mode = "periodic" if boundary == "periodic" else "zero"
        self._work = {}
        self._shell = None          # radiation-shell plan, built on first use
        self._held = None           # (t, Phi, Pi) whose slope "acc" holds
        self._pair = _Pair()        # its thread ends with evolve_run, or with the evolver
        weakref.finalize(self, self._pair.stop, False)

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
        there.  H^{tt} enters through that divisor.  The phases over
        halves of the leading components run on both threads of the
        evolver's pair (see the module docstring).
        """
        # g^{tt} d_t Pi + 2 g^{tj} d_j Pi + g^{ij} d_i d_j Phi = S
        geom, dx, fan = self.geom, self.geom.dx, self._pair.map
        dPhi, dPi = out if out is not None else (np.empty(Phi.shape), np.empty(Phi.shape))
        halves = _halves(Phi.shape[0])

        def laplacian(r):
            fill_ghosts_array(Phi[r], self._ghost_mode)
            fill_ghosts_array(Pi[r], self._ghost_mode)
            _laplacian(Phi[r], dx, out=dPi[r])

        shell = self.boundary != "periodic"
        if shell and self._shell is None:
            self._shell = _shell_plan(geom)
        # The shell reads no ghost cell, and its slabs are written once the
        # halves are finished.  With two halves it is one more item, the
        # first claimed (the longest); a field of one component computes
        # it in the calling thread after the halves.
        slabs = []

        def shell_slabs():
            slabs.extend(_shell_slabs(geom, Phi, Pi, self._shell, self._buffer))
        alongside = [shell_slabs] if shell and len(halves) > 1 else []
        fan(_call, alongside + [functools.partial(laplacian, r) for r in halves])
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
            if self.source is not None:
                g00 = self._buffer("g00", Phi.shape[-3:])
                g00.fill(-1.0)
                g00[box] = gtt
        S = None if self.source is None else self.source(t, Phi, Pi, self._buffer, fan)

        def finish(r):
            if S is not None:
                S_r = S[r]
                S_r /= g00
                dPi[r] += S_r
            np.copyto(dPhi[r], Pi[r])

        fan(finish, halves)
        if shell and not alongside:
            shell_slabs()
        for sl, res in slabs:
            _write_slab(sl, res, Phi.shape[:-3], dPhi, dPi)
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
        dt/6 scaling and the add to the state.  The arithmetic between
        slopes runs over halves of the leading components on two threads.
        """
        shape = (2,) + Phi.shape
        acc, k, stage = (self._buffer(name, shape) for name in ("acc", "k", "stage"))
        halves = _halves(Phi.shape[0])

        def stage_from(slope, h, weigh, r):
            s = stage[:, r]
            np.multiply(slope[:, r], h, out=s)
            s[0] += Phi[r]
            s[1] += Pi[r]
            if weigh:                   # the slope enters the sum twice
                k_r = k[:, r]
                k_r *= 2.0
                acc[:, r] += k_r

        def advance(r):
            a = acc[:, r]
            a += k[:, r]
            a *= dt / 6.0
            Phi[r] += a[0]
            Pi[r] += a[1]

        if not self._holds(t, Phi, Pi):
            self.rhs(t, Phi, Pi, out=acc)
        self._held = None
        self._pair.map(functools.partial(stage_from, acc, 0.5 * dt, False), halves)
        self.rhs(t + 0.5 * dt, *stage, out=k)
        for h in (0.5 * dt, dt):
            self._pair.map(functools.partial(stage_from, k, h, True), halves)
            self.rhs(t + h, *stage, out=k)
        self._pair.map(advance, halves)
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


def evolve_run(geom, background, Phi, Pi, t1, t2, consumer, log, source=None, cfl=0.45,
               dt=None, boundary="sommerfeld", n_monitors=None):
    """Advance the reduction from t1 to t2 in place in Phi and Pi, handing
    each of the uniform monitor slices to a consumer.

    At t1 and at every monitor the run calls ``consumer(history, t, Phi,
    Pi, slope)`` with the RunHistory it returns and its state: during a
    call Phi and Pi hold the slice at t, after the run the final state.
    ``slope()`` returns :meth:`Evolver.slope` of the slice, (d_t Phi,
    d_t Pi) from the evolution equation; it is the first slope of the
    next step, so a consumer reads it before it returns.  The last slice
    has no next step and computes its own.

    ``log(event)`` takes the run's structured events (dicts), and
    ``source`` is the evolver's (see :class:`Evolver`).

    dt is derived from the CFL number against the background lightspeed
    unless given explicitly, in which case it is validated (CFLViolation).
    """
    ev = Evolver(geom, background, source=source, boundary=boundary)
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
    try:
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
                log({"event": "monitor", "step": k + 1, "t": t,
                     "cfl": dt * c / geom.dx, "max_abs": max_abs})
                max_abs_pi = float(np.max(np.abs(geom.interior(Pi))))
                if not (math.isfinite(max_abs) and math.isfinite(max_abs_pi)):
                    log({"event": "non_finite", "step": k + 1, "t": t,
                         "quantity": "fields", "max_abs": max_abs,
                         "max_abs_pi": max_abs_pi})
                    raise NonFiniteResult(f"max |Phi| = {max_abs}, max |Pi| = "
                                          f"{max_abs_pi} at t = {t} on the N = {geom.N} grid")
                consumer(hist, t, Phi, Pi, functools.partial(ev.slope, t, Phi, Pi))
    finally:
        ev._release()   # the work arrays of the last monitor's d_tt evaluation
        ev._pair.stop()
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


def plane_wave_data(geom, kvec=(1, 0, 0), t0=0.0, shape=(1,)):
    """Exact flat solution sin(k.x - |k| t) in every slot and channel of
    the leading shape ((4,)*rank + (channels,)); periodic boundary
    required."""
    k = np.asarray(kvec, dtype=float)
    omega = float(np.linalg.norm(k))
    X1, X2, X3 = geom.mesh()
    phase = k[0] * X1 + k[1] * X2 + k[2] * X3 - omega * t0
    full = shape + (geom.n_full,) * 3
    Phi0 = np.broadcast_to(np.sin(phase), full).copy()
    Pi0 = np.broadcast_to(-omega * np.cos(phase), full).copy()

    def exact(t):
        ph = k[0] * X1 + k[1] * X2 + k[2] * X3 - omega * t
        return np.broadcast_to(np.sin(ph), full).copy()

    return Phi0, Pi0, exact


def outgoing_pulse_data(geom, t0, amplitude=1.0, q_center=-2.0, sigma=0.5,
                        shape=(1,)):
    """Exact flat monopole A f(q)/r with a Gaussian profile f (r > 0), in
    every slot and channel of the leading shape ((4,)*rank + (channels,)).

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
    full = shape + (geom.n_full,) * 3
    Phi0 = np.broadcast_to(f / r, full).copy()
    Pi0 = np.broadcast_to(-fp_over / r, full).copy()
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
    shape = (4,) * d["rank"] + (d["channels"],)
    if d["family"] == "zero":
        Phi0 = np.zeros(shape + (geom.n_full,) * 3)
        return Phi0, np.zeros_like(Phi0)
    if d["family"] == "gaussian":
        target = gaussian_target(rank=d["rank"], channels=d["channels"],
                                 amplitude=d["amplitude"],
                                 center=tuple(d["center"]), sigma=d["sigma"])
        Phi0 = sample_scalars(geom, target, t1)
        return Phi0, np.zeros_like(Phi0)
    if d["family"] == "plane_wave":
        Phi0, Pi0, _ = plane_wave_data(geom, kvec=tuple(d["kvec"]), t0=t1, shape=shape)
        return Phi0, Pi0
    if d["family"] == "outgoing_pulse":
        return outgoing_pulse_data(geom, t1, amplitude=d["amplitude"],
                                   q_center=d["q_center"], sigma=d["sigma"], shape=shape)
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
    source = None
    if cfg["source"]["terms"]:
        spec = SourceSpec(terms=tuple(cfg["source"]["terms"]),
                          bigO_degree=cfg["source"]["bigO_degree"],
                          slots=tuple(cfg["source"]["slots"]))
        source = functools.partial(build_source, spec, geom, bg)
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
            events.append, source=source, cfl=cfg["times"]["cfl"], dt=cfg["times"]["dt"],
            boundary=cfg["boundary"], n_monitors=cfg["monitors"])
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
