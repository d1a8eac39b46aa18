"""Explicit evolution of g^{ab} d_a d_b Phi = S on prescribed backgrounds.

First-order reduction (Phi, Pi = d_t Phi) advanced with classical 4-stage
Runge-Kutta; spatial terms use the 4th-order stencils from
:mod:`framewave.fields`.  The inverse-metric perturbation H is prescribed
analytically (see :mod:`framewave.background`), never solved for, which
isolates verification of the estimates from any constraint solve.

Boundary handling: ghost layers are zero-filled and the outer width-2
shell of interior cells is advanced with a second-order outgoing
(radiation) condition whose differences never read ghosts.  The shell
update runs on its six edge slabs only; the bulk update covers the whole
cube and the shell overwrites its part.
Experiments keep support at least 4 cells from the edge, so the condition
is inert for acceptance runs.  A periodic mode exists for exact
plane-wave convergence tests.

Steps are sequential.  Monitors run on immutable stored snapshots: a
component series projects copies of them, and evaluates d_tt of the
component from the evolution equation on copies only when a monitor
reads it (the wave operator of the budget and the estimate).
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .background import Background, make_background
from .energy import ComponentSeries, ExteriorRegion, slice_energy, write_series_csv
from .errors import CFLViolation, ConstraintError, NonFiniteResult, PoleDegenerate
from .fields import (GHOST, GridField, GridGeometry, d1_axis, d2_axis,
                     fill_ghosts_array, save_snapshot)
from .geometry import MINKOWSKI, MINKOWSKI_INV
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
    designated scalar part of A is its time slot; h enters through one
    designated covariant component (h_pick).  Channel wiring is diagonal
    with unit coefficients unless a mixing matrix is supplied.
    """

    terms: tuple = ()
    bigO_degree: int = 2
    slots: tuple = (0, 1, 2, 3)
    h_pick: tuple = (0, 0)
    mixing: object = None

    def __post_init__(self):
        if self.bigO_degree < 1:
            raise ValueError("truncation degree must be >= 1")
        bad = set(self.terms) - set(SCHEMATIC_TERMS)
        if bad:
            raise ValueError(f"unknown schematic terms {sorted(bad)}")


def _h_component_and_grad(geom, bg, t, pick):
    """Designated covariant component of h = g - m and its 4-gradient.

    g_cov is the pointwise inverse of g^{mu nu} = m + H; its gradient is
    -g_cov (dH) g_cov, all evaluated from the analytic background.
    """
    n = geom.n_full
    if bg.is_flat():
        z = np.zeros((n, n, n))
        return z, np.zeros((4, n, n, n))
    Hf = bg.H_full(geom, t)
    g_up = MINKOWSKI_INV[:, :, None, None, None] + Hf
    flat = np.moveaxis(g_up, (0, 1), (-2, -1)).reshape(-1, 4, 4)
    g_cov = np.linalg.inv(flat)
    dHf = bg.dH_full(geom, t)
    dflat = np.moveaxis(dHf, (1, 2), (-2, -1)).reshape(4, -1, 4, 4)
    a, b = pick
    h_pick = (g_cov[:, a, b] - MINKOWSKI[a, b]).reshape(n, n, n)
    grad = np.empty((4, n, n, n))
    for lam in range(4):
        gdg = -np.einsum("nij,njk,nkl->nil", g_cov, dflat[lam], g_cov)
        grad[lam] = gdg[:, a, b].reshape(n, n, n)
    return h_pick, grad


def build_source(spec: SourceSpec, geom, bg, t, Phi, Pi):
    """Assemble the requested schematic terms into a source array.

    Phi must be rank 1 (the potential A); returns (4, channels, n, n, n).
    Frame projections use the grid frame arrays, which are defined at all
    cell centers; the origin exclusion masks them out of any quadrature.
    """
    if Phi.ndim != 5:
        raise ValueError("schematic sources need a rank-1 evolved field")
    ch = Phi.shape[1]
    n = geom.n_full
    S = np.zeros((4, ch, n, n, n))
    if not spec.terms:
        return S
    fr = geom.frames()
    s = Phi[0]                       # designated scalar part of A
    ds = np.empty((4, ch, n, n, n))
    ds[0] = Pi[0]
    for i in (1, 2, 3):
        ds[i] = d1_axis(s, i, geom.dx)
    L = fr["L"]

    def L_deriv(scalar, scalar_t):
        out = L[0] * scalar_t
        for i in (1, 2, 3):
            out = out + L[i] * d1_axis(scalar, i, geom.dx)
        return out

    need_h = {"dh_tangA", "tangh_dA", "dh_A2", "dh_TU_sq", "bigO_h_dA"} & set(spec.terms)
    if need_h:
        h_pick, dh_pick = _h_component_and_grad(geom, bg, t, spec.h_pick)
        # Background is time-analytic; the L-transport of h uses dh directly.
        Lh = L[0] * dh_pick[0]
        for i in (1, 2, 3):
            Lh = Lh + L[i] * dh_pick[i]

    proj = {}
    dproj = {}
    if {"Ae_dAe", "dAe_sq"} & set(spec.terms):
        for name in ("e1", "e2"):
            V = fr[name]
            pv = np.einsum("m...,mc...->c...", V, Phi)
            pv_t = np.einsum("m...,mc...->c...", V, Pi)
            dp = np.empty((4, ch, n, n, n))
            dp[0] = pv_t
            for i in (1, 2, 3):
                dp[i] = d1_axis(pv, i, geom.dx)
            proj[name] = pv
            dproj[name] = dp

    mix = np.asarray(spec.mixing) if spec.mixing is not None else None

    def wire(factor_ch):
        return np.einsum("dc,c...->d...", mix, factor_ch) if mix is not None else factor_ch

    for term in spec.terms:
        if term == "A3":
            S += wire(s * s)[None, :] * Phi
        elif term == "AL_dA":
            A_L = np.einsum("m...,mc...->c...", L, Phi)
            S += wire(A_L)[None, :] * ds
        elif term == "Ae_dAe":
            for name in ("e1", "e2"):
                S += wire(proj[name])[None, :] * dproj[name]
        elif term == "A_tangA":
            S += Phi * wire(L_deriv(s, Pi[0]))[None, :]
        elif term == "dh_tangA":
            S += dh_pick[:, None] * wire(L_deriv(s, Pi[0]))[None, :]
        elif term == "tangh_dA":
            S += Lh[None, None] * ds
        elif term == "dh_A2":
            S += dh_pick[:, None] * wire(s * s)[None, :]
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
            series = np.zeros_like(h_pick)
            power = np.ones_like(h_pick)
            for _ in range(spec.bigO_degree):
                series = series + power
                power = power * h_pick
            S += (h_pick * series)[None, None] * ds
    return S


def manufactured_source(target_comps, background, geom):
    """Source closure reproducing a chosen exact field.

    target_comps: object array (4,)*rank + (channels,) of exact scalars
    (Poly or GaussPoly).  Returns fn(t) -> g^{ab} d_a d_b target sampled
    on the full cube; evolving with it reproduces the target up to
    discretization error.  Each call evaluates the distinct Hessian
    entries d_a d_b (a <= b) once: the diagonal alone on a flat
    background, all ten otherwise.
    """
    shape = target_comps.shape
    pairs = [(a_, b_) for a_ in range(4) for b_ in range(a_, 4)]
    if background.is_flat():
        pairs = [(a_, a_) for a_ in range(4)]
    col = {p: j for j, p in enumerate(pairs)}
    M = background.direction
    # H^{ab} d_a d_b = chi * sum over a <= b of (2 - delta_ab) M_ab d_a d_b
    h_terms = [] if background.is_flat() else [
        (col[a_, b_], (1.0 if a_ == b_ else 2.0) * M[a_, b_])
        for a_, b_ in pairs if M[a_, b_]]
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


def max_characteristic_speed(geom, bg: Background, t):
    """Safe upper bound for the coordinate lightspeed of g.

    Characteristics of g^{tt} s^2 + 2 g^{tn} s + g^{nn} = 0 bounded via a
    Gershgorin estimate of the largest spatial eigenvalue.
    """
    if bg.is_flat():
        return 1.0
    g = bg.g_inv_full(geom, t)
    gtt = -g[0, 0]
    b = np.sqrt(sum(g[0, j] ** 2 for j in (1, 2, 3)))
    lam = np.max(np.abs(g[1:, 1:]).sum(axis=1), axis=0)
    c = (b + np.sqrt(b ** 2 + gtt * lam)) / gtt
    return float(np.max(c))


def _shell_d1(U, ax, cut, dx):
    """First derivative along spatial axis ax (0-2) on the interior cells
    that ``cut`` (one slice per spatial axis) selects: one-sided second
    order on the outermost interior layer, centred second order one layer
    in, the 4th-order stencil of :func:`d1_axis` elsewhere.  Never reads
    ghosts."""
    lo, hi = GHOST, U.shape[ax - 3] - GHOST - 1
    a, b = cut[ax].start, cut[ax].stop

    def sh(d, k0, k1):
        s = list(cut)
        s[ax] = slice(k0 + d, k1 + d)
        return U[(Ellipsis, *s)]

    parts = []
    if a <= lo < b:
        parts.append((-3.0 * sh(0, lo, lo + 1) + 4.0 * sh(1, lo, lo + 1)
                      - sh(2, lo, lo + 1)) / (2 * dx))
    if a <= lo + 1 < b:
        parts.append((sh(1, lo + 1, lo + 2) - sh(-1, lo + 1, lo + 2)) / (2 * dx))
    c0, c1 = max(a, lo + 2), min(b, hi - 1)
    if c0 < c1:
        parts.append((sh(-2, c0, c1) - 8.0 * sh(-1, c0, c1) + 8.0 * sh(1, c0, c1)
                      - sh(2, c0, c1)) / (12.0 * dx))
    if a <= hi - 1 < b:
        parts.append((sh(1, hi - 1, hi) - sh(-1, hi - 1, hi)) / (2 * dx))
    if a <= hi < b:
        parts.append((3.0 * sh(0, hi, hi + 1) - 4.0 * sh(-1, hi, hi + 1)
                      + sh(-2, hi, hi + 1)) / (2 * dx))
    return np.concatenate(parts, axis=ax - 3)


def _radiation_shell(geom, Phi, Pi, dPhi, dPi):
    """Overwrite dPhi, dPi on the width-2 interior shell with the outgoing
    condition d_t U = -x^i/r d_i U - U/r.

    The shell is cut into six disjoint slabs: the two edge pairs of axis
    0 over the whole interior, those of axis 1 without the cells axis 0
    already owns, those of axis 2 without the cells of both.
    """
    lo, hi = GHOST, geom.n_full - GHOST
    full, inner = slice(lo, hi), slice(lo + 2, hi - 2)
    r = geom.r_full()
    xh = geom.frames()["L"][1:]
    for ax in range(3):
        for edge in (slice(lo, lo + 2), slice(hi - 2, hi)):
            cut = tuple(edge if k == ax else (inner if k < ax else full)
                        for k in range(3))
            x0, x1, x2, rc = xh[0][cut], xh[1][cut], xh[2][cut], r[cut]
            for U, out in ((Pi, dPi), (Phi, dPhi)):
                g0, g1, g2 = (_shell_d1(U, i, cut, geom.dx) for i in range(3))
                out[(Ellipsis, *cut)] = (-(x0 * g0 + x1 * g1 + x2 * g2)
                                         - U[(Ellipsis, *cut)] / rc)


class Evolver:
    """RK4 driver for the first-order reduction on one background."""

    def __init__(self, geom, background, rank=1, channels=1, source_fn=None,
                 schematic=None, boundary="sommerfeld"):
        self.geom = geom
        self.bg = background
        self.rank = rank
        self.channels = channels
        self.source_fn = source_fn
        self.schematic = schematic
        self.boundary = boundary
        self._ghost_mode = "periodic" if boundary == "periodic" else "zero"
        # H^{ab} d_a d_b Phi = chi * sum of c_ab D_ab over the nonzero
        # entries a <= b of the direction M: D_tj = d_j Pi with c = 2 M_tj,
        # D_ii = d_i^2 Phi and D_ij = d_i d_j Phi + d_j d_i Phi (i < j)
        # with c = M_ij.  H^{tt} enters through the divisor g^{tt}.
        M = background.direction
        self._h_terms = [] if background.is_flat() else [
            (a, b, (2.0 if a == 0 else 1.0) * M[a, b])
            for a in range(4) for b in range(a, 4) if (a, b) != (0, 0) and M[a, b]]

    def rhs(self, t, Phi, Pi):
        # g^{tt} d_t Pi + 2 g^{tj} d_j Pi + g^{ij} d_i d_j Phi = S
        geom, dx = self.geom, self.geom.dx
        fill_ghosts_array(Phi, self._ghost_mode)
        fill_ghosts_array(Pi, self._ghost_mode)
        if self.bg.is_flat():
            g00 = -1.0
            dPi = np.zeros_like(Phi)
            for i in (1, 2, 3):
                dPi += d2_axis(Phi, i, dx)
        else:
            chi, _ = self.bg.profile(geom, t)
            g00 = -1.0 + chi * self.bg.direction[0, 0]
            d2 = {i: d2_axis(Phi, i, dx) for i in (1, 2, 3)}
            grads = {i: d1_axis(Phi, i, dx) for i in (1, 2, 3)}
            acc = np.zeros_like(Phi)
            for a, b, m in self._h_terms:
                if a == 0:
                    acc += m * d1_axis(Pi, b, dx)
                elif a == b:
                    acc += m * d2[a]
                else:
                    acc += m * (d1_axis(grads[a], b, dx) + d1_axis(grads[b], a, dx))
            dPi = (d2[1] + d2[2] + d2[3] + chi * acc) / (-g00)
        if self.source_fn is not None:
            dPi = dPi + self.source_fn(t) / g00
        if self.schematic is not None:
            S = build_source(self.schematic, geom, self.bg, t, Phi, Pi)
            dPi = dPi + S / g00
        dPhi = Pi.copy()
        if self.boundary != "periodic":
            _radiation_shell(geom, Phi, Pi, dPhi, dPi)
        return dPhi, dPi

    def step(self, t, Phi, Pi, dt):
        k1 = self.rhs(t, Phi, Pi)
        k2 = self.rhs(t + 0.5 * dt, Phi + 0.5 * dt * k1[0], Pi + 0.5 * dt * k1[1])
        k3 = self.rhs(t + 0.5 * dt, Phi + 0.5 * dt * k2[0], Pi + 0.5 * dt * k2[1])
        k4 = self.rhs(t + dt, Phi + dt * k3[0], Pi + dt * k3[1])
        Phi_new = Phi + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        Pi_new = Pi + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        return Phi_new, Pi_new


@dataclass
class RunHistory:
    """Stored run snapshots plus the reduction closure for monitors.

    fields/dfields hold Phi and Pi at each monitor time exactly as the
    run left them; monitors never write to them.  component_series
    computes d_tt of a component on demand from the evolver.
    """

    geom: object
    background: object
    rank: int
    channels: int
    times: list
    fields: list
    dfields: list
    evolver: Evolver
    boundary: str = "sommerfeld"

    @property
    def ghost_mode(self):
        """Ghost fill that gives stencils valid edges on this run's arrays."""
        return "periodic" if self.boundary == "periodic" else "extrapolate"

    def project(self, arr, component):
        """Scalar component of a stored tensor snapshot.

        rank 0: "scalar"; rank 1: "slotK" or a frame name; rank 2:
        "slotAB" (two digits) or a comma-joined frame pair ("Lbar,L").
        Any other name is a config error (ConstraintError).
        """
        try:
            if self.rank == 0 and component in (None, "scalar"):
                return arr
            slot = str(component)[4:]
            if str(component).startswith("slot") and len(slot) == self.rank:
                return arr[tuple(int(i) for i in slot)]
            fr = self.geom.frames()
            if self.rank == 1 and component in fr:
                return np.einsum("m...,mc...->c...", fr[component], arr)
            if self.rank == 2 and "," in str(component):
                u, v = component.split(",")
                return np.einsum("m...,k...,mkc...->c...", fr[u], fr[v], arr)
        except (IndexError, KeyError, ValueError):
            pass
        raise ConstraintError(f"unknown component {component!r} for rank {self.rank}")

    def component_series(self, component):
        """Series of one projected component.

        psi and d_t psi are projected from the stored snapshots; d_tt psi
        comes from the evolution equation, evaluated on copies of a
        snapshot the first time a monitor reads it (:class:`_OnDemand`).
        """
        def projected(arr):
            out = self.project(arr, component).copy()
            fill_ghosts_array(out, self.ghost_mode)
            return out

        def psi_tt(k):
            _, dPi = self.evolver.rhs(self.times[k], self.fields[k].copy(),
                                      self.dfields[k].copy())
            return projected(dPi)

        return ComponentSeries(self.geom, self.background, self.times,
                               [projected(F) for F in self.fields],
                               [projected(P) for P in self.dfields],
                               _OnDemand(psi_tt, len(self.times)))


class _OnDemand(Sequence):
    """Read-only list whose item k is fn(k), computed on first access and
    then kept."""

    def __init__(self, fn, n):
        self._fn = fn
        self._n = n
        self._items = {}

    def __len__(self):
        return self._n

    def __getitem__(self, k):
        k = range(self._n)[k]
        if k not in self._items:
            self._items[k] = self._fn(k)
        return self._items[k]


def evolve_run(geom, background, Phi0, Pi0, t1, t2, source_fn=None,
               schematic=None, cfl=0.45, dt=None, boundary="sommerfeld",
               monitor_stride=None, n_monitors=None, log=None):
    """Advance the reduction from t1 to t2, storing uniform monitor snapshots.

    dt is derived from the CFL number against the background lightspeed
    unless given explicitly, in which case it is validated (CFLViolation).
    """
    rank = Phi0.ndim - 4
    channels = Phi0.shape[-4]
    ev = Evolver(geom, background, rank, channels, source_fn=source_fn,
                 schematic=schematic, boundary=boundary)
    c = max_characteristic_speed(geom, background, t1)
    dt_max = CFL_LIMIT * geom.dx / c
    T = t2 - t1
    if dt is not None:
        if dt > dt_max * (1 + 1e-12):
            raise CFLViolation(f"dt = {dt} exceeds {dt_max} = 0.5 dx / c")
        nsteps = max(1, math.ceil(T / dt - 1e-12))
    else:
        nsteps = max(1, math.ceil(T / (cfl * geom.dx / c) - 1e-12))
    if n_monitors is not None:
        stride = 1
        nsteps = max(nsteps, n_monitors - 1)
        nsteps = math.ceil(nsteps / (n_monitors - 1)) * (n_monitors - 1)
        stride = nsteps // (n_monitors - 1)
    else:
        stride = monitor_stride or 1
        nsteps = math.ceil(nsteps / stride) * stride
    dt = T / nsteps
    Phi = Phi0.copy()
    Pi = Pi0.copy()
    times = [t1]
    fields = [Phi.copy()]
    dfields = [Pi.copy()]
    t = t1
    for k in range(nsteps):
        Phi, Pi = ev.step(t, Phi, Pi, dt)
        t = t1 + (k + 1) * dt
        if (k + 1) % stride == 0:
            max_abs = float(np.max(np.abs(Phi)))
            if log is not None:
                log({"event": "monitor", "step": k + 1, "t": t,
                     "cfl": dt * c / geom.dx, "max_abs": max_abs})
            max_abs_pi = float(np.max(np.abs(Pi)))
            if not (math.isfinite(max_abs) and math.isfinite(max_abs_pi)):
                if log is not None:
                    log({"event": "non_finite", "step": k + 1, "t": t,
                         "quantity": "fields", "max_abs": max_abs,
                         "max_abs_pi": max_abs_pi})
                raise NonFiniteResult(f"max |Phi| = {max_abs}, max |Pi| = "
                                      f"{max_abs_pi} at t = {t}")
            times.append(t)
            fields.append(Phi.copy())
            dfields.append(Pi.copy())
    return RunHistory(geom=geom, background=background, rank=rank,
                      channels=channels, times=times, fields=fields,
                      dfields=dfields, evolver=ev, boundary=boundary)


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


def run_experiment(cfg, out_dir, tag="", keep=None):
    """Evolve per the config, write the run log, energy series, and
    optional snapshots; returns (history, summary dict, series of the
    component ``keep`` or None).

    tag is inserted before each file extension, so runs that share an
    output directory (one per resolution in conserve) keep their own
    files: run_log<tag>.jsonl, energy_series<tag>.csv, final_state<tag>.bin.
    """
    geom, bg, params, region = setup_experiment(cfg)
    Phi0, Pi0 = _initial_data(cfg, geom)
    spec = None
    if cfg["source"]["terms"]:
        spec = SourceSpec(terms=tuple(cfg["source"]["terms"]),
                          bigO_degree=cfg["source"]["bigO_degree"],
                          slots=tuple(cfg["source"]["slots"]))
    log_path = os.path.join(out_dir, f"run_log{tag}.jsonl")
    events = []
    try:
        hist = evolve_run(
            geom, bg, Phi0, Pi0, cfg["times"]["t1"], cfg["times"]["t2"],
            schematic=spec, cfl=cfg["times"]["cfl"], dt=cfg["times"]["dt"],
            boundary=cfg["boundary"], n_monitors=cfg["monitors"],
            log=events.append)
    finally:
        _write_events(log_path, events)

    rows, kept = [], None
    summary = {"components": {}, "seed": cfg["seed"]}
    for comp in cfg["components"]:
        series = hist.component_series(comp)
        kept = series if comp == keep and kept is None else kept
        energies = []
        for k, t in enumerate(series.times):
            e_w = slice_energy(series.state(k), region, params, "w")
            e_wt = slice_energy(series.state(k), region, params, "wtilde")
            if not (math.isfinite(e_w) and math.isfinite(e_wt)):
                events.append({"event": "non_finite", "t": float(t),
                               "quantity": f"{comp}:slice_energy"})
                _write_events(log_path, events)
                raise NonFiniteResult(f"slice energy of {comp} is not finite at t = {t}")
            rows.append((t, f"{comp}:slice_energy_w", e_w))
            rows.append((t, f"{comp}:slice_energy_wtilde", e_wt))
            energies.append(e_w)
        summary["components"][comp] = {
            "initial_energy_w": energies[0],
            "final_energy_w": energies[-1],
            "max_energy_w": max(energies),
        }
    write_series_csv(os.path.join(out_dir, f"energy_series{tag}.csv"), rows)
    if cfg["snapshots"]:
        final = GridField(geom, hist.rank, hist.channels, hist.fields[-1],
                          hist.times[-1], ghost_valid=False)
        save_snapshot(final, os.path.join(out_dir, f"final_state{tag}.bin"))
    return hist, summary, kept
