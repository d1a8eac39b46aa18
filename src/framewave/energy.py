"""Stress tensor, exterior-slice energies, cone fluxes, and budget closure.

The non-symmetric wave stress tensor for a multi-channel scalar psi is

    T^mu_nu = g^{mu a} <d_a psi, d_nu psi> - (1/2) delta^mu_nu g^{ab} <d_a psi, d_b psi>

with indices moved by the flat metric (so the mixed flat factor is the
identity) and <.,.> the channel-wise Euclidean pairing.  Contracting with
the weighted vector wtilde(q) d_t and applying the divergence theorem over
the exterior region {q >= q0} minus the origin ball, truncated between t1
and t2, gives the budget identity evaluated term by term here:

    slice(t2) - slice(t1) + cone flux + ball flux
        + int (T_tt + T_rt) wtilde'(q)  + int (div T)_t wtilde(q)  =  0.

The inner cone boundary is realized as the exact flat cone q = q0 with
outgoing normal combination T_tt + T_rt and surface measure r^2 dtau
d(omega); this normalization is validated by the budget-closure tests
rather than assumed.  Volume integrals truncate at the grid edge, which is
inert for compactly supported data.

Grid evaluations are vectorized; slice and sphere quadratures are
embarrassingly parallel over nodes, and budget assembly is a sequential
reduction over monitor times.  All functions treat their inputs as
immutable snapshots.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCone, HistoryMissing, PoleDegenerate
from .fields import InnerProduct, d1_axis, d2_axis, quadrature_masked
from .geometry import MINKOWSKI_INV
from .weights import w, w_hat_prime, w_tilde, w_tilde_prime


def trapz(y, x):
    fn = getattr(np, "trapezoid", None) or np.trapz
    return float(fn(np.asarray(y, dtype=float), np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class ExteriorRegion:
    """{q >= q0} minus a ball around the spatial origin.

    origin_ball_radius None means 2 * dx of whichever grid is used.
    q0 = -inf keeps the whole slice (minus the ball).
    """

    q0: float = float("-inf")
    origin_ball_radius: float | None = None

    def ball(self, geom):
        return 2.0 * geom.dx if self.origin_ball_radius is None else self.origin_ball_radius


@dataclass
class BudgetReport:
    """Every term of the weighted budget identity, plus the closing defect."""

    t1: float
    t2: float
    slice_t1: float
    slice_t2: float
    cone_flux: float
    ball_flux: float
    weight_volume: float
    divergence_volume: float
    hypothesis_ok: bool = True
    sup_H: float = 0.0

    @property
    def residual(self):
        return abs(
            self.slice_t2 - self.slice_t1 + self.cone_flux + self.ball_flux
            + self.weight_volume + self.divergence_volume
        )

    @property
    def scale(self):
        return max(abs(self.slice_t1), abs(self.slice_t2), 1e-300)

    @property
    def relative_residual(self):
        return self.residual / self.scale

    def terms(self):
        return {
            "slice_t1": self.slice_t1,
            "slice_t2": self.slice_t2,
            "cone_flux": self.cone_flux,
            "ball_flux": self.ball_flux,
            "weight_derivative_volume": self.weight_volume,
            "divergence_volume": self.divergence_volume,
            "residual": self.residual,
            "relative_residual": self.relative_residual,
        }

    def to_json(self):
        out = {"t1": self.t1, "t2": self.t2, "sup_H": self.sup_H,
               "smallness_hypothesis_ok": self.hypothesis_ok}
        out.update(self.terms())
        return out


# ---------------------------------------------------------------------------
# Exact-lane stress algebra (PolyField scalars; channel axis explicit)


def _g_inv_poly(H):
    from .poly import Poly

    g = np.empty((4, 4), dtype=object)
    for a in range(4):
        for b in range(4):
            g[a, b] = Poly.const(int(MINKOWSKI_INV[a, b]))
            if H is not None:
                g[a, b] = g[a, b] + H.comps[a, b, 0]
    return g


def stress_mixed(H, psi, mu, nu):
    """Exact T^mu_nu for a scalar PolyField psi; returns a Poly scalar."""
    grad = psi.gradient()  # (4, ch)
    g = _g_inv_poly(H)

    def ip(a, b):
        out = None
        for c in range(psi.channels):
            t = grad.comps[a, c] * grad.comps[b, c]
            out = t if out is None else out + t
        return out

    T = None
    for a in range(4):
        term = g[mu, a] * ip(a, nu)
        T = term if T is None else T + term
    if mu == nu:
        tr = None
        for a in range(4):
            for b in range(4):
                gb = g[a, b]
                if gb.is_zero():
                    continue
                term = gb * ip(a, b)
                tr = term if tr is None else tr + term
        if tr is not None:
            T = T - tr * 0.5
    return T


def stress_lowered(H, psi, mu, nu):
    """T_{mu nu} = m_{mu lam} T^lam_nu (sign flip on a time first slot)."""
    sign = -1 if mu == 0 else 1
    return stress_mixed(H, psi, mu, nu) * sign


def divergence_formula(H, psi, nu=0):
    """The evaluated covariant divergence d^mu T_{mu nu}, term by term:

        <g^{ab} d_a d_b psi, d_nu psi>
        + (d_mu H^{mu a}) <d_a psi, d_nu psi>
        - (1/2) (d_nu H^{ab}) <d_a psi, d_b psi>.
    """
    grad = psi.gradient()
    hess = psi.gradient().gradient()
    g = _g_inv_poly(H)

    def ip_grad(a, b):
        out = None
        for c in range(psi.channels):
            t = grad.comps[a, c] * grad.comps[b, c]
            out = t if out is None else out + t
        return out

    total = None
    for c in range(psi.channels):
        box = None
        for a in range(4):
            for b in range(4):
                if g[a, b].is_zero():
                    continue
                t = g[a, b] * hess.comps[a, b, c]
                box = t if box is None else box + t
        t = box * grad.comps[nu, c]
        total = t if total is None else total + t
    if H is not None:
        for a in range(4):
            divH = None
            for m_ in range(4):
                t = H.comps[m_, a, 0].diff(m_)
                divH = t if divH is None else divH + t
            if not divH.is_zero():
                total = total + divH * ip_grad(a, nu)
        for a in range(4):
            for b in range(4):
                dH = H.comps[a, b, 0].diff(nu)
                if not dH.is_zero():
                    total = total + dH * ip_grad(a, b) * (-0.5)
    return total


def divergence_direct(H, psi, nu=0):
    """d^mu T_{mu nu} computed directly as sum_mu d_mu T^mu_nu (oracle)."""
    total = None
    for mu in range(4):
        t = stress_mixed(H, psi, mu, nu).diff(mu)
        total = t if total is None else total + t
    return total


def divergence_T(H, psi):
    """The covariant stress divergence as a covector of exact scalars."""
    return [divergence_formula(H, psi, nu) for nu in range(4)]


def eval_point_bundle(H, psi, pts):
    """Pointwise data for the slice-density displays on exact fields."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    r = np.sqrt(np.sum(pts[:, 1:] ** 2, axis=1))
    if np.any(r == 0.0):
        raise PoleDegenerate("density displays need r > 0")
    dpsi = psi.gradient().eval(pts)  # (n, 4, ch)
    Hv = H.eval(pts)[..., 0] if H is not None else np.zeros((pts.shape[0], 4, 4))
    xhat = pts[:, 1:] / r[:, None]
    return {"pts": pts, "r": r, "xhat": xhat, "dpsi": dpsi, "H": Hv}


def ttr_coordinate(bundle):
    """(T_tt + T_rt) via the coordinate display: flat square terms plus the
    five H-correction terms with H^{r a} = (x_i / r) H^{i a}."""
    d = bundle["dpsi"]
    Hv = bundle["H"]
    xh = bundle["xhat"]
    dt = d[:, 0, :]
    dr = np.einsum("ni,nic->nc", xh, d[:, 1:, :])
    flat = 0.5 * np.sum((dt + dr) ** 2, axis=1)
    for i in range(3):
        slash = d[:, 1 + i, :] - xh[:, i][:, None] * dr
        flat += 0.5 * np.sum(slash ** 2, axis=1)
    Htt = Hv[:, 0, 0]
    corr = -0.5 * Htt * np.sum(dt * dt, axis=1)
    corr += 0.5 * np.einsum("nij,nic,njc->n", Hv[:, 1:, 1:], d[:, 1:, :], d[:, 1:, :])
    Hr = np.einsum("ni,nia->na", xh, Hv[:, 1:, :])  # H^{r a}
    corr += Hr[:, 0] * np.sum(dt * dt, axis=1)
    corr += np.einsum("nj,njc,nc->n", Hr[:, 1:], d[:, 1:, :], dt)
    return flat + corr


def ttr_nullframe(bundle):
    """(T_tt + T_rt) via the null-frame display:

        flat square terms - 2 H^{Lbar a} <d_a psi, d_t psi>
        + (1/2) H^{ab} <d_a psi, d_b psi>,

    with H^{Lbar a} = -(1/2) L_mu H^{mu a} and L_mu the lowered L.
    """
    d = bundle["dpsi"]
    Hv = bundle["H"]
    xh = bundle["xhat"]
    dt = d[:, 0, :]
    dr = np.einsum("ni,nic->nc", xh, d[:, 1:, :])
    flat = 0.5 * np.sum((dt + dr) ** 2, axis=1)
    for i in range(3):
        slash = d[:, 1 + i, :] - xh[:, i][:, None] * dr
        flat += 0.5 * np.sum(slash ** 2, axis=1)
    L_low = np.concatenate([-np.ones((len(xh), 1)), xh], axis=1)  # (n, 4)
    HLbar = -0.5 * np.einsum("nm,nma->na", L_low, Hv)
    corr = -2.0 * np.einsum("na,nac,nc->n", HLbar, d, dt)
    corr += 0.5 * np.einsum("nab,nac,nbc->n", Hv, d, d)
    return flat + corr


def ttr_from_stress(H, psi, pts):
    """T_tt + T_rt assembled from stress_mixed components (cross oracle)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    r = np.sqrt(np.sum(pts[:, 1:] ** 2, axis=1))
    xh = pts[:, 1:] / r[:, None]
    Ttt = -stress_mixed(H, psi, 0, 0).eval_many(pts)
    out = Ttt
    for j in range(3):
        out = out + xh[:, j] * stress_mixed(H, psi, 1 + j, 0).eval_many(pts)
    return out


def gradient_decomposition_residuals(psi, pts):
    """Exact residuals of the two gradient-decomposition identities.

    (1) delta^{ij} <d_i psi, d_j psi> = sum_i |slash-d_i psi|^2 + |d_r psi|^2
    (2) |(d_t + d_r) psi|^2 + sum_i |slash-d_i psi|^2
          = |d psi|^2 + 2 <d_t psi, d_r psi>.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    r = np.sqrt(np.sum(pts[:, 1:] ** 2, axis=1))
    if np.any(r == 0.0):
        raise PoleDegenerate
    xh = pts[:, 1:] / r[:, None]
    d = psi.gradient().eval(pts)
    dt = d[:, 0, :]
    dr = np.einsum("ni,nic->nc", xh, d[:, 1:, :])
    slash_sq = np.zeros(len(pts))
    for i in range(3):
        slash = d[:, 1 + i, :] - xh[:, i][:, None] * dr
        slash_sq += np.sum(slash ** 2, axis=1)
    spatial = np.einsum("nic,nic->n", d[:, 1:, :], d[:, 1:, :])
    res1 = spatial - (slash_sq + np.sum(dr * dr, axis=1))
    lhs2 = np.sum((dt + dr) ** 2, axis=1) + slash_sq
    rhs2 = np.einsum("nac,nac->n", d, d) + 2.0 * np.sum(dt * dr, axis=1)
    return np.abs(res1), np.abs(lhs2 - rhs2)


def norm_equivalence_bounds(H_samples):
    """Eigenvalue range of the slice quadratic form against |d psi|^2.

    For each sampled H (4x4 symmetric contravariant values), the form
    -(m^tt + H^tt)|dt psi|^2 + (m^ij + H^ij) <di psi, dj psi> is
    block-diagonal; returns (min, max) eigenvalue over the samples.
    """
    lo, hi = np.inf, -np.inf
    for Hv in H_samples:
        A = np.zeros((4, 4))
        A[0, 0] = 1.0 - Hv[0, 0]
        A[1:, 1:] = np.eye(3) + Hv[1:, 1:]
        ev = np.linalg.eigvalsh(0.5 * (A + A.T))
        lo = min(lo, ev.min())
        hi = max(hi, ev.max())
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# Grid-lane slice states and series


class SliceState:
    """One monitored snapshot of a multi-channel scalar on the grid.

    Holds psi, d_t psi, d_tt psi on the full cube (valid ghosts) and
    derives stress densities lazily.  Arrays follow (channels, n, n, n).
    psi_tt may be given as a zero-argument callable; it is called the
    first time d_tt psi is read (only the wave operator reads it).
    """

    def __init__(self, geom, t, psi, psi_t, psi_tt, background):
        self.geom = geom
        self.t = float(t)
        self.psi = psi
        self.psi_t = psi_t
        self._psi_tt = psi_tt
        self.bg = background
        self._cache = {}

    @property
    def psi_tt(self):
        if callable(self._psi_tt):
            self._psi_tt = self._psi_tt()
        return self._psi_tt

    def _get(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def grad(self):
        return self._get("grad", lambda: np.stack(
            [d1_axis(self.psi, i, self.geom.dx) for i in (1, 2, 3)]))

    def grad_t(self):
        return self._get("grad_t", lambda: np.stack(
            [d1_axis(self.psi_t, i, self.geom.dx) for i in (1, 2, 3)]))

    def dpsi4(self):
        return self._get("dpsi4", lambda: np.concatenate(
            [self.psi_t[None], self.grad()]))

    def hess(self):
        def build():
            g = self.grad()
            out = np.empty((3, 3) + self.psi.shape)
            for i in (1, 2, 3):
                out[i - 1, i - 1] = d2_axis(self.psi, i, self.geom.dx)
            for i in (1, 2, 3):
                for j in range(i + 1, 4):
                    mixed = d1_axis(g[i - 1], j, self.geom.dx)
                    out[i - 1, j - 1] = mixed
                    out[j - 1, i - 1] = mixed
            return out
        return self._get("hess", build)

    def H(self):
        if self.bg is None or self.bg.is_flat():
            return None
        return self._get("H", lambda: self.bg.H_full(self.geom, self.t))

    def dH(self):
        if self.bg is None or self.bg.is_flat():
            return None
        return self._get("dH", lambda: self.bg.dH_full(self.geom, self.t))

    def wave_op(self):
        """g^{ab} d_a d_b psi using the stored second time derivative."""
        def build():
            H = self.H()
            out = -self.psi_tt.copy()
            hess = self.hess()
            for i in range(3):
                out += hess[i, i]
            if H is not None:
                out += H[0, 0] * self.psi_tt
                gt = self.grad_t()
                for i in range(3):
                    out += 2.0 * H[0, 1 + i] * gt[i]
                for i in range(3):
                    for j in range(3):
                        out += H[1 + i, 1 + j] * hess[i, j]
            return out
        return self._get("wave_op", build)

    def energy_density(self):
        """T_tt = -(1/2) g^tt |dt psi|^2 + (1/2) g^ij <di psi, dj psi>."""
        def build():
            H = self.H()
            g = self.grad()
            out = 0.5 * InnerProduct.norm_sq(self.psi_t)
            for i in range(3):
                out += 0.5 * InnerProduct.norm_sq(g[i])
            if H is not None:
                out -= 0.5 * H[0, 0] * InnerProduct.norm_sq(self.psi_t)
                for i in range(3):
                    for j in range(3):
                        out += 0.5 * H[1 + i, 1 + j] * InnerProduct.dot(g[i], g[j])
            return out
        return self._get("energy_density", build)

    def _radial(self):
        def build():
            fr = self.geom.frames()
            xh = fr["L"][1:]  # (3, n,n,n)
            g = self.grad()
            dr = np.einsum("i...,ic...->c...", xh, g)
            return xh, dr
        return self._get("radial", build)

    def ttr_density(self):
        """T_tt + T_rt in the coordinate display (weight-derivative term)."""
        def build():
            xh, dr = self._radial()
            g = self.grad()
            out = 0.5 * InnerProduct.norm_sq(self.psi_t + dr)
            for i in range(3):
                slash = g[i] - xh[i] * dr
                out += 0.5 * InnerProduct.norm_sq(slash)
            H = self.H()
            if H is not None:
                out -= 0.5 * H[0, 0] * InnerProduct.norm_sq(self.psi_t)
                for i in range(3):
                    for j in range(3):
                        out += 0.5 * H[1 + i, 1 + j] * InnerProduct.dot(g[i], g[j])
                Hr = np.einsum("i...,ia...->a...", xh, H[1:, :])
                out += Hr[0] * InnerProduct.norm_sq(self.psi_t)
                for j in range(3):
                    out += Hr[1 + j] * InnerProduct.dot(g[j], self.psi_t)
            return out
        return self._get("ttr_density", build)

    def trt_density(self):
        """T_rt = g^{r a} <d_a psi, d_t psi> (ball-flux integrand)."""
        def build():
            xh, dr = self._radial()
            out = InnerProduct.dot(dr, self.psi_t)
            H = self.H()
            if H is not None:
                Hr = np.einsum("i...,ia...->a...", xh, H[1:, :])
                d4 = self.dpsi4()
                # g^{r a} = m^{r a} + H^{r a}; the flat part is the radial dr.
                out += np.einsum("a...,ac...,c...->...", Hr, d4, self.psi_t)
            return out
        return self._get("trt_density", build)

    def div_t_density(self):
        """(div T)_t display: wave-operator pairing plus dH corrections."""
        def build():
            out = InnerProduct.dot(self.wave_op(), self.psi_t)
            dH = self.dH()
            if dH is not None:
                d4 = self.dpsi4()
                divH = np.einsum("mma...->a...", dH[:, :, :])  # d_mu H^{mu a}
                out += np.einsum("a...,ac...,c...->...", divH, d4, self.psi_t)
                out -= 0.5 * np.einsum("ab...,ac...,bc...->...", dH[0], d4, d4)
            return out
        return self._get("div_t_density", build)

    def tangential_integrand(self):
        """(1/2)(|(d_t + d_r) psi|^2 + sum_i |slash-d_i psi|^2)."""
        def build():
            xh, dr = self._radial()
            g = self.grad()
            out = 0.5 * InnerProduct.norm_sq(self.psi_t + dr)
            for i in range(3):
                slash = g[i] - xh[i] * dr
                out += 0.5 * InnerProduct.norm_sq(slash)
            return out
        return self._get("tangential_integrand", build)

    def grad_norm_sq(self):
        return self._get("grad_norm_sq",
                         lambda: np.einsum("ac...,ac...->...", self.dpsi4(), self.dpsi4()))

    def tangential_norm_sq(self):
        """sum over {L, e1, e2} of |d_U psi|^2 (frame tangential norm)."""
        def build():
            fr = self.geom.frames()
            d4 = self.dpsi4()
            out = np.zeros(self.psi.shape[1:])
            for name in ("L", "e1", "e2"):
                dU = np.einsum("m...,mc...->c...", fr[name], d4)
                out += InnerProduct.norm_sq(dU)
            return out
        return self._get("tangential_norm_sq", build)


class ComponentSeries:
    """Uniformly spaced monitored snapshots of one scalar component.

    psi, psi_t and psi_tt are sequences of (channels, n, n, n) arrays;
    a slice state reads psi_tt[k] only when its wave operator is needed,
    so psi_tt may compute its items on first access.
    """

    def __init__(self, geom, background, times, psi, psi_t, psi_tt):
        self.geom = geom
        self.background = background
        self.times = np.asarray(times, dtype=float)
        if len(self.times) >= 2:
            dts = np.diff(self.times)
            if not np.allclose(dts, dts[0], rtol=1e-8, atol=1e-12):
                raise HistoryMissing("monitor times must be uniformly spaced")
        self.psi = psi
        self.psi_t = psi_t
        self.psi_tt = psi_tt

    def __len__(self):
        return len(self.times)

    def index_of(self, t):
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise HistoryMissing(f"time {t} not in stored history")
        return k

    def index_range(self, t1, t2):
        return self.index_of(t1), self.index_of(t2)

    def state(self, k):
        return SliceState(self.geom, self.times[k], self.psi[k],
                          self.psi_t[k], lambda: self.psi_tt[k], self.background)

    def state_at(self, t):
        return self.state(self.index_of(t))


def _weight_eval(fn, q, params):
    """Weight/derivative over arrays, treating exact q = 0 nodes as the
    measure-zero kink set (excluded from quadratures)."""
    if params is None:
        return np.ones_like(q)
    qq = np.where(q == 0.0, 1e-30, q)
    return fn(qq, params)


def slice_energy(state: SliceState, region: ExteriorRegion, params, weight="w"):
    """Integral of |d psi|^2 * weight(q) over the exterior slice."""
    geom = state.geom
    mask = geom.region_mask(region, state.t)
    vals = geom.interior(state.grad_norm_sq())
    q = geom.interior(geom.q_full(state.t))
    wfun = {"w": w, "wtilde": w_tilde, "one": None}[weight]
    wvals = _weight_eval(wfun, q, params) if wfun else np.ones_like(q)
    return quadrature_masked(geom, vals * wvals, mask)


def exterior_energy(series: ComponentSeries, t, region, params, weight="w"):
    """Estimate-side slice energy at a stored monitor time.

    The series passed in is already the Lie-applied, frame-projected
    component; zero fields integrate to zero and the functional is
    quadratic under data scaling.
    """
    return slice_energy(series.state_at(t), region, params, weight=weight)


def tangential_flux_integral(series, t1, t2, region, params):
    """Time integral of the weighted tangential-derivative slice integrals.

    Integrand (1/2)(|(d_t + d_r) psi|^2 + sum_i |slash-d_i psi|^2) with the
    what'(q) weight; trapezoid in time over stored monitor slices.
    Nonnegative by construction.
    """
    k1, k2 = series.index_range(t1, t2)
    if k2 <= k1:
        raise HistoryMissing("t2 must exceed t1 in the stored history")
    geom = series.geom
    vals = []
    for k in range(k1, k2 + 1):
        st = series.state(k)
        mask = geom.region_mask(region, st.t)
        q = geom.interior(geom.q_full(st.t))
        wp = _weight_eval(w_hat_prime, q, params)
        vals.append(quadrature_masked(geom, geom.interior(st.tangential_integrand()) * wp, mask))
    return trapz(vals, series.times[k1:k2 + 1])


def _trilinear(geom, interior_values, pts3):
    """Trilinear interpolation of an interior (N,N,N) array at (m, 3) points."""
    u = (pts3 + geom.X) / geom.dx - 0.5
    i0 = np.clip(np.floor(u).astype(int), 0, geom.N - 2)
    f = u - i0
    out = np.zeros(len(pts3))
    for da in (0, 1):
        for db in (0, 1):
            for dc in (0, 1):
                wgt = (
                    (f[:, 0] if da else 1 - f[:, 0])
                    * (f[:, 1] if db else 1 - f[:, 1])
                    * (f[:, 2] if dc else 1 - f[:, 2])
                )
                out += wgt * interior_values[i0[:, 0] + da, i0[:, 1] + db, i0[:, 2] + dc]
    return out


def _sphere_nodes(n_theta=16, n_phi=32):
    mu, wmu = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    st = np.sqrt(1.0 - mu ** 2)
    dirs = np.empty((n_theta * n_phi, 3))
    wgts = np.empty(n_theta * n_phi)
    k = 0
    for i in range(n_theta):
        for j in range(n_phi):
            dirs[k] = (st[i] * np.cos(phi[j]), st[i] * np.sin(phi[j]), mu[i])
            wgts[k] = wmu[i] * (2.0 * np.pi / n_phi)
            k += 1
    return dirs, wgts


def _sphere_integral(geom, interior_values, radius, dirs, wgts):
    pts = radius * dirs
    return float(np.sum(_trilinear(geom, interior_values, pts) * wgts)) * radius ** 2


def cone_flux(series, q0, t1, t2, params, n_theta=16, n_phi=32,
              region=None):
    """Flux of the weighted stress through the cone q = q0 between t1, t2.

    The cone is parametrized as (tau, (tau + q0) omega); the integrand is
    (T_tt + T_rt) * wtilde(q0) with measure r^2 dtau d(omega).  Portions of
    the cone below the origin ball or outside the grid do not exist for
    the truncated region and are skipped; an entirely absent cone raises
    EmptyCone.
    """
    if not np.isfinite(q0):
        raise EmptyCone("cone at q0 = -inf never intersects the slab")
    geom = series.geom
    k1, k2 = series.index_range(t1, t2)
    ball = region.ball(geom) if region is not None else 2.0 * geom.dx
    dirs, wgts = _sphere_nodes(n_theta, n_phi)
    taus, vals = [], []
    for k in range(k1, k2 + 1):
        tau = series.times[k]
        rc = tau + q0
        if rc <= ball or rc >= geom.X - 2 * geom.dx:
            continue
        st = series.state(k)
        wq = w_tilde(q0, params) if params is not None else 1.0
        surf = _sphere_integral(geom, geom.interior(st.ttr_density()), rc, dirs, wgts)
        taus.append(tau)
        vals.append(surf * wq)
    if len(taus) < 2:
        if not taus:
            raise EmptyCone(f"cone q = {q0} outside the grid for [{t1}, {t2}]")
        return 0.0
    return trapz(vals, taus)


def _ball_flux(series, region, t1, t2, params, n_theta=8, n_phi=16):
    """Outflow through the origin-ball sphere (negative orientation)."""
    geom = series.geom
    ball = region.ball(geom)
    k1, k2 = series.index_range(t1, t2)
    dirs, wgts = _sphere_nodes(n_theta, n_phi)
    taus, vals = [], []
    for k in range(k1, k2 + 1):
        tau = series.times[k]
        if np.isfinite(region.q0) and ball - tau < region.q0:
            continue  # ball sphere lies inside the excluded cone
        st = series.state(k)
        wq = _weight_eval(w_tilde, np.array([ball - tau]), params)[0] if params is not None else 1.0
        surf = _sphere_integral(geom, geom.interior(st.trt_density()), ball, dirs, wgts)
        taus.append(tau)
        vals.append(-surf * wq)
    if len(taus) < 2:
        return 0.0
    return trapz(vals, taus)


def conservation_budget(series, region, t1, t2, params=None,
                        n_theta=16, n_phi=32, ball_quadrature=True):
    """Assemble every term of the weighted budget identity.

    params None runs the unweighted budget (weight identically 1, zero
    weight-derivative term).  The report records the smallness flag
    |H| < 1/3 without aborting on violation.
    """
    geom = series.geom
    k1, k2 = series.index_range(t1, t2)
    st1, st2 = series.state(k1), series.state(k2)

    def slice_term(st):
        mask = geom.region_mask(region, st.t)
        q = geom.interior(geom.q_full(st.t))
        wv = _weight_eval(w_tilde, q, params)
        return quadrature_masked(geom, geom.interior(st.energy_density()) * wv, mask)

    slice_t1 = slice_term(st1)
    slice_t2 = slice_term(st2)

    wvals, dvals = [], []
    for k in range(k1, k2 + 1):
        st = series.state(k)
        mask = geom.region_mask(region, st.t)
        q = geom.interior(geom.q_full(st.t))
        if params is not None:
            wp = _weight_eval(w_tilde_prime, q, params)
            wvals.append(quadrature_masked(geom, geom.interior(st.ttr_density()) * wp, mask))
        else:
            wvals.append(0.0)
        wt = _weight_eval(w_tilde, q, params)
        dvals.append(quadrature_masked(geom, geom.interior(st.div_t_density()) * wt, mask))
    ts = series.times[k1:k2 + 1]
    weight_volume = trapz(wvals, ts)
    divergence_volume = trapz(dvals, ts)

    try:
        cf = cone_flux(series, region.q0, t1, t2, params,
                       n_theta=n_theta, n_phi=n_phi, region=region)
    except EmptyCone:
        cf = 0.0
    bf = _ball_flux(series, region, t1, t2, params) if ball_quadrature else 0.0

    supH = series.background.sup_abs() if series.background is not None else 0.0
    return BudgetReport(
        t1=t1, t2=t2, slice_t1=slice_t1, slice_t2=slice_t2,
        cone_flux=cf, ball_flux=bf, weight_volume=weight_volume,
        divergence_volume=divergence_volume,
        hypothesis_ok=bool(supH < 1.0 / 3.0), sup_H=float(supH),
    )


# ---------------------------------------------------------------------------
# Report serialization


def write_series_csv(path, rows):
    """rows: iterable of (t, term, value); plot-ready long format."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "term", "value"])
        for t, term, value in rows:
            wr.writerow([f"{t:.12g}", term, f"{value:.16e}"])


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
