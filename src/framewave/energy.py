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

Each density of T_tt + T_rt, and the H part of (div T)_nu, is written
once, as an array kernel (null_flat, h_energy, h_radial, h_ttr, h_div)
that both lanes run: the grid's SliceState on support-box arrays, and
the exact lane's point displays, which certify the kernels against the
null-frame rewriting, the assembled stress and its direct divergence.
Grid evaluations are vectorized; slice and sphere quadratures are
embarrassingly parallel over nodes, and the budget (BudgetPass) is a
sequential reduction over monitor slices.  All functions treat their
inputs as immutable snapshots.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import PoleDegenerate
from .fields import (InnerProduct, _laplacian, d1_axis, h_on_box, quadrature_masked,
                     tangential_norm_sq, wave_operator)
from .geometry import MINKOWSKI_INV, TANGENTIAL_NAMES
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

    slice_t1: float
    slice_t2: float
    cone_flux: float
    ball_flux: float
    weight_volume: float
    divergence_volume: float

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


# ---------------------------------------------------------------------------
# Density kernels, shared by both lanes
#
# Arrays are in grid layout: d = (d_t psi, d_1 psi, d_2 psi, d_3 psi) is
# (4, ch, ...) and xh = x/r is (3, ...).  H is either (4, 4, ...), one
# value per point (the exact lane), or the constant direction M (4, 4) of
# H = chi M (the grid lane, which multiplies the result by chi on the
# support box: every H term is linear in H).


def null_flat(d, xh):
    """The flat part of T_tt + T_rt in the null frame,
    (1/2)(|(d_t + d_r) psi|^2 + sum_i |slash-d_i psi|^2), and d_r psi."""
    dr = np.einsum("i...,ic...->c...", xh, d[1:])
    out = 0.5 * InnerProduct.norm_sq(d[0] + dr)
    for i in range(3):
        out += 0.5 * InnerProduct.norm_sq(d[1 + i] - xh[i] * dr)
    return out, dr


def h_energy(H, d):
    """The H part of T_tt: (1/2)(-H^tt |d_t psi|^2 + H^ij <d_i psi, d_j psi>)."""
    return 0.5 * (np.einsum("ij...,ic...,jc...->...", H[1:, 1:], d[1:], d[1:])
                  - H[0, 0] * InnerProduct.norm_sq(d[0]))


def h_radial(H, xh):
    """H^{r a} = (x_i / r) H^{i a}, shape (4, ...)."""
    return np.einsum("i...,ia...->a...", xh, H[1:])


def h_ttr(hE, Hr, d):
    """The H part of T_tt + T_rt from hE = h_energy(H, d) and Hr =
    h_radial(H, xh): hE + H^{rt} |d_t psi|^2 + H^{rj} <d_j psi, d_t psi>."""
    return (hE + Hr[0] * InnerProduct.norm_sq(d[0])
            + np.einsum("j...,jc...,c...->...", Hr[1:], d[1:], d[0]))


def h_div(out, divH, H, s, d, nu):
    """Add the H part of (div T)_nu to out in place: out += (d_m H^{ma})
    <d_a psi, d_nu psi>, then out -= (1/2) s (d_nu H^{ab}) <d_a psi, d_b psi>
    with divH = d_m H^{ma} (4, ...) and d_nu H = s H: s = 1 with H per point
    (exact lane), or s = dchi_nu with the constant M (grid)."""
    out += np.einsum("a...,ac...,c...->...", divH, d, d[nu])
    out -= 0.5 * s * np.einsum("ab...,ac...,bc...->...", H, d, d)


# ---------------------------------------------------------------------------
# Exact lane: stress algebra on PolyField scalars and the point displays
# that certify the density kernels above


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


def divergence_direct(H, psi, nu=0):
    """d^mu T_{mu nu} computed directly as sum_mu d_mu T^mu_nu (oracle)."""
    total = None
    for mu in range(4):
        t = stress_mixed(H, psi, mu, nu).diff(mu)
        total = t if total is None else total + t
    return total


def divergence_display(H, psi, pts):
    """(div T)_nu = d^mu T_{mu nu} at points (n, 4) for nu = 0..3, shape
    (4, n): the pairing <g^{ab} d_a d_b psi, d_nu psi> of the exact wave
    operator plus h_div, the kernel the grid's div_t_density runs, with
    d_mu H^{ab} from H.gradient() at the same points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    grad = psi.gradient()
    d = np.moveaxis(grad.eval(pts), 0, -1)                   # (4, ch, n)
    box = wave_operator(H, grad.gradient()).eval(pts).T      # (ch, n)
    out = InnerProduct.dot(box, d, channel_axis=1)          # (4, n)
    if H is not None:
        dH = np.moveaxis(H.gradient().eval(pts)[..., 0], 0, -1)  # (4, 4, 4, n): mu, a, b
        divH = np.einsum("mma...->a...", dH)
        for nu in range(4):
            h_div(out[nu], divH, dH[nu], 1.0, d, nu)
    return out


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
    """(T_tt + T_rt) via the coordinate display: the kernels the grid's
    ttr_density runs, null_flat + h_ttr, on the bundle in grid layout."""
    d, xh, H = (np.moveaxis(bundle[k], 0, -1) for k in ("dpsi", "xhat", "H"))
    return null_flat(d, xh)[0] + h_ttr(h_energy(H, d), h_radial(H, xh), d)


def ttr_nullframe(bundle):
    """(T_tt + T_rt) via the null-frame display:

        flat square terms - 2 H^{Lbar a} <d_a psi, d_t psi>
        + (1/2) H^{ab} <d_a psi, d_b psi>,

    with H^{Lbar a} = -(1/2) L_mu H^{mu a} and L_mu the lowered L.
    """
    d = bundle["dpsi"]
    Hv = bundle["H"]
    xh = bundle["xhat"]
    flat, _ = null_flat(np.moveaxis(d, 0, -1), xh.T)
    L_low = np.concatenate([-np.ones((len(xh), 1)), xh], axis=1)  # (n, 4)
    HLbar = -0.5 * np.einsum("nm,nma->na", L_low, Hv)
    corr = -2.0 * np.einsum("na,nac,nc->n", HLbar, d, d[:, 0, :])
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
    xh = (pts[:, 1:] / r[:, None]).T
    d = np.moveaxis(psi.gradient().eval(pts), 0, -1)  # (4, ch, n)
    flat, dr = null_flat(d, xh)
    spatial = np.einsum("ic...,ic...->...", d[1:], d[1:])
    # with d_t psi = 0, twice null_flat is |d_r psi|^2 + sum_i |slash-d_i psi|^2
    res1 = spatial - 2.0 * null_flat(np.concatenate([np.zeros_like(d[:1]), d[1:]]), xh)[0]
    rhs2 = np.einsum("ac...,ac...->...", d, d) + 2.0 * InnerProduct.dot(d[0], dr)
    return np.abs(res1), np.abs(2.0 * flat - rhs2)


# ---------------------------------------------------------------------------
# Grid-lane slice states and the budget pass


class SliceState:
    """One monitored snapshot of a multi-channel scalar on the grid.

    Holds psi, d_t psi, d_tt psi on the full cube (valid ghosts) and
    derives stress densities lazily.  Arrays follow (channels, n, n, n).
    psi_tt may be given as a zero-argument callable; it is called the
    first time d_tt psi is read (only the wave operator reads it).

    Every H term is built on the support box of the background
    (:meth:`support`), outside which chi and dchi are exactly 0, and added
    into the box of its full-cube flat part.  The densities of T_tt +
    T_rt are the kernels null_flat, h_energy, h_radial and h_ttr that the
    exact lane certifies.

    The region mask, q and its weights are cached too, so one state
    holds everything a monitor reads at its slice; the monitors build
    each slice's state once.  Those arrays and the
    support depend on the slice only, not on psi: they live in the
    ``shared`` dict, which the states of the components of one slice may
    share so that each is evaluated once per slice.
    """

    def __init__(self, geom, t, psi, psi_t, psi_tt, background, shared=None):
        self.geom = geom
        self.t = float(t)
        self.psi = psi
        self.psi_t = psi_t
        self._psi_tt = psi_tt
        self.bg = background
        self._cache = {}
        self._slice = {} if shared is None else shared

    @property
    def psi_tt(self):
        if callable(self._psi_tt):
            self._psi_tt = self._psi_tt()
        return self._psi_tt

    def _get(self, key, fn, cache=None):
        cache = self._cache if cache is None else cache
        if key not in cache:
            cache[key] = fn()
        return cache[key]

    def grad(self):
        return self.dpsi4()[1:]

    def dpsi4(self):
        """(d_t psi, d_1 psi, d_2 psi, d_3 psi) in one array; grad() is
        its spatial part."""
        def build():
            out = np.empty((4,) + self.psi.shape)
            out[0] = self.psi_t
            for i in (1, 2, 3):
                d1_axis(self.psi, i, self.geom.dx, out=out[i])
            return out
        return self._get("dpsi4", build)

    def support(self):
        """(box, chi, dchi) of the background H = chi M at this slice (see
        BumpBackground.support), or None where H vanishes on the whole cube."""
        if self.bg is None:
            return None
        return self._get("support", lambda: self.bg.support(self.geom, self.t), self._slice)

    def region_mask(self, region):
        """Interior-node mask of the exterior region at this slice."""
        return self._get(("mask", region), lambda: self.geom.region_mask(region, self.t),
                         self._slice)

    def q(self):
        """q = r - t on the interior nodes."""
        return self._get("q", lambda: self.geom.interior(self.geom.q_full(self.t)), self._slice)

    def weight(self, fn, params):
        """fn(q, params) on the interior nodes (see _weight_eval)."""
        return self._get(("weight", fn, params), lambda: _weight_eval(fn, self.q(), params),
                         self._slice)

    def wave_op(self):
        """g^{ab} d_a d_b psi using the stored second time derivative.

        Both parts run the kernels of the evolution's right-hand side:
        the flat part is fields._laplacian less d_tt psi, so off the
        radiation shell of a flat source-free run it is exactly 0; the H
        part is fields.h_on_box on the support box, plus M^{tt} d_tt psi
        there."""
        def build():
            dx = self.geom.dx
            out = _laplacian(self.psi, dx)
            out -= self.psi_tt
            sup = self.support()
            if sup is not None:
                box, chi, _ = sup
                on_box = (Ellipsis,) + box
                h = h_on_box(self.bg.hessian_terms, self.psi, self.psi_t, box, dx)
                h += self.bg.direction[0, 0] * self.psi_tt[on_box]
                out[on_box] += chi * h
            return out
        return self._get("wave_op", build)

    def _box_dpsi4(self):
        return self.dpsi4()[(Ellipsis,) + self.support()[0]]

    def _h_energy(self):
        """h_energy(M, d psi) on the support box: the H part of T_tt
        divided by chi."""
        return self._get("h_energy", lambda: h_energy(self.bg.direction, self._box_dpsi4()))

    def _radial_direction(self):
        """M^{r a} = (x_i / r) M^{i a} on the support box, shape (4, *box)."""
        return self._get("radial_direction", lambda: h_radial(
            self.bg.direction, self.geom.frame("L")[(slice(1, None),) + self.support()[0]]))

    def energy_density(self):
        """T_tt = -(1/2) g^tt |dt psi|^2 + (1/2) g^ij <di psi, dj psi>."""
        def build():
            g = self.grad()
            out = 0.5 * InnerProduct.norm_sq(self.psi_t)
            for i in range(3):
                out += 0.5 * InnerProduct.norm_sq(g[i])
            sup = self.support()
            if sup is not None:
                box, chi, _ = sup
                out[box] += chi * self._h_energy()
            return out
        return self._get("energy_density", build)

    def _null_flat(self):
        """null_flat on the full cube: (tangential integrand, d_r psi)."""
        return self._get("null_flat", lambda: null_flat(self.dpsi4(), self.geom.frame("L")[1:]))

    def ttr_density(self):
        """T_tt + T_rt in the coordinate display (weight-derivative term):
        null_flat plus chi h_ttr on the support box."""
        def build():
            out = self.tangential_integrand()
            sup = self.support()
            if sup is not None:
                box, chi, _ = sup
                h = h_ttr(self._h_energy(), self._radial_direction(), self._box_dpsi4())
                out = out.copy()            # the cached integrand stays as it is
                out[box] += chi * h
            return out
        return self._get("ttr_density", build)

    def trt_density(self):
        """T_rt = g^{r a} <d_a psi, d_t psi> (ball-flux integrand)."""
        def build():
            _, dr = self._null_flat()
            out = InnerProduct.dot(dr, self.psi_t)
            sup = self.support()
            if sup is not None:
                # g^{r a} = m^{r a} + chi M^{r a}; the flat part is the radial dr.
                box, chi, _ = sup
                d4 = self._box_dpsi4()
                out[box] += chi * np.einsum("a...,ac...,c...->...", self._radial_direction(),
                                            d4, d4[0])
            return out
        return self._get("trt_density", build)

    def div_t_density(self):
        """(div T)_t display: the wave-operator pairing <g dd psi, d_t psi>
        plus h_div, the kernel the exact lane's divergence_display runs,
        added on the support box with d_lam H^{ab} = dchi_lam M^{ab}."""
        def build():
            out = InnerProduct.dot(self.wave_op(), self.psi_t)
            sup = self.support()
            if sup is not None:
                box, _, dchi = sup
                M = self.bg.direction
                h_div(out[box], np.einsum("m...,ma->a...", dchi, M), M, dchi[0],
                      self._box_dpsi4(), 0)
            return out
        return self._get("div_t_density", build)

    def tangential_integrand(self):
        """(1/2)(|(d_t + d_r) psi|^2 + sum_i |slash-d_i psi|^2)."""
        return self._null_flat()[0]

    def grad_norm_sq(self):
        return self._get("grad_norm_sq",
                         lambda: np.einsum("ac...,ac...->...", self.dpsi4(), self.dpsi4()))

    def tangential_norm_sq(self):
        """sum over {L, e1, e2} of |d_U psi|^2 (frame tangential norm)."""
        return self._get("tangential_norm_sq", lambda: tangential_norm_sq(
            self.dpsi4(), (self.geom.frame(name) for name in TANGENTIAL_NAMES)))


def _weight_eval(fn, q, params):
    """Weight/derivative over arrays, treating exact q = 0 nodes as the
    measure-zero kink set (excluded from quadratures)."""
    qq = np.where(q == 0.0, 1e-30, q)
    return fn(qq, params)


def _quad(state, density, region, fn, params):
    """Quadrature of density * fn(q) over the exterior region of one slice."""
    geom = state.geom
    return quadrature_masked(geom, geom.interior(density) * state.weight(fn, params),
                             state.region_mask(region))


def slice_energy(state: SliceState, region: ExteriorRegion, params, weight="w"):
    """Integral of |d psi|^2 * weight(q) over the exterior slice."""
    wfun = {"w": w, "wtilde": w_tilde}[weight]
    return _quad(state, state.grad_norm_sq(), region, wfun, params)


def _tangential_slice(state, region, params):
    """Slice integral of the tangential integrand with the what'(q) weight."""
    return _quad(state, state.tangential_integrand(), region, w_hat_prime, params)


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


@functools.cache
def _sphere_nodes(n_theta=16, n_phi=32):
    """Unit directions (n_theta * n_phi, 3) and weights of the product
    rule on the sphere: Gauss-Legendre in cos(theta), uniform in phi,
    theta-major.  One read-only copy per size."""
    mu, wmu = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    st = np.sqrt(1.0 - mu ** 2)
    dirs = np.empty((n_theta, n_phi, 3))
    np.multiply(st[:, None], np.cos(phi), out=dirs[..., 0])
    np.multiply(st[:, None], np.sin(phi), out=dirs[..., 1])
    dirs[..., 2] = mu[:, None]
    wgts = np.repeat(wmu * (2.0 * np.pi / n_phi), n_phi)
    dirs = dirs.reshape(n_theta * n_phi, 3)
    dirs.flags.writeable = wgts.flags.writeable = False
    return dirs, wgts


def _sphere_integral(geom, interior_values, radius, dirs, wgts):
    pts = radius * dirs
    return float(np.sum(_trilinear(geom, interior_values, pts) * wgts)) * radius ** 2


def _cone_slice(st, q0, ball, nodes, params):
    """(T_tt + T_rt) wtilde(q0) over the sphere r = t + q0 of one slice, or
    None where the cone misses the truncated region (the sphere lies
    inside the origin ball or within two cells of the grid edge)."""
    geom, rc = st.geom, st.t + q0
    if rc <= ball or rc >= geom.X - 2 * geom.dx:
        return None
    wq = w_tilde(q0, params)
    return _sphere_integral(geom, geom.interior(st.ttr_density()), rc, *nodes) * wq


def _ball_slice(st, region, ball, nodes, params):
    """Outflow of T_rt wtilde(q) through the origin-ball sphere of one slice
    (negative orientation), or None where the sphere lies in the excluded
    cone."""
    q = ball - st.t
    if np.isfinite(region.q0) and q < region.q0:
        return None
    wq = _weight_eval(w_tilde, np.array([q]), params)[0]
    return -_sphere_integral(st.geom, st.geom.interior(st.trt_density()), ball, *nodes) * wq


def _surface_integral(samples):
    """Trapezoid in time over the (t, value) samples whose value is not
    None; 0 when fewer than two slices meet the surface."""
    met = [(t, v) for t, v in samples if v is not None]
    return trapz([v for _, v in met], [t for t, _ in met])


class BudgetPass:
    """The terms of the weighted budget identity, one slice at a time.

    ``add`` takes the slice states from t1 to t2 in time order and reads
    every term of a slice from its state, keeping nothing of the state;
    ``end`` marks the slices at t1 and t2, whose slice energies enter the
    identity, each weighted by wtilde(q) or wtilde'(q) of ``params``.  A
    cone that meets fewer than two slices (q0 = -inf included)
    contributes 0.
    """

    def __init__(self, region, params):
        self.region = region
        self.params = params
        self._nodes = _sphere_nodes(16, 32), _sphere_nodes(8, 16)
        self._ts, self._ends, self._wvals, self._dvals, self._cone, self._balls = (
            [], [], [], [], [], [])

    def add(self, st, end=False):
        region, params = self.region, self.params
        ball = region.ball(st.geom)
        cone_nodes, ball_nodes = self._nodes
        if end:
            self._ends.append(_quad(st, st.energy_density(), region, w_tilde, params))
        self._wvals.append(_quad(st, st.ttr_density(), region, w_tilde_prime, params))
        self._dvals.append(_quad(st, st.div_t_density(), region, w_tilde, params))
        self._cone.append((st.t, _cone_slice(st, region.q0, ball, cone_nodes, params)))
        self._balls.append((st.t, _ball_slice(st, region, ball, ball_nodes, params)))
        self._ts.append(st.t)

    def report(self):
        """The BudgetReport of the slices added so far."""
        return BudgetReport(
            slice_t1=self._ends[0], slice_t2=self._ends[-1],
            cone_flux=_surface_integral(self._cone), ball_flux=_surface_integral(self._balls),
            weight_volume=trapz(self._wvals, self._ts),
            divergence_volume=trapz(self._dvals, self._ts),
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
