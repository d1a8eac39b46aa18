"""Reference implementations that the tests compare framewave against.

Two kinds live here.  Loops and helpers that framewave itself does not
run: the stored run (every slice copied, d_tt of a slice from the
right-hand side on copies), stored component series with the budget,
flux and estimate loops over them and the experiment run and
``estimate`` mode that store every snapshot (the monitors feed
``energy.BudgetPass`` and ``estimates.EstimatePass`` slice by slice
instead, with d_tt from the run's slope), full-cube
derivatives of a slice state, point-frame contractions, grid quadrature
of a GridField, the direct form of the commutator's left side,
coordinate derivatives of a PolyField and the frame-gradient bound.  And
the earlier bodies of code that framewave now computes through one
shared kernel (the coordinate display of T_tt + T_rt, the pointwise
null frame, the exact wave operator, the decay check's tangential loop,
the per-point ``Point``/``Frame`` generator representations of slash-d_i
and e_A with the two certify checks that ran them, the manufactured
source that read its H terms off the direction matrix, and the Lie
step's generator coefficients evaluated from the exact field, and the
exponent draw of ``random_poly`` one ``int`` at a time), kept as
they were so that tests can require the kernels to agree with them bit
for bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from framewave import evolve
from framewave.certify import sample_points
from framewave.energy import (BudgetPass, SliceState, _ball_slice, _cone_slice, _sphere_nodes,
                              _surface_integral, _tangential_slice, slice_energy, trapz,
                              write_json, write_series_csv)
from framewave.errors import (FramewaveError, HistoryMissing, NonFiniteResult, PoleDegenerate,
                              TimeZero)
from framewave.estimates import (EstimatePass, EstimateReport, _H_frame_arrays,
                                 lbar_radial_residual, lie_component_series,
                                 lie_field_series)
from framewave.fields import (GridField, PolyField, d1_axis, d2_axis, fill_ghosts_array,
                              save_snapshot, wave_operator)
from framewave.geometry import FULL_NAMES, MINKOWSKI, MINKOWSKI_INV, POLAR_CAP, frame_arrays
from framewave.poly import GaussPoly, Poly, _eval_scalars, random_poly
from framewave.vecfields import (_FIELD_CACHE, GENERATORS, VectorFieldId, apply_to_scalar,
                                 lie_multi, parse_multi_index)
from framewave.weights import w_tilde, w_tilde_prime

class RankMismatch(FramewaveError):
    """Tensor rank does not match the number of contraction vectors."""


class GhostInvalid(FramewaveError):
    """Grid derivative requested while ghost layers are stale."""


class EmptyRegion(FramewaveError):
    """Integration region contains no grid nodes."""


class EmptyCone(FramewaveError):
    """Cone does not intersect the grid for the requested time range."""


# --- energy: stored series and the loops over them ------------------------------


class ComponentSeries:
    """Uniformly spaced monitored snapshots of one scalar component.

    psi, psi_t and psi_tt are sequences of (channels, n, n, n) arrays;
    a slice state reads psi_tt[k] only when its wave operator is needed.
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


@dataclass
class StoredRun(evolve.RunHistory):
    """A run that stored every slice, with an evolver of its equation."""

    evolver: evolve.Evolver = None


def stored_run(geom, background, Phi0, Pi0, t1, t2, source_fn=None, schematic=None,
               boundary="sommerfeld", **kwargs):
    """``evolve.evolve_run`` on copies of Phi0 and Pi0 that stores every
    slice, as the run did before it took one consumer path: the
    reference for the streamed monitors."""
    run = evolve.evolve_run(geom, background, Phi0.copy(), Pi0.copy(), t1, t2,
                            lambda run, t, Phi, Pi, slope: run.store(t, Phi, Pi),
                            source_fn=source_fn, schematic=schematic, boundary=boundary,
                            **kwargs)
    return StoredRun(geom, background, boundary, run.times, run.fields, run.dfields,
                     evolve.Evolver(geom, background, source_fn=source_fn,
                                    schematic=schematic, boundary=boundary))


def _projected(history, arr, component):
    """A copy of one component of arr, ghosts filled for stencils."""
    out = evolve.project(history.geom, arr, component).copy()
    fill_ghosts_array(out, history.ghost_mode)
    return out


def live_state(history, component, t, Phi, Pi, slope):
    """The SliceState of one component of a slice that a consumer of
    ``evolve.evolve_run`` is handed, as the run's monitor builds it."""
    return SliceState(history.geom, t, _projected(history, Phi, component),
                      _projected(history, Pi, component),
                      lambda: _projected(history, slope()[1], component), history.background)


def component_series(history, component):
    """Series of one projected component of a run's stored snapshots, built
    as the run's monitor builds one slice, except that d_tt psi comes from
    the right-hand side on copies of each snapshot (``Evolver.rhs``)
    rather than from the run's slope."""
    slices = list(zip(history.times, history.fields, history.dfields))
    return ComponentSeries(
        history.geom, history.background, history.times,
        [_projected(history, F, component) for _, F, _ in slices],
        [_projected(history, P, component) for _, _, P in slices],
        [_projected(history, history.evolver.rhs(t, F.copy(), P.copy())[1], component)
         for t, F, P in slices])


def exterior_energy(series, t, region, params, weight="w"):
    """Slice energy of a stored series at a monitor time."""
    return slice_energy(series.state(series.index_of(t)), region, params, weight=weight)


def tangential_flux_integral(series, t1, t2, region, params):
    """Trapezoid in time of the what'(q)-weighted tangential slice integrals."""
    k1, k2 = series.index_range(t1, t2)
    if k2 <= k1:
        raise HistoryMissing("t2 must exceed t1 in the stored history")
    vals = [_tangential_slice(series.state(k), region, params) for k in range(k1, k2 + 1)]
    return trapz(vals, series.times[k1:k2 + 1])


def cone_flux(series, q0, t1, t2, params, n_theta=16, n_phi=32, region=None):
    """Flux of (T_tt + T_rt) wtilde(q0) through the cone q = q0 between t1
    and t2; EmptyCone where no slice meets the truncated cone."""
    if not np.isfinite(q0):
        raise EmptyCone("cone at q0 = -inf never intersects the slab")
    geom = series.geom
    k1, k2 = series.index_range(t1, t2)
    ball = region.ball(geom) if region is not None else 2.0 * geom.dx
    nodes = _sphere_nodes(n_theta, n_phi)
    samples = [(series.times[k], _cone_slice(series.state(k), q0, ball, nodes, params))
               for k in range(k1, k2 + 1)]
    if all(v is None for _, v in samples):
        raise EmptyCone(f"cone q = {q0} outside the grid for [{t1}, {t2}]")
    return _surface_integral(samples)


def ball_flux(series, region, t1, t2, params, n_theta=8, n_phi=16):
    """Outflow through the origin-ball sphere (negative orientation)."""
    k1, k2 = series.index_range(t1, t2)
    ball, nodes = region.ball(series.geom), _sphere_nodes(n_theta, n_phi)
    return _surface_integral([(series.times[k], _ball_slice(series.state(k), region, ball,
                                                            nodes, params))
                              for k in range(k1, k2 + 1)])


def conservation_budget(series, region, t1, t2, params=None):
    """Every term of the weighted budget identity over a stored series: one
    BudgetPass over the monitor slices from t1 to t2."""
    k1, k2 = series.index_range(t1, t2)
    budget = BudgetPass(region, params)
    for k in range(k1, k2 + 1):
        budget.add(series.state(k), end=k in (k1, k2))
    return budget.report(t1, t2)


def norm_equivalence_bounds(H_samples):
    """(min, max) eigenvalue over the samples of the slice quadratic form
    -(m^tt + H^tt)|dt psi|^2 + (m^ij + H^ij) <di psi, dj psi>."""
    lo, hi = np.inf, -np.inf
    for Hv in H_samples:
        A = np.zeros((4, 4))
        A[0, 0] = 1.0 - Hv[0, 0]
        A[1:, 1:] = np.eye(3) + Hv[1:, 1:]
        ev = np.linalg.eigvalsh(0.5 * (A + A.T))
        lo = min(lo, ev.min())
        hi = max(hi, ev.max())
    return float(lo), float(hi)


def grad_t(st):
    """Full-cube d_i d_t psi of a slice state, (3, ch, n, n, n)."""
    out = np.empty((3,) + st.psi_t.shape)
    for i in (1, 2, 3):
        d1_axis(st.psi_t, i, st.geom.dx, out=out[i - 1])
    return out


def hess(st):
    """Full-cube spatial Hessian of a slice state, (3, 3, ch, n, n, n);
    the mixed entries are d_j d_i psi with i < j."""
    g = st.grad()
    out = np.empty((3, 3) + st.psi.shape)
    for i in (1, 2, 3):
        d2_axis(st.psi, i, st.geom.dx, out=out[i - 1, i - 1])
    for i in (1, 2, 3):
        for j in range(i + 1, 4):
            d1_axis(g[i - 1], j, st.geom.dx, out=out[i - 1, j - 1])
            out[j - 1, i - 1] = out[i - 1, j - 1]
    return out


def ttr_coordinate(bundle):
    """The point-layout body of the coordinate display of T_tt + T_rt: flat
    square terms plus five H terms with H^{r a} = (x_i / r) H^{i a}."""
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


# --- estimates: the series-based report ----------------------------------------


def lie_series(history, I, component):
    """The Lie-applied slices of ``estimates.lie_component_series`` as a series."""
    states = lie_component_series(history, lie_field_series(history, I), component)
    return ComponentSeries(history.geom, history.background, history.times,
                           *([getattr(st, a) for st in states] for a in ("psi", "psi_t", "psi_tt")))


def estimate_pass(series, region, params, base=None):
    """An ``estimates.EstimatePass`` fed every slice of a stored series."""
    est, last = EstimatePass(region, params, base), len(series) - 1
    for k in range(len(series)):
        est.add(series.state(k), k in (0, last))
    return est


def estimate_report(history, I, component, t1, t2, region, params, base=None):
    """Every line of the weighted estimate from stored series: the report
    walks the Lie series (or, for an empty I, the base series) from t1 to
    t2, and reads the |dPhi_V|^2 line from the base series ``base``,
    built here if not given."""
    I = tuple(I)
    if base is None:
        base = component_series(history, component)
    series = lie_series(history, I, component) if I else base
    geom = history.geom
    k1, k2 = series.index_range(t1, t2)
    if k2 <= k1:
        raise HistoryMissing("t2 must exceed t1 in the stored history")
    names = ["rhs_HLL_dPsi_sq_wtilde_prime", "rhs_H_tang_dPsi_wtilde_prime",
             "rhs_dHLL_tangH_dPhi_sq_wtilde", "rhs_dH_tang_dPsi_wtilde",
             "rhs_waveop_dtPsi_wtilde"]
    vals = {n: [] for n in names}
    flux = []
    for k in range(k1, k2 + 1):
        st = series.state(k)
        stb = base.state(k) if I else st
        if k == k1:
            e_t1 = slice_energy(st, region, params, "wtilde")
        if k == k2:
            e_t2 = slice_energy(st, region, params, "w")
        flux.append(_tangential_slice(st, region, params))
        mask = st.region_mask(region)
        wt = st.weight(w_tilde, params)
        wtp = st.weight(w_tilde_prime, params)
        dpsi = np.sqrt(geom.interior(st.grad_norm_sq()))
        tang = np.sqrt(geom.interior(st.tangential_norm_sq()))
        dphi_sq = geom.interior(stb.grad_norm_sq())
        H_LL, H_frob, dH_LL, tangH, dH_frob = _H_frame_arrays(st)
        dx3 = geom.dx ** 3

        def quad(arr):
            return float(np.sum(arr[mask]) * dx3)

        vals["rhs_HLL_dPsi_sq_wtilde_prime"].append(quad(H_LL * dpsi ** 2 * wtp))
        vals["rhs_H_tang_dPsi_wtilde_prime"].append(quad(H_frob * tang * dpsi * wtp))
        vals["rhs_dHLL_tangH_dPhi_sq_wtilde"].append(quad((dH_LL + tangH) * dphi_sq * wt))
        vals["rhs_dH_tang_dPsi_wtilde"].append(quad(dH_frob * tang * dpsi * wt))
        box = np.sqrt(np.sum(geom.interior(st.wave_op()) ** 2, axis=0))
        dtpsi = np.sqrt(np.sum(geom.interior(st.psi_t) ** 2, axis=0))
        vals["rhs_waveop_dtPsi_wtilde"].append(quad(box * dtpsi * wt))
        del st, stb
    ts = series.times[k1:k2 + 1]
    terms = {"lhs_slice_t2_w": e_t2,
             "lhs_tangential_flux_what_prime": trapz(flux, ts),
             "rhs_slice_t1_wtilde": e_t1}
    for n in names:
        terms[n] = trapz(vals[n], ts)
    return EstimateReport(I_names=tuple(g.name for g in I), component=str(component),
                          t1=t1, t2=t2, terms=terms)

def gen_coeff_arrays(gen, geom, t):
    """Generator coefficients Z^mu on the full cube at time t, (4, n, n, n),
    from the exact coefficient field evaluated at every point."""
    vals = _FIELD_CACHE[gen].eval(geom.points_full(t))
    return vals[..., 0].T.reshape((4,) + (geom.n_full,) * 3)


# --- geometry: point frames and contractions ----------------------------------


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

    def by_name(self, name):
        return {"L": self.L, "Lbar": self.Lbar, "e1": self.e1, "e2": self.e2}[name]


def point_frames(x, chart="auto"):
    """One Frame per row of the spatial points x (n, 3), all from one
    frame_arrays batch; every row must have r > 0."""
    fr = frame_arrays(*np.asarray(x, dtype=float).T, chart)
    return [Frame(**{name: fr[name][:, k] for name in FULL_NAMES}) for k in range(len(fr["r"]))]


def _sphere_pair(xhat, axis):
    n = np.zeros(3)
    n[axis] = 1.0
    u = np.cross(n, xhat)
    e_phi = u / np.linalg.norm(u)
    e_theta = np.cross(e_phi, xhat)
    v1 = np.zeros(4)
    v2 = np.zeros(4)
    v1[1:] = e_theta
    v2[1:] = e_phi
    return v1, v2


def null_frame_at(p, chart="auto"):
    """The pointwise null frame, with its sphere pair normalised by
    np.linalg.norm (the frame before it became one point of frame_arrays)."""
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
    e1, e2 = _sphere_pair(xhat, {"z": 2, "x": 0}[chart])
    return Frame(L=L, Lbar=Lbar, e1=e1, e2=e2)


def lower_index(v):
    out = np.array(v, dtype=float)
    out[0] = -out[0]
    return out


def raise_index(xi):
    """Vector m^{mu nu} xi_nu: sign flip on the time slot."""
    return lower_index(xi)


def frame_component(T, v1, v2=None):
    """Full contraction of a coordinate tensor (4,)*rank + channels with
    one or two vectors; RankMismatch when the slots do not fit."""
    T = np.asarray(T, dtype=float)
    vecs = [np.asarray(v1, dtype=float)]
    if v2 is not None:
        vecs.append(np.asarray(v2, dtype=float))
    shape = T.shape
    if len(shape) < len(vecs) or shape[:len(vecs)] != (4,) * len(vecs):
        raise RankMismatch(f"tensor shape {shape} incompatible with {len(vecs)} "
                           "contraction vectors")
    out = T
    for v in vecs:
        out = np.tensordot(v, out, axes=(0, 0))
    return out


def frobenius_norm(T):
    T = np.asarray(T, dtype=float)
    return float(np.sqrt(np.sum(T * T)))


def frame_coefficients(v, frame):
    """Coefficients of v in {Lbar, L, e1, e2} of a one-point frame dict:
    c_Lbar = -m(L, v)/2, c_L = -m(Lbar, v)/2, c_eA = m(eA, v)."""
    mv = MINKOWSKI @ np.asarray(v, dtype=float)
    return {"Lbar": -0.5 * float(frame["L"] @ mv), "L": -0.5 * float(frame["Lbar"] @ mv),
            "e1": float(frame["e1"] @ mv), "e2": float(frame["e2"] @ mv)}


def sphere_projector(x):
    """Projector onto the sphere-tangent plane at the spatial point x
    (spatial 3x3 block)."""
    x = np.asarray(x, dtype=float)
    r = float(np.sqrt(np.sum(x * x)))
    if r == 0.0:
        raise PoleDegenerate("projector undefined at r = 0")
    xhat = x / r
    return np.eye(3) - np.outer(xhat, xhat)


# --- fields: derivatives, quadrature, the exact wave operator -----------------


def sample_scalar(geom, fn, t=0.0, channels=1):
    """GridField of fn(T, X1, X2, X3) (or a per-channel list) on the full cube."""
    X1, X2, X3 = geom.mesh()
    vals = fn(np.full_like(X1, t), X1, X2, X3)
    if channels == 1 and not isinstance(vals, (list, tuple)):
        vals = [vals]
    data = np.stack([np.asarray(v, dtype=float) for v in vals])
    return GridField(geom, 0, channels, data, t)


def partial_derivative(field, mu):
    """d_mu: exact for PolyField, stencil for GridField (spatial only)."""
    if isinstance(field, PolyField):
        return field.map(lambda p: p.diff(mu))
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
    """Midpoint rule of a scalar GridField over the exterior slice."""
    if not isinstance(field, GridField):
        raise TypeError("quadrature_slice expects a scalar GridField")
    assert field.rank == 0
    geom = field.geom
    vals = field.interior()
    t = field.t if t is None else t
    vals = vals.sum(axis=0) if field.channels > 1 else vals[0]
    mask = geom.region_mask(region, t)
    if not mask.any():
        raise EmptyRegion(f"no nodes with q >= {region.q0} at t = {t}")
    return float(np.sum(vals[mask]) * geom.dx ** 3)


def box(H, hess):
    """g^{ab} d_a d_b of the scalar field whose Hessian is hess (the exact
    wave operator as the commutator machinery first wrote it)."""
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


def g_box(H, phi):
    """g^{ab} d_a d_b phi as a scalar field (flat part plus H part)."""
    return wave_operator(H, phi.gradient().gradient())


# --- vecfields and estimates ---------------------------------------------------


def commutator_exact_lhs(H, phi, I):
    """L_{Z^I}(g dd phi) - g dd (L_{Z^I} phi), exact on polynomial scalars,
    with both wave operators taken directly from phi: the reference for
    ``CommutatorIdentityRHS._exact_lhs``, which reads them from the
    expansion's boxes."""
    I = tuple(I)
    return lie_multi(I, g_box(H, phi)) - g_box(H, lie_multi(I, phi))


def restricted_derivative_as_Z(i, p):
    """The pointwise rotation and boost representations of slash-d_i at p,
    zero boost coefficients dropped."""
    if i not in (1, 2, 3):
        raise ValueError("spatial index expected")
    r = p.r
    if r == 0.0:
        raise PoleDegenerate("restricted derivative undefined at r = 0")
    x = p.x
    rep_rot = []
    for j in (1, 2, 3):
        if j == i:
            continue
        coeff = x[j - 1] / r ** 2
        if i < j:
            rep_rot.append((coeff, VectorFieldId("Z", i, j)))
        else:
            rep_rot.append((-coeff, VectorFieldId("Z", j, i)))
    if p.t == 0.0:
        raise TimeZero("boost representation undefined at t = 0")
    rep_boost = []
    for j in (1, 2, 3):
        coeff = -(x[i - 1] / r) * (x[j - 1] / r) / p.t
        if j == i:
            coeff += 1.0 / p.t
        if coeff:
            rep_boost.append((coeff, VectorFieldId("Z", 0, j)))
    return rep_rot, rep_boost


def apply_representation(rep, scalar, p):
    """Sum coeff * (Z f)(p) for a pointwise representation."""
    pt = p.coords()[None, :]
    total = 0.0
    for coeff, gen in rep:
        zf = apply_to_scalar(gen, scalar)
        total += coeff * float(zf.eval_many(pt)[0])
    return total


def restricted_derivative_direct(i, scalar, p):
    """slash-d_i f = (d_i - (x_i/r) d_r) f at p, d_r f summed term by term."""
    r = p.r
    if r == 0.0:
        raise PoleDegenerate
    pt = p.coords()[None, :]
    di = float(scalar.diff(i).eval_many(pt)[0])
    dr = sum(
        (p.x[j - 1] / r) * float(scalar.diff(j).eval_many(pt)[0]) for j in (1, 2, 3)
    )
    return di - (p.x[i - 1] / r) * dr


def eA_rotation_representation(p, frame):
    """e_A as (1/r) C^{ij}_A Z_{ij} at p, zero coefficients dropped."""
    r = p.r
    if r == 0.0:
        raise PoleDegenerate
    out = []
    for which in ("e1", "e2"):
        a = frame.by_name(which)[1:]
        rep = []
        for i in (1, 2, 3):
            for j in range(i + 1, 4):
                coeff = (a[i - 1] * p.x[j - 1] - a[j - 1] * p.x[i - 1]) / r ** 2
                if coeff:
                    rep.append((coeff, VectorFieldId("Z", i, j)))
        out.append(rep)
    return out


def eA_boost_representation(p, frame):
    """e_A as (1/t) C^j_A Z_{0j} at p, zero coefficients dropped."""
    if p.t == 0.0:
        raise TimeZero
    out = []
    for which in ("e1", "e2"):
        a = frame.by_name(which)[1:]
        rep = [(a[j - 1] / p.t, VectorFieldId("Z", 0, j)) for j in (1, 2, 3) if a[j - 1]]
        out.append(rep)
    return out


def slash_block(F, pts):
    """The slash check's inline vectorised copy of the direct formula and
    of both representations: {i: (direct, v1 rotation, v2 boost)}."""
    n_pts = len(pts)
    gradF = np.stack([F.diff(mu).eval_many(pts) for mu in range(4)])
    ZF = {}
    for a in range(4):
        for b in range(a + 1, 4):
            g = VectorFieldId("Z", a, b)
            ZF[g] = apply_to_scalar(g, F).eval_many(pts)
    x = pts[:, 1:]
    r = np.linalg.norm(x, axis=1)
    t = pts[:, 0]
    dr = np.einsum("ni,in->n", x, gradF[1:]) / r
    out = {}
    for i in (1, 2, 3):
        direct = gradF[i] - (x[:, i - 1] / r) * dr
        v1 = np.zeros(n_pts)
        for j in (1, 2, 3):
            if j == i:
                continue
            coeff = x[:, j - 1] / r ** 2
            key = VectorFieldId("Z", min(i, j), max(i, j))
            v1 += coeff * ZF[key] * (1 if i < j else -1)
        v2 = np.zeros(n_pts)
        for j in (1, 2, 3):
            coeff = -(x[:, i - 1] / r) * (x[:, j - 1] / r) / t
            if j == i:
                coeff = coeff + 1.0 / t
            v2 += coeff * ZF[VectorFieldId("Z", 0, j)]
        out[i] = direct, v1, v2
    return out


def check_slash_representations(seed=23, n_pts=1000):
    """The slash_as_generators value as the check first computed it: an
    inline vectorised copy of both representations and of the direct
    formula on every point, and the pointwise API on the first 40."""
    rng = np.random.default_rng(seed)
    pts = sample_points(rng, n_pts, rmin=0.4)
    pts[:, 0][np.abs(pts[:, 0]) < 0.2] += 0.5  # keep t away from 0
    worst = float(lbar_radial_residual(pts))
    F = random_poly(rng, degree=3, nterms=5)
    for direct, v1, v2 in slash_block(F, pts).values():
        scale = np.maximum(1.0, np.abs(direct))
        worst = max(worst,
                    float(np.max(np.abs(v1 - direct) / scale)),
                    float(np.max(np.abs(v2 - direct) / scale)),
                    float(np.max(np.abs(v1 - v2) / scale)))
    for k in range(min(n_pts, 40)):
        p = Point(pts[k, 0], tuple(pts[k, 1:]))
        for i in (1, 2, 3):
            rot, boost = restricted_derivative_as_Z(i, p)
            direct = restricted_derivative_direct(i, F, p)
            v1 = apply_representation(rot, F, p)
            v2 = apply_representation(boost, F, p)
            scale = max(1.0, abs(direct))
            worst = max(worst, abs(v1 - direct) / scale, abs(v2 - direct) / scale)
    return worst


def check_eA_expansions(seed=29, n_pts=200):
    """The eA_as_generators value as the check first computed it, one
    Point and Frame per sample point."""
    rng = np.random.default_rng(seed)
    pts = sample_points(rng, n_pts, rmin=0.4)
    pts[:, 0][np.abs(pts[:, 0]) < 0.2] += 0.5
    F = random_poly(rng, degree=3, nterms=5)
    gradF = [F.diff(mu) for mu in range(4)]
    worst = 0.0
    for k, fr in enumerate(point_frames(pts[:, 1:])):
        p = Point(pts[k, 0], tuple(pts[k, 1:]))
        rot = eA_rotation_representation(p, fr)
        boost = eA_boost_representation(p, fr)
        pt = p.coords()[None, :]
        for a, name in enumerate(("e1", "e2")):
            vec = fr.by_name(name)
            direct = sum(vec[mu] * float(gradF[mu].eval_many(pt)[0]) for mu in range(4))
            v1 = apply_representation(rot[a], F, p)
            v2 = apply_representation(boost[a], F, p)
            scale = max(1.0, abs(direct))
            worst = max(worst, abs(v1 - direct) / scale, abs(v2 - direct) / scale)
    return worst


def decay_tangential(grad, pts):
    """The decay check's tangential norm: sum over {L, e1, e2} of |d_U F|^2
    at each point, from the gradient values (n, 4) + shape."""
    fr = frame_arrays(pts[:, 1], pts[:, 2], pts[:, 3])
    tang_sq = np.zeros(len(pts))
    for name in ("L", "e1", "e2"):
        dU = np.einsum("mn,nm...->n...", fr[name], grad)
        tang_sq += np.sum(dU ** 2, axis=tuple(range(1, dU.ndim)))
    return tang_sq


def gradient_frame_bound(Psi, U, V, pts):
    """Measured constant in the frame-gradient inequality

        |d Psi_{UV}| <= C [ sum_{|I|<=1} (1+t+|q|)^-1 |L_{Z^I} Psi|
                          + sum_{U' in full, V' in tang} sum_{|I|<=1}
                            (1+|q|)^-1 |(L_{Z^I} Psi)_{U'V'}| ],

    the left side from the projected scalar differentiated exactly, the
    right side from frame components of the Lie-derived tensor; the sup of
    lhs/rhs over the samples.
    """
    from framewave.estimates import _FRAME_SYM
    from framewave.geometry import TANGENTIAL_NAMES
    from framewave.poly import RadPoly
    from framewave.vecfields import _norm_at

    assert Psi.rank == 2
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    Us, Vs = _FRAME_SYM[U], _FRAME_SYM[V]
    comps = np.empty((Psi.channels,), dtype=object)
    for c in range(Psi.channels):
        acc = RadPoly()
        for mu in range(4):
            for nu in range(4):
                acc = acc + Us[mu] * Vs[nu] * Psi.comps[mu, nu, c]
        comps[c] = acc
    lhs = _norm_at(PolyField(0, Psi.channels, comps).gradient().eval(pts))

    fr = frame_arrays(pts[:, 1], pts[:, 2], pts[:, 3], chart="z")
    vecs = {n: fr[n].T for n in FULL_NAMES}
    q = fr["r"] - pts[:, 0]
    wt = 1.0 / (1.0 + pts[:, 0] + np.abs(q))
    wq = 1.0 / (1.0 + np.abs(q))
    rhs = np.zeros(len(pts))
    for I in [()] + [(g,) for g in GENERATORS]:
        vals = lie_multi(I, Psi).eval(pts)  # (n,4,4,ch)
        rhs += wt * np.sqrt(np.sum(vals ** 2, axis=(1, 2, 3)))
        for Un in FULL_NAMES:
            for Vn in TANGENTIAL_NAMES:
                cvals = np.einsum("nm,nk,nmkc->nc", vecs[Un], vecs[Vn], vals)
                rhs += wq * np.sqrt(np.sum(cvals ** 2, axis=1))
    ok = rhs > 1e-14
    return float(np.max(lhs[ok] / rhs[ok])) if ok.any() else 0.0


# --- evolve: the manufactured source from the direction -------------------------


def manufactured_source_from_direction(target_comps, background, geom):
    """evolve.manufactured_source as it read the H terms off the direction
    matrix M before the background listed them (``hessian_terms``)."""
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


# --- evolve and cli: the stored-history run and estimate ----------------------


def history_run_experiment(cfg, out_dir, tag="", keep=None):
    """The experiment run that stores every snapshot and then walks each
    component series slice by slice; returns (history, summary, the
    series of the component ``keep`` or None)."""
    geom, bg, params, region = evolve.setup_experiment(cfg)
    Phi0, Pi0 = evolve._initial_data(cfg, geom)
    spec = None
    if cfg["source"]["terms"]:
        spec = evolve.SourceSpec(terms=tuple(cfg["source"]["terms"]),
                                 bigO_degree=cfg["source"]["bigO_degree"],
                                 slots=tuple(cfg["source"]["slots"]))
    log_path = os.path.join(out_dir, f"run_log{tag}.jsonl")
    events = []
    try:
        hist = stored_run(
            geom, bg, Phi0, Pi0, cfg["times"]["t1"], cfg["times"]["t2"],
            schematic=spec, cfl=cfg["times"]["cfl"], dt=cfg["times"]["dt"],
            boundary=cfg["boundary"], n_monitors=cfg["monitors"],
            log=events.append)
    finally:
        evolve._write_events(log_path, events)

    rows, kept = [], None
    summary = {"components": {}, "seed": cfg["seed"]}
    for comp in cfg["components"]:
        series = component_series(hist, comp)
        kept = series if comp == keep and kept is None else kept
        energies = []
        for k, t in enumerate(series.times):
            st = series.state(k)
            e_w = evolve.slice_energy(st, region, params, "w")
            e_wt = evolve.slice_energy(st, region, params, "wtilde")
            if not (math.isfinite(e_w) and math.isfinite(e_wt)):
                events.append({"event": "non_finite", "t": float(t),
                               "quantity": f"{comp}:slice_energy"})
                evolve._write_events(log_path, events)
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
        final = GridField(geom, Phi0.ndim - 4, Phi0.shape[-4], hist.fields[-1],
                          hist.times[-1], ghost_valid=False)
        save_snapshot(final, os.path.join(out_dir, f"final_state{tag}.bin"))
    return hist, summary, kept


def mode_estimate(cfg, out_dir):
    """``cli.mode_estimate`` over a stored history: one base series per
    component, the first kept by the run, and one report per multi-index
    and component."""
    _, _, params, region = evolve.setup_experiment(cfg)
    comps = cfg["components"]
    hist, _, kept = history_run_experiment(cfg, out_dir, keep=comps[0] if comps else None)
    bases = {comps[0]: kept} if comps else {}
    reports = []
    for text in cfg["multi_indices"]:
        I = parse_multi_index(text)
        for comp in comps:
            if comp not in bases:
                bases[comp] = component_series(hist, comp)
            rep = estimate_report(hist, I, comp, cfg["times"]["t1"], cfg["times"]["t2"],
                                  region, params, base=bases[comp])
            reports.append(rep.to_json())
    write_json(os.path.join(out_dir, "estimate.json"), {"reports": reports, "seed": cfg["seed"]})
    return 0


def random_poly_int_keys(rng, degree=2, nterms=4, time_dependent=True):
    """``poly.random_poly`` as it was, building each exponent key with one
    ``int()`` per drawn element."""
    c = {}
    for _ in range(nterms):
        while True:
            k = tuple(int(e) for e in rng.integers(0, degree + 1, size=4))
            if sum(k) <= degree and (time_dependent or k[0] == 0):
                break
        v = int(rng.integers(-3, 4))
        if v:
            c[k] = c.get(k, 0) + v
    return Poly({k: v for k, v in c.items() if v})
