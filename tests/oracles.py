"""Reference implementations that the tests compare framewave against.

Two kinds live here.  Loops and helpers that framewave itself does not
run: the stored-series budget and flux loops (the monitors feed
``energy.BudgetPass`` slice by slice instead), full-cube derivatives of a
slice state, point-frame contractions, grid quadrature of a GridField and
the frame-gradient bound.  And the earlier bodies of code that framewave
now computes through one shared kernel (the coordinate display of
T_tt + T_rt, the pointwise null frame, the exact wave operator and the
decay check's tangential loop), kept as they were so that tests can
require the kernels to agree with them bit for bit.
"""

from __future__ import annotations

import numpy as np

from framewave.energy import (BudgetPass, _ball_slice, _cone_slice, _sphere_nodes,
                              _surface_integral, _tangential_slice, slice_energy, trapz)
from framewave.errors import FramewaveError, HistoryMissing, PoleDegenerate
from framewave.fields import GridField, PolyField, d1_axis, d2_axis
from framewave.geometry import MINKOWSKI, MINKOWSKI_INV, POLAR_CAP, Frame, frame_arrays
from framewave.vecfields import GENERATORS, lie_multi


class RankMismatch(FramewaveError):
    """Tensor rank does not match the number of contraction vectors."""


class GhostInvalid(FramewaveError):
    """Grid derivative requested while ghost layers are stale."""


class EmptyRegion(FramewaveError):
    """Integration region contains no grid nodes."""


class EmptyCone(FramewaveError):
    """Cone does not intersect the grid for the requested time range."""


# --- energy: the stored-series loops ------------------------------------------


def exterior_energy(series, t, region, params, weight="w"):
    """Slice energy of a stored series at a monitor time."""
    return slice_energy(series.state_at(t), region, params, weight=weight)


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


def conservation_budget(series, region, t1, t2, params=None,
                        n_theta=16, n_phi=32, ball_quadrature=True):
    """Every term of the weighted budget identity over a stored series: one
    BudgetPass over the monitor slices from t1 to t2."""
    k1, k2 = series.index_range(t1, t2)
    budget = BudgetPass(region, params, n_theta, n_phi, ball_quadrature)
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


# --- geometry: point frames and contractions ----------------------------------


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
    """Coefficients of v in {Lbar, L, e1, e2}: c_Lbar = -m(L, v)/2,
    c_L = -m(Lbar, v)/2, c_eA = m(eA, v)."""
    mv = MINKOWSKI @ np.asarray(v, dtype=float)
    return {"Lbar": -0.5 * float(frame.L @ mv), "L": -0.5 * float(frame.Lbar @ mv),
            "e1": float(frame.e1 @ mv), "e2": float(frame.e2 @ mv)}


def sphere_projector(p):
    """Projector onto the sphere-tangent plane at p (spatial 3x3 block)."""
    r = p.r
    if r == 0.0:
        raise PoleDegenerate("projector undefined at r = 0")
    xhat = np.asarray(p.x) / r
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


# --- vecfields and estimates ---------------------------------------------------


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
    from framewave.geometry import FULL_NAMES, TANGENTIAL_NAMES
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
