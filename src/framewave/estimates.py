"""Commutator machinery and the term-by-term energy-estimate evaluator.

The central exact statement: for iterated Lie derivatives along the 11
flat-spacetime generators applied to a scalar component phi,

    L_{Z^I}(g^{lm} d_l d_m phi) - g^{lm} d_l d_m (L_{Z^I} phi)
      = sum_{I1+I2=I, I2 != I} chat(I1) m^{lm} d_l d_m (L_{Z^{I2}} phi)
      + sum_{I2+I4+I5+I6=I, I2 != I} chat(I5) chat(I6) * [ null-frame
        contraction of (L_{Z^{I4}} H_low) against the Hessian of
        L_{Z^{I2}} phi ],

with chat(J) the proportionality factor of L_{Z^J} m^{-1} against m^{-1}:
the product of the metric factors c(Z) that each generator computes from
its Jacobian (0 for the Killing fields, -2 for S), never hard-coded.
Both sides are assembled from exact polynomial calculus; only the frame
contraction itself happens in floating point at the sample points, so
the residual sits at roundoff.

The decoupled bound regroups the same data into three term families:
lower-order wave terms, (1+t+|q|)^-1-weighted full components, and
(1+|q|)^-1-weighted terms that reference only H_LL and the components of
one frame set of phi (the tangential L, e1, e2, or all four for Lbar).
Sums over abstract index sizes are realized over the subsequence lattice
of I (single-generator extensions included, which is what the (|K|-1)_+
bookkeeping absorbs); both that convention and the inner |M| <= |K|+1
convention are evaluated and reported.  One CommutatorStudy computes both
the expansion and the bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .energy import SliceState, _tangential_slice, slice_energy, trapz
from .errors import HistoryMissing, PoleDegenerate, TimeZero
from .evolve import project
from .fields import (PolyField, d1_axis, fill_ghosts_array, quadrature_masked,
                     tangential_norm_sq, wave_operator)
from .geometry import FULL_NAMES, MINKOWSKI_INV, TANGENTIAL_NAMES, frame_arrays
from .poly import P_ONE, P_ZERO, R_INV, RHO12_INV, Poly
from .vecfields import (GENERATORS, _norm_at, lie_lattice, lie_multi, parse_generator,
                        splittings, subsequences, ksize_plus)
from .weights import w_tilde, w_tilde_prime

_MSIGN = np.array([-1.0, 1.0, 1.0, 1.0])

# z-chart frame with exactly differentiable coefficients:
#   L    = (1,  x1/r,        x2/r,        x3/r)
#   Lbar = (1, -x1/r,       -x2/r,       -x3/r)
#   e1   = (0,  x1 x3/(r rho), x2 x3/(r rho), -(x1^2+x2^2)/(r rho))
#   e2   = (0, -x2/rho,      x1/rho,      0)          rho = sqrt(x1^2+x2^2)


def frame_symbolic(name):
    """Frame vector as 4 exact components (x3-axis chart), the radii entering
    through R_INV and RHO12_INV."""
    x1, x2, x3 = Poly.var(1), Poly.var(2), Poly.var(3)
    if name == "L":
        return [P_ONE, x1 * R_INV, x2 * R_INV, x3 * R_INV]
    if name == "Lbar":
        return [P_ONE, -x1 * R_INV, -x2 * R_INV, -x3 * R_INV]
    if name == "e1":
        rr = R_INV * RHO12_INV
        return [P_ZERO, x1 * x3 * rr, x2 * x3 * rr, -(x1 * x1 + x2 * x2) * rr]
    if name == "e2":
        return [P_ZERO, -x2 * RHO12_INV, x1 * RHO12_INV, P_ZERO]
    raise KeyError(name)


_FRAME_SYM = {n: frame_symbolic(n) for n in ("L", "Lbar", "e1", "e2")}


def project_component(phi: PolyField, name):
    """phi_V = V^mu phi_mu as an exact scalar field (rank-1 input); its
    components carry the frame's inverse radii."""
    assert phi.rank == 1
    V = _FRAME_SYM[name]
    comps = np.empty((phi.channels,), dtype=object)
    for c in range(phi.channels):
        acc = P_ZERO
        for mu in range(4):
            acc = acc + V[mu] * phi.comps[mu, c]
        comps[c] = acc
    return PolyField(0, phi.channels, comps)


def c_hat(I):
    """The factor with L_{Z^I} m^{-1} = c_hat(I) m^{-1}: since
    L_Z (c m^{-1}) = c L_Z m^{-1}, the product of the generators' metric
    factors, 1 for the empty I."""
    return math.prod(g.c for g in I)


class CommutatorStudy:
    """The commutator expansion and the decoupled bound of one (H, phi, I)
    on one point batch pts (n, 4).

    The gradients of L_{Z^s} phi (key None) and of each projected
    L_{Z^s} phi_c (key c) grow from one Lie lattice per field, which keeps
    only the entries a longer sequence can extend; L_{Z^s} H_low and its
    H_LL scalar are built once too, and every frame component of the
    study shares them, while the boxes are kept for one component at a
    time.  Each factor's norm on pts is evaluated once.  The commutator
    mode keeps one study per multi-index.
    """

    def __init__(self, H, phi, I, pts):
        self.H, self.phi, self.I = H, phi, tuple(I)
        self.pts = np.atleast_2d(np.asarray(pts, dtype=float))
        self.subs = subsequences(self.I)
        k_exts = set(self.subs)
        for s in self.subs:
            if len(s) < len(self.I):
                k_exts.update(s + (g,) for g in GENERATORS)
        self.K_set = sorted(k_exts, key=lambda s: (len(s), tuple(g.name for g in s)))
        self._lattices = {"H": {(): H.lower_all()}} if H is not None else {}
        self._built, self._norms = {}, {}
        # the expansion's terms chat(I1) m dd L_{Z^I2} phi and
        # chat(I5) chat(I6) (L_{Z^I4} H_low) . dd L_{Z^I2} phi, with
        # chat(I5) chat(I6) = chat(I5 I6), the nonzero ones only
        self._flat_terms = [(c, I2) for I1, I2 in splittings(self.I, 2)
                            if I2 != self.I and (c := c_hat(I1))]
        self._h_terms = [] if H is None else [
            (c, I2, I4) for I2, I4, I5, I6 in splittings(self.I, 4)
            if I2 != self.I and (c := c_hat(I5 + I6))]

    def _grads(self, key, seqs):
        """Build d L_{Z^s} phi (key None) or d L_{Z^s} phi_key for s in seqs."""
        todo = [s for s in seqs if ("grad", key, s) not in self._built]
        if todo:
            if key not in self._lattices:
                f = self.phi if key is None else project_component(self.phi, key)
                self._lattices[key] = {(): f}
            lattice = lie_lattice(todo, self._lattices[key])
            for s in todo:
                entry = lattice[s] if len(s) < len(self.I) else lattice.pop(s)
                self._built["grad", key, s] = entry.gradient()

    def _factor(self, what, key, s, hess=None):
        """L_{Z^s} H_low ("H") or its H_LL scalar ("LL"), or the gradient
        ("grad") or box ("box", from hess if given) of L_{Z^s} phi_key."""
        if what == "H":
            return lie_lattice((s,), self._lattices["H"])[s]
        if what == "grad":
            self._grads(key, (s,))
        if (what, key, s) not in self._built:
            if what == "LL":
                HJ, Lsym, acc = self._factor("H", key, s), _FRAME_SYM["L"], P_ZERO
                for mu in range(4):
                    for nu in range(4):
                        acc = acc + Lsym[mu] * Lsym[nu] * HJ.comps[mu, nu, 0]
                val = PolyField.scalar(acc)
            else:  # keep one component's boxes
                self._built = {f: v for f, v in self._built.items()
                               if f[0] != "box" or f[1] == key}
                if hess is None:
                    hess = self._factor("grad", key, s).gradient()
                val = wave_operator(self.H, hess)
            self._built[what, key, s] = val
        return self._built[what, key, s]

    def _norm(self, f):
        """The pointwise norm of factor f on pts (|H_LL| for "LL"),
        evaluated once."""
        if f not in self._norms:
            vals = self._factor(*f).eval(self.pts)
            self._norms[f] = np.abs(vals[:, 0]) if f[0] == "LL" else _norm_at(vals)
        return self._norms[f]

    def expansion(self, V=None):
        """(lhs, signed sum, summed term magnitudes) of the commutator at
        pts, each (n, channels), for phi_V, the component V of phi, or phi
        itself for V None.

        The lhs L_{Z^I}(g dd phi_V) - g dd (L_{Z^I} phi_V) is exact on
        polynomial scalars, from the boxes of the expansion; the frame
        contraction of its terms happens on the batch, from one evaluation
        of every Hessian and H factor.  The Hessians are dropped on return;
        the boxes stay for the bound of V.
        """
        pts = self.pts
        self._grads(V, self.subs)
        hess = {s: self._factor("grad", V, s).gradient() for s in self.subs}
        hlow = {s: self._factor("H", None, s) for s in self.subs} if self.H is not None else {}
        box = {s: self._factor("box", V, s, h) for s, h in hess.items()}
        lhs = (lie_multi(self.I, box[()]) - box[self.I]).eval(pts)
        n = pts.shape[0]
        fr = frame_arrays(pts[:, 1], pts[:, 2], pts[:, 3])
        L = fr["L"].T
        Lb = fr["Lbar"].T
        eA = [fr["e1"].T, fr["e2"].T]
        hess_ev = {s: h.eval(pts) for s, h in hess.items()}  # (n,4,4,ch)
        hlow_ev = {s: h.eval(pts)[..., 0] for s, h in hlow.items()}  # (n,4,4)
        signed = np.zeros((n, self.phi.channels))
        magnitude = np.zeros((n, self.phi.channels))
        for c, I2 in self._flat_terms:
            term = float(c) * np.einsum("ab,nabc->nc", MINKOWSKI_INV, hess_ev[I2])
            signed += term
            magnitude += np.abs(term)
        for c56, I2, I4 in self._h_terms:
            Hl = hlow_ev[I4]
            Hs = hess_ev[I2]
            H_LL = np.einsum("nm,nk,nmk->n", L, L, Hl)
            H_LLb = np.einsum("nm,nk,nmk->n", L, Lb, Hl)
            hLbLb = np.einsum("nm,nk,nmkc->nc", Lb, Lb, Hs)
            hLbL = np.einsum("nm,nk,nmkc->nc", Lb, L, Hs)
            parts = [0.25 * H_LL[:, None] * hLbLb, 0.25 * H_LLb[:, None] * hLbL]
            for a in range(2):
                H_Le = np.einsum("nm,nk,nmk->n", L, eA[a], Hl)
                hLbe = np.einsum("nm,nk,nmkc->nc", Lb, eA[a], Hs)
                parts.append(-0.5 * H_Le[:, None] * hLbe)
            H_Lb_up = np.einsum("nm,nmb->nb", Lb, Hl) * _MSIGN[None, :]
            hL = np.einsum("nm,nmbc->nbc", L, Hs)
            parts.append(-0.5 * np.einsum("nb,nbc->nc", H_Lb_up, hL))
            for a in range(2):
                H_e_up = np.einsum("nm,nmb->nb", eA[a], Hl) * _MSIGN[None, :]
                he = np.einsum("nm,nmbc->nbc", eA[a], Hs)
                parts.append(np.einsum("nb,nbc->nc", H_e_up, he))
            signed += float(c56) * sum(parts)
            magnitude += abs(float(c56)) * sum(np.abs(p) for p in parts)
        return lhs, signed, magnitude

    def bound(self, V):
        """{convention: {family: (n,) values}} of the decoupled bound of
        component V at pts, for the "collapsed" and "nested" conventions.

        K ranges over the subsequences of I and their single-generator
        extensions, J over the subsequences.  "collapsed" pairs (J, K)
        with |J| + (|K|-1)_+ <= |I|; "nested" sums |M| <= |K|+1 inside
        each (J, K) with |J|+|K| <= |I|, |K| < |I|.  Both read one set of
        factor norms.  The flat family reads V's own boxes
        g dd L_{Z^K} phi_V.  The dangerous (1+|q|)^-1 family reads only
        H_LL and the gradients of the components of V's frame set: all
        four for Lbar, the tangential L, e1, e2 otherwise.
        """
        pts = self.pts
        names = FULL_NAMES if V == "Lbar" else TANGENTIAL_NAMES
        top = len(self.I)
        flat = [("box", V, K) for K in self.subs if len(K) < top]
        factors = list(flat)
        pairs = {"collapsed": [], "nested": []}
        if self.H is not None:
            for c in (None,) + names:
                self._grads(c, self.K_set)
                factors += [("grad", c, K) for K in self.K_set]
            factors += [(w, None, J) for J in self.subs for w in ("H", "LL")]
            pairs["collapsed"] = [(J, K) for J in self.subs for K in self.K_set
                                  if len(J) + ksize_plus(len(K)) <= top]
            pairs["nested"] = [(J, M) for J in self.subs for K in self.subs
                               if len(J) + len(K) <= top and len(K) < top
                               for M in [K] + [K + (g,) for g in GENERATORS]]
        for f in factors:
            self._factor(*f)
        q = np.sqrt(np.sum(pts[:, 1:] ** 2, axis=1)) - pts[:, 0]
        wt, wq = 1.0 / (1.0 + pts[:, 0] + np.abs(q)), 1.0 / (1.0 + np.abs(q))
        norms = {f: self._norm(f) for f in factors}
        flat_fam = np.zeros(len(pts))
        for f in flat:
            flat_fam += norms[f]
        out = {}
        for convention, conv_pairs in pairs.items():
            t_fam = np.zeros(len(pts))
            q_fam = np.zeros(len(pts))
            for J, K in conv_pairs:
                t_fam += norms["H", None, J] * norms["grad", None, K]
                comp_sum = np.zeros(len(pts))
                for name in names:
                    comp_sum += norms["grad", name, K]
                q_fam += norms["LL", None, J] * comp_sum
            out[convention] = {"flat": flat_fam, "t_weighted": wt * t_fam,
                               "q_weighted": wq * q_fam}
        return out


def _relative_residual(lhs, rhs, magnitude):
    """max |lhs - rhs| over the larger of the two sides and the summed
    magnitude of the expansion's terms."""
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)),
                np.max(magnitude, initial=0.0), 1e-30)
    return float(np.max(np.abs(lhs - rhs)) / scale)


def identity_residual(H, phi, I, pts):
    """Relative residual |LHS - RHS| of the commutator expansion of phi
    over a point batch.

    The scale is the larger of the two sides and the summed magnitude of
    the expansion's individual terms, so exact cancellations are certified
    relative to the size of what cancels rather than to zero.
    """
    return _relative_residual(*CommutatorStudy(H, phi, I, pts).expansion())


def commutator_report(study, V):
    """The commutator.json report of component V of a study: the exact
    lhs, its identity residual and the measured bound constants at the
    study's points."""
    lhs, rhs, magnitude = study.expansion(V)
    lhs_vals = np.sqrt(np.sum(lhs ** 2, axis=1))
    bounds = {convention: fams["flat"] + fams["t_weighted"] + fams["q_weighted"]
              for convention, fams in study.bound(V).items()}

    def implied(bv):
        ok = bv > 1e-12 * max(1.0, float(np.max(bv, initial=0.0)))
        return float(np.max(lhs_vals[ok] / bv[ok])) if ok.any() else 0.0

    return {
        "multi_index": [g.name for g in study.I],
        "component": V,
        "lhs_sup": float(np.max(lhs_vals)),
        "lhs_l2": float(np.sqrt(np.mean(lhs_vals ** 2))),
        "identity_residual": _relative_residual(lhs, rhs, magnitude),
        "bound_value_sup": float(np.max(bounds["collapsed"])),
        "implied_constant": implied(bounds["collapsed"]),
        "implied_constant_nested": implied(bounds["nested"]),
        "n_points": len(study.pts),
    }


# ---------------------------------------------------------------------------
# The e_A expansion identities


def lbar_radial_residual(pts):
    """Exact evaluation of d_{Lbar}(x^j / r), which vanishes identically."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    worst = 0.0
    Lb = _FRAME_SYM["Lbar"]
    for j in (1, 2, 3):
        f = Poly.var(j) * R_INV
        acc = P_ZERO
        for mu in range(4):
            acc = acc + Lb[mu] * f.diff(mu)
        worst = max(worst, float(np.max(np.abs(acc.eval_many(pts)))))
    return worst


def _sphere_vectors(fr):
    """The spatial parts of e1, e2 from a frame_arrays batch; raises
    PoleDegenerate if any point has r = 0, where the frame is undefined."""
    if np.any(fr["r"] == 0.0):
        raise PoleDegenerate("e_A undefined at r = 0")
    return [fr[name][1:] for name in ("e1", "e2")]


def eA_rotation_representation(pts, fr):
    """e_A as (1/r) C^{ij}_A Z_{ij} on a point batch pts (n, 4) with its
    frame_arrays dict fr: for e1 and e2 a list of (coefficient (n,),
    generator) pairs, every coefficient kept; raises PoleDegenerate if any
    point has r = 0."""
    x = pts[:, 1:]
    r = fr["r"]
    return [[((a[i - 1] * x[:, j - 1] - a[j - 1] * x[:, i - 1]) / r ** 2,
              parse_generator(f"Z{i}{j}")) for i in (1, 2, 3) for j in range(i + 1, 4)]
            for a in _sphere_vectors(fr)]


def eA_boost_representation(pts, fr):
    """e_A as (1/t) C^j_A Z_{0j} on a point batch pts (n, 4) with its
    frame_arrays dict fr: for e1 and e2 a list of (coefficient (n,),
    generator) pairs; raises PoleDegenerate if any point has r = 0 and
    TimeZero if any has t = 0."""
    a_pair = _sphere_vectors(fr)
    t = pts[:, 0]
    if np.any(t == 0.0):
        raise TimeZero("boost representation undefined at t = 0")
    return [[(a[j - 1] / t, parse_generator(f"Z0{j}")) for j in (1, 2, 3)] for a in a_pair]


# ---------------------------------------------------------------------------
# Grid-side Lie series and the full estimate report


def series_time_derivative(arrays, dt):
    """4th-order time differencing of a uniformly spaced snapshot list."""
    n = len(arrays)
    if n < 5:
        raise HistoryMissing("need at least 5 stored snapshots for time differencing")
    out = []
    for k in range(n):
        if 2 <= k <= n - 3:
            d = (arrays[k - 2] - 8.0 * arrays[k - 1]
                 + 8.0 * arrays[k + 1] - arrays[k + 2]) / (12.0 * dt)
        elif k == 0:
            d = (-25.0 * arrays[0] + 48.0 * arrays[1] - 36.0 * arrays[2]
                 + 16.0 * arrays[3] - 3.0 * arrays[4]) / (12.0 * dt)
        elif k == 1:
            d = (-3.0 * arrays[0] - 10.0 * arrays[1] + 18.0 * arrays[2]
                 - 6.0 * arrays[3] + arrays[4]) / (12.0 * dt)
        elif k == n - 2:
            d = -(-3.0 * arrays[n - 1] - 10.0 * arrays[n - 2] + 18.0 * arrays[n - 3]
                  - 6.0 * arrays[n - 4] + arrays[n - 5]) / (12.0 * dt)
        else:
            d = -(-25.0 * arrays[n - 1] + 48.0 * arrays[n - 2] - 36.0 * arrays[n - 3]
                  + 16.0 * arrays[n - 4] - 3.0 * arrays[n - 5]) / (12.0 * dt)
        out.append(d)
    return out


def _apply_lie_grid(gen, data, data_t, geom, t):
    """One Lie step on a grid tensor snapshot (covariant slots).

    data: (4,)*rank + (ch, n, n, n); data_t its exact-or-differenced time
    derivative.  Transport sums one product per nonzero component
    Z^lam = coeff * x^mu of the generator, in ascending lam: lam = 0
    reads data_t and each spatial lam takes one stencil, so a translation
    takes one stencil (P_t none), a rotation two, a boost one and S three.
    The slot corrections read the generator's covariant slot terms; ghosts
    are refilled.
    """
    x = (t,) + tuple(geom.mesh())
    out = None
    for lam, mu, coeff in gen.components:
        d = data_t if lam == 0 else d1_axis(data, lam, geom.dx)
        term = (coeff if mu is None else coeff * x[mu]) * d
        out = term if out is None else out + term
    for slot in range(data.ndim - 4):
        for mu, terms in enumerate(gen.slot_terms["d"]):
            for lam, coeff in terms:
                src = [slice(None)] * data.ndim
                dst = [slice(None)] * data.ndim
                src[slot] = lam
                dst[slot] = mu
                out[tuple(dst)] += coeff * data[tuple(src)]
    fill_ghosts_array(out, "extrapolate")
    return out


def lie_field_series(history, I):
    """L_{Z^I} Phi, the full tensor, at every stored snapshot of a run, for
    a non-empty I.

    Each Lie level transports with exact affine coefficients, using the
    exact time derivative at the first level and 4th-order series
    differencing below; the last level's time derivative is never read,
    so it is not formed.  Nothing here depends on a component: the
    components of one multi-index share the series
    (:func:`lie_component_series`).
    """
    geom = history.geom
    times = list(history.times)
    if len(times) < 5:
        raise HistoryMissing("Lie-applied series needs >= 5 stored snapshots")
    dt = times[1] - times[0]
    level = [F.copy() for F in history.fields]
    for F in level:
        fill_ghosts_array(F, history.ghost_mode)
    level_t = history.dfields
    for n, gen in enumerate(reversed(tuple(I))):
        if n:
            level_t = series_time_derivative(level, dt)
            for arr in level_t:
                fill_ghosts_array(arr, "extrapolate")
        level = [_apply_lie_grid(gen, level[k], level_t[k], geom, times[k])
                 for k in range(len(times))]
    return level


def lie_component_series(history, lie, component):
    """Slice states of one component of ``lie``, a Lie-applied series of
    the run's stored snapshots (:func:`lie_field_series`), one per
    snapshot, all built before it returns.

    d_t and d_tt of the projection are differenced in time.  (The
    I = '' lines read the run's live slices instead, see EstimatePass.)
    """
    geom, times = history.geom, list(history.times)
    dt = times[1] - times[0]
    psi = [project(geom, arr, component) for arr in lie]
    psi_t = series_time_derivative(psi, dt)
    psi_tt = series_time_derivative(psi_t, dt)
    for arr in psi_t:
        fill_ghosts_array(arr, "extrapolate")
    for arr in psi_tt:
        fill_ghosts_array(arr, "extrapolate")
    return [SliceState(geom, t, p, p_t, p_tt, history.background)
            for t, p, p_t, p_tt in zip(times, psi, psi_t, psi_tt)]


ESTIMATE_TERM_LABELS = {
    "lhs_slice_t2_w": "slice energy |dPsi|^2 w(q) at t2",
    "lhs_tangential_flux_what_prime": "tangential flux integral with what'(q)",
    "rhs_slice_t1_wtilde": "initial slice energy |dPsi|^2 wtilde(q)",
    "rhs_HLL_dPsi_sq_wtilde_prime": "|H_LL| |dPsi|^2 wtilde'(q)",
    "rhs_H_tang_dPsi_wtilde_prime": "|H| |tang Psi| |dPsi| wtilde'(q)",
    "rhs_dHLL_tangH_dPhi_sq_wtilde": "(|dH_LL| + |tang H|) |dPhi_V|^2 wtilde(q)",
    "rhs_dH_tang_dPsi_wtilde": "|dH| |tang Psi| |dPsi| wtilde(q)",
    "rhs_waveop_dtPsi_wtilde": "|g dd Psi| |d_t Psi| wtilde(q)",
}
_RHS_LINES = tuple(ESTIMATE_TERM_LABELS)[3:]    # the time-integrated right-side lines
_BASE_LINE = "rhs_dHLL_tangH_dPhi_sq_wtilde"    # reads the I = '' field


@dataclass
class EstimateReport:
    """One evaluation of the weighted estimate, one number per display line."""

    I_names: tuple
    component: str
    t1: float
    t2: float
    terms: dict = dc_field(default_factory=dict)

    @property
    def lhs_total(self):
        return self.terms["lhs_slice_t2_w"] + self.terms["lhs_tangential_flux_what_prime"]

    @property
    def rhs_total(self):
        return sum(v for k, v in self.terms.items() if k.startswith("rhs_"))

    @property
    def implied_constant(self):
        rhs = self.rhs_total
        return self.lhs_total / rhs if rhs > 0 else float("inf")

    def to_json(self):
        """The estimate.json entry; an implied constant with a zero right
        side is written as null, which strict JSON can hold and inf not."""
        constant = self.implied_constant
        return {
            "multi_index": list(self.I_names),
            "component": self.component,
            "t1": self.t1,
            "t2": self.t2,
            "implied_constant": constant if np.isfinite(constant) else None,
            "lhs_total": self.lhs_total,
            "rhs_total": self.rhs_total,
            "terms": {k: {"value": v, "label": ESTIMATE_TERM_LABELS[k]}
                      for k, v in self.terms.items()},
        }


def _H_frame_arrays(state: SliceState):
    """(|H_LL|, |H|, |dH_LL|, |tang H|, |dH|) interior arrays, or zeros.

    With H = chi M these are |chi| |L.M_low.L|, |chi| |M|, |dchi| |L.M_low.L|,
    sqrt(sum_U (U.dchi)^2) |M| over U in {L, e1, e2}, and |dchi| |M|,
    evaluated on the support box; every other cell is 0.
    """
    geom = state.geom
    sup = state.support()
    if sup is None:
        z = np.zeros((geom.N, geom.N, geom.N))
        return z, z, z, z, z
    box, chi, dchi = sup
    M = state.bg.direction
    fr = [geom.frame(name)[(slice(None),) + box] for name in TANGENTIAL_NAMES]
    L = fr[0]
    M_LL = np.abs(np.einsum("m...,k...,mk->...", L, L, M * np.outer(_MSIGN, _MSIGN)))
    M_frob = np.sqrt(np.sum(M * M))
    dchi_norm = np.sqrt(np.einsum("a...,a...->...", dchi, dchi))
    tang_sq = tangential_norm_sq(dchi[:, None], fr)
    out = []
    for val in (np.abs(chi) * M_LL, np.abs(chi) * M_frob, dchi_norm * M_LL,
                np.sqrt(tang_sq) * M_frob, dchi_norm * M_frob):
        arr = np.zeros((geom.n_full,) * 3)
        arr[box] = val
        out.append(geom.interior(arr))
    return tuple(out)


class EstimatePass:
    """The lines of the weighted estimate for one field, one slice at a time.

    ``add`` takes the slice states from t1 to t2 in time order and reads
    every line of a slice from its state, keeping only the numbers;
    ``end`` marks the slices at t1 and t2, whose slice energies enter the
    left and right sides.  The undifferentiated |dPhi_V|^2 line reads
    the I = '' field of the component and the slice only, so a pass of a
    Lie-applied field takes it from ``base``, the component's I = '' pass
    over the same slices.
    """

    def __init__(self, region, params, base=None):
        self.region = region
        self.params = params
        self._ts, self._ends, self._flux = [], [], []
        self._vals = {n: [] for n in _RHS_LINES}
        self._reads_base = base is None
        if base is not None:
            self._vals[_BASE_LINE] = base._vals[_BASE_LINE]

    def add(self, st, end=False):
        region, params, geom = self.region, self.params, st.geom
        if end:   # wtilde at t1, w at t2
            self._ends.append(slice_energy(st, region, params, "w" if self._ts else "wtilde"))
        self._ts.append(st.t)
        self._flux.append(_tangential_slice(st, region, params))
        mask = st.region_mask(region)
        wt = st.weight(w_tilde, params)
        wtp = st.weight(w_tilde_prime, params)
        dpsi_sq = geom.interior(st.grad_norm_sq())
        dpsi = np.sqrt(dpsi_sq)
        tang = np.sqrt(geom.interior(st.tangential_norm_sq()))
        H_LL, H_frob, dH_LL, tangH, dH_frob = _H_frame_arrays(st)
        quad = functools.partial(quadrature_masked, geom, mask=mask)
        vals = self._vals
        vals["rhs_HLL_dPsi_sq_wtilde_prime"].append(quad(H_LL * dpsi ** 2 * wtp))
        vals["rhs_H_tang_dPsi_wtilde_prime"].append(quad(H_frob * tang * dpsi * wtp))
        if self._reads_base:
            vals[_BASE_LINE].append(quad((dH_LL + tangH) * dpsi_sq * wt))
        vals["rhs_dH_tang_dPsi_wtilde"].append(quad(dH_frob * tang * dpsi * wt))
        box = np.sqrt(np.sum(geom.interior(st.wave_op()) ** 2, axis=0))
        dtpsi = np.sqrt(np.sum(geom.interior(st.psi_t) ** 2, axis=0))
        vals["rhs_waveop_dtPsi_wtilde"].append(quad(box * dtpsi * wt))

    def report(self, I, component, t1, t2):
        """The EstimateReport of L_{Z^I} applied to ``component`` over the
        slices added so far."""
        ts = self._ts
        terms = {"lhs_slice_t2_w": self._ends[-1],
                 "lhs_tangential_flux_what_prime": trapz(self._flux, ts),
                 "rhs_slice_t1_wtilde": self._ends[0]}
        for n in _RHS_LINES:
            terms[n] = trapz(self._vals[n], ts)
        return EstimateReport(I_names=tuple(g.name for g in I),
                              component=str(component), t1=t1, t2=t2, terms=terms)


def energy_estimate_report(history, I, lie, component, t1, t2, base):
    """Every line of the weighted estimate of L_{Z^I} applied to one
    component of a run, which ``base``, the component's I = '' pass, read
    slice by slice while the run went on.

    For an empty I that pass is the report, and ``lie`` is None.
    Otherwise ``lie`` is :func:`lie_field_series` of I, built once for
    all components, and a second pass walks this component's series
    (:func:`lie_component_series`), dropping each slice state once it is
    read; the |dPhi_V|^2 line comes from ``base``.  The wave-operator
    line is the run's actual g dd Psi residual, closing the loop with
    the commutator bound.
    """
    I = tuple(I)
    if I:
        states = lie_component_series(history, lie, component)
        est, last = EstimatePass(base.region, base.params, base), len(states) - 1
        for k in range(len(states)):
            st, states[k] = states[k], None     # the list keeps no read state
            est.add(st, k in (0, last))
        base = est
    return base.report(I, component, t1, t2)
