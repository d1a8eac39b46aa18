"""Commutator machinery and the term-by-term energy-estimate evaluator.

The central exact statement: for iterated Lie derivatives along the 11
flat-spacetime generators applied to a scalar component phi,

    L_{Z^I}(g^{lm} d_l d_m phi) - g^{lm} d_l d_m (L_{Z^I} phi)
      = sum_{I1+I2=I, I2 != I} chat(I1) m^{lm} d_l d_m (L_{Z^{I2}} phi)
      + sum_{I2+I4+I5+I6=I, I2 != I} chat(I5) chat(I6) * [ null-frame
        contraction of (L_{Z^{I4}} H_low) against the Hessian of
        L_{Z^{I2}} phi ],

with chat(J) the proportionality factor of L_{Z^J} m^{-1} against m^{-1}
(extracted at runtime, never hard-coded).  Both sides are assembled from
exact polynomial calculus; only the frame contraction itself happens in
floating point at the sample points, so the residual sits at roundoff.

The decoupled bound regroups the same data into three term families:
lower-order wave terms, (1+t+|q|)^-1-weighted full components, and
(1+|q|)^-1-weighted terms that reference only H_LL and the tangential
components of phi.  Sums over abstract index sizes are realized over the
subsequence lattice of I (single-generator extensions included, which is
what the (|K|-1)_+ bookkeeping absorbs); both that convention and the
inner |M| <= |K|+1 convention are evaluated and reported.

Term evaluations are independent per sample point and per splitting;
reports are immutable once assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .energy import (ComponentSeries, SliceState, slice_energy,
                     tangential_flux_integral, trapz)
from .errors import FrameMismatch, HistoryMissing, PoleDegenerate
from .fields import PolyField, d1_axis, fill_ghosts_array
from .geometry import MINKOWSKI_INV, frame_arrays
from .poly import P_ONE, Poly, RadPoly
from .vecfields import (GENERATORS, lie_lattice, lie_minkowski_inverse_factor,
                        lie_multi, splittings, subsequences, ksize_plus)

_MSIGN = np.array([-1.0, 1.0, 1.0, 1.0])

# z-chart frame with exactly differentiable coefficients:
#   L    = (1,  x1/r,        x2/r,        x3/r)
#   Lbar = (1, -x1/r,       -x2/r,       -x3/r)
#   e1   = (0,  x1 x3/(r rho), x2 x3/(r rho), -(x1^2+x2^2)/(r rho))
#   e2   = (0, -x2/rho,      x1/rho,      0)          rho = sqrt(x1^2+x2^2)


def _rp(poly, key=(0, 0, 0)):
    return RadPoly({key: poly})


def frame_symbolic(name):
    """Frame vector as 4 RadPoly components (x3-axis chart)."""
    x1, x2, x3 = Poly.var(1), Poly.var(2), Poly.var(3)
    if name == "L":
        return [_rp(P_ONE), _rp(x1, (1, 0, 0)), _rp(x2, (1, 0, 0)), _rp(x3, (1, 0, 0))]
    if name == "Lbar":
        return [_rp(P_ONE), _rp(-x1, (1, 0, 0)), _rp(-x2, (1, 0, 0)), _rp(-x3, (1, 0, 0))]
    if name == "e1":
        return [RadPoly(), _rp(x1 * x3, (1, 1, 0)), _rp(x2 * x3, (1, 1, 0)),
                _rp(-(x1 * x1 + x2 * x2), (1, 1, 0))]
    if name == "e2":
        return [RadPoly(), _rp(-x2, (0, 1, 0)), _rp(x1, (0, 1, 0)), RadPoly()]
    raise KeyError(name)


_FRAME_SYM = {n: frame_symbolic(n) for n in ("L", "Lbar", "e1", "e2")}

TANGENTIAL = ("L", "e1", "e2")
FULL_FRAME = ("Lbar", "L", "e1", "e2")


def project_component(phi: PolyField, name):
    """phi_V = V^mu phi_mu as a RadPoly scalar field (rank-1 input)."""
    assert phi.rank == 1
    V = _FRAME_SYM[name]
    comps = np.empty((phi.channels,), dtype=object)
    for c in range(phi.channels):
        acc = RadPoly()
        for mu in range(4):
            acc = acc + V[mu] * phi.comps[mu, c]
        comps[c] = acc
    return PolyField(0, phi.channels, comps)


_CHAT_CACHE = {}


def c_hat(I):
    """Runtime-extracted factor with L_{Z^I} m^{-1} = c_hat(I) m^{-1}."""
    key = tuple(I)
    if key not in _CHAT_CACHE:
        _CHAT_CACHE[key] = lie_minkowski_inverse_factor(key)
    return _CHAT_CACHE[key]


def _hessian(scalar_field: PolyField):
    return scalar_field.gradient().gradient()  # slots (b, a, ch); symmetric


def g_box(H, phi):
    """g^{ab} d_a d_b phi as a scalar field (flat part plus H part)."""
    return _box(H, _hessian(phi))


def _box(H, hess):
    """g^{ab} d_a d_b of the scalar field whose Hessian is hess."""
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


def commutator_exact_lhs(H, phi, I):
    """L_{Z^I}(g dd phi) - g dd (L_{Z^I} phi), exact on polynomial scalars."""
    I = tuple(I)
    lhs = lie_multi(I, g_box(H, phi))
    rhs = g_box(H, lie_multi(I, phi))
    return lhs - rhs


class CommutatorStudy:
    """Exact factors shared by the frame components of one (H, phi, I).

    The gradients of L_{Z^s} phi (key None) and of each projected
    L_{Z^s} phi_c (key c) grow from one Lie lattice per field, which keeps
    only the entries a longer sequence can extend; L_{Z^s} H_low, its H_LL
    scalar and the current component's boxes are built once too.  Factor
    norms are kept for the last point batch.  The commutator mode keeps
    one study per multi-index.
    """

    def __init__(self, H, phi, I):
        self.H, self.phi, self.I = H, phi, tuple(I)
        self.subs = subsequences(self.I)
        k_exts = set(self.subs)
        for s in self.subs:
            if len(s) < len(self.I):
                k_exts.update(s + (g,) for g in GENERATORS)
        self.K_set = sorted(k_exts, key=lambda s: (len(s), tuple(g.name for g in s)))
        self._lattices = {"H": {(): H.lower_all()}} if H is not None else {}
        self._built, self._batch = {}, (np.empty((0, 4)), {})

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
                HJ, Lsym, acc = self._factor("H", key, s), _FRAME_SYM["L"], RadPoly()
                for mu in range(4):
                    for nu in range(4):
                        acc = acc + Lsym[mu] * Lsym[nu] * HJ.comps[mu, nu, 0]
                val = PolyField.scalar(acc)
            else:  # keep one component's boxes
                self._built = {f: v for f, v in self._built.items()
                               if f[0] != "box" or f[1] == key}
                if hess is None:
                    hess = self._factor("grad", key, s).gradient()
                val = _box(self.H, hess)
            self._built[what, key, s] = val
        return self._built[what, key, s]

    def _norms(self, pts, factors):
        """{factor: pointwise norm on pts} (|H_LL| for "LL"), each factor
        evaluated once per point batch."""
        if not np.array_equal(self._batch[0], pts):
            self._batch = (pts.copy(), {})
        norms = self._batch[1]
        for f in factors:
            if f not in norms:
                val = self._factor(*f)
                norms[f] = (np.abs(val.eval(pts)[:, 0]) if f[0] == "LL"
                            else _norm_eval(val, pts))
        return norms


class CommutatorIdentityRHS:
    """Evaluator for the exact expansion of the commutator.

    Takes the gradients of L_{Z^s} phi and L_{Z^s} H_low over the
    subsequences of I from a CommutatorStudy, its own or a shared one
    (phi is then the component V, whose boxes the bound also reads);
    the frame contraction happens per point batch.
    """

    def __init__(self, H, phi, I, study=None, V=None):
        st = study if study is not None else CommutatorStudy(H, phi, I)
        self.I, self.channels = st.I, phi.channels
        st._grads(V, st.subs)
        self._hess = {s: st._factor("grad", V, s).gradient() for s in st.subs}
        self._hlow = {s: st._factor("H", None, s) for s in st.subs} if H is not None else {}
        self._box = {s: st._factor("box", V, s, h) for s, h in self._hess.items()}
        self._flat = []
        for I1, I2 in splittings(self.I, 2):
            if I2 == self.I:
                continue
            c = c_hat(I1)
            if c:
                self._flat.append((c, I2))
        self._hterms = []
        if H is not None:
            for I2, I4, I5, I6 in splittings(self.I, 4):
                if I2 == self.I:
                    continue
                c56 = c_hat(I5) * c_hat(I6)
                if c56:
                    self._hterms.append((c56, I2, I4))

    def _accumulate(self, pts):
        """Signed sum and summed term magnitudes of the expansion at pts,
        from one evaluation of every Hessian and H factor."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = pts.shape[0]
        fr = frame_arrays(pts[:, 1], pts[:, 2], pts[:, 3])
        L = fr["L"].T
        Lb = fr["Lbar"].T
        eA = [fr["e1"].T, fr["e2"].T]
        hess_ev = {s: h.eval(pts) for s, h in self._hess.items()}  # (n,4,4,ch)
        hlow_ev = {s: h.eval(pts)[..., 0] for s, h in self._hlow.items()}  # (n,4,4)
        signed = np.zeros((n, self.channels))
        magnitude = np.zeros((n, self.channels))
        for c, I2 in self._flat:
            term = float(c) * np.einsum("ab,nabc->nc", MINKOWSKI_INV, hess_ev[I2])
            signed += term
            magnitude += np.abs(term)
        for c56, I2, I4 in self._hterms:
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
        return signed, magnitude

    def eval(self, pts):
        return self._accumulate(pts)[0]

    def _exact_lhs(self):
        """commutator_exact_lhs, its g dd L_{Z^I} phi from the expansion's box."""
        return lie_multi(self.I, self._box[()]) - self._box[self.I]


def commutator_identity_rhs(H, phi, I):
    return CommutatorIdentityRHS(H, phi, I)


def identity_residual(H, phi, I, pts):
    """Relative residual |LHS - RHS| over a point batch.

    The scale is the larger of the two sides and the summed magnitude of
    the expansion's individual terms, so exact cancellations are certified
    relative to the size of what cancels rather than to zero.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    rhs = CommutatorIdentityRHS(H, phi, I)
    return _relative_residual(rhs._exact_lhs().eval(pts), rhs, pts)


def _relative_residual(lhs, rhs_eval, pts):
    """identity_residual from the evaluated lhs and the expansion."""
    rhs, magnitude = rhs_eval._accumulate(pts)
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)),
                np.max(magnitude, initial=0.0), 1e-30)
    return float(np.max(np.abs(lhs - rhs)) / scale)


# ---------------------------------------------------------------------------
# Decoupled bound evaluator


@dataclass(frozen=True)
class BoundTerm:
    family: str            # "flat" | "t_weighted" | "q_weighted"
    J: tuple                # applied to the perturbation factor
    K: tuple                # applied to the field factor
    h_component: str        # "none" | "full" | "LL"
    phi_components: tuple   # component names read by the field factor


def _norm_eval(field: PolyField, pts):
    vals = field.eval(pts)
    return np.sqrt(np.sum(vals ** 2, axis=tuple(range(1, vals.ndim))))


class CommutatorBound:
    """Pointwise evaluator of the decoupled commutator bound.

    Families are enumerated over the subsequence lattice of I: K ranges
    over subsequences and their single-generator extensions (capped at
    |K| <= |I|), J over subsequences, constrained by
    |J| + (|K|-1)_+ <= |I| (the "collapsed" convention).  The alternative
    bookkeeping sums |M| <= |K|+1 inside each (J, K) with |J|+|K| <= |I|,
    |K| < |I| ("nested" convention); both are evaluated from the same
    factor norms.

    Factors come from a CommutatorStudy.  Shared by all components: the
    gradients of L_{Z^K} phi and L_{Z^K} phi_c, L_{Z^J} H_low, H_LL and
    their norms.  Per component: the flat family's boxes g dd L_{Z^K} phi_V.

    The dangerous (1+|q|)^-1 family reads only the LL component of the
    perturbation and tangential components of the field, recorded term by
    term in ``terms`` for structural inspection.
    """

    def __init__(self, H, phi, I, V, frame_set="T", study=None):
        self.I = tuple(I)
        self.V = V
        allowed = TANGENTIAL if frame_set == "T" else FULL_FRAME
        if V not in allowed:
            raise FrameMismatch(f"component {V!r} not in frame set {frame_set!r}")
        self.frame_set = frame_set
        self.component_set = allowed
        self.H = H
        self.study = study if study is not None else CommutatorStudy(H, phi, I)
        subs, self.K_set = self.study.subs, self.study.K_set

        # Factors, built now -------------------------------------------------
        self._flat = [("box", V, K) for K in subs if len(K) < len(self.I)]
        self._factors = list(self._flat)
        if H is not None:
            for c in (None,) + self.component_set:
                self.study._grads(c, self.K_set)
                self._factors += [("grad", c, K) for K in self.K_set]
            self._factors += [(w, None, J) for J in subs for w in ("H", "LL")]
        for f in self._factors:
            self.study._factor(*f)

        # Term table ("collapsed" convention pairs) -------------------------
        self.terms = []
        for K in subs:
            if len(K) < len(self.I):
                self.terms.append(BoundTerm("flat", (), K, "none", (V,)))
        self.pairs = []
        if H is not None:
            for J in subs:
                for K in self.K_set:
                    if len(J) + ksize_plus(len(K)) <= len(self.I) and len(K) <= len(self.I):
                        self.pairs.append((J, K))
                        self.terms.append(BoundTerm("t_weighted", J, K, "full", ("all",)))
                        self.terms.append(
                            BoundTerm("q_weighted", J, K, "LL", tuple(self.component_set)))

    def _weights(self, pts):
        r = np.sqrt(np.sum(pts[:, 1:] ** 2, axis=1))
        q = r - pts[:, 0]
        return 1.0 / (1.0 + pts[:, 0] + np.abs(q)), 1.0 / (1.0 + np.abs(q))

    def family_values(self, pts, convention="collapsed"):
        """Dict of family -> (n,) arrays under the requested convention."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if convention not in ("collapsed", "nested"):
            raise ValueError(f"unknown convention {convention!r}")
        wt, wq = self._weights(pts)
        norms = self.study._norms(pts, self._factors)
        flat = np.zeros(len(pts))
        for f in self._flat:
            flat += norms[f]
        t_fam = np.zeros(len(pts))
        q_fam = np.zeros(len(pts))
        if self.H is not None:
            if convention == "collapsed":
                pairs = self.pairs
            else:
                subs = self.study.subs
                pairs = [(J, M) for J in subs for K in subs
                         if len(J) + len(K) <= len(self.I) and len(K) < len(self.I)
                         for M in [K] + [K + (g,) for g in GENERATORS]]
            for J, K in pairs:
                t_fam += norms["H", None, J] * norms["grad", None, K]
                comp_sum = np.zeros(len(pts))
                for name in self.component_set:
                    comp_sum += norms["grad", name, K]
                q_fam += norms["LL", None, J] * comp_sum
        return {"flat": flat, "t_weighted": wt * t_fam, "q_weighted": wq * q_fam}

    def eval(self, pts, convention="collapsed"):
        fams = self.family_values(pts, convention)
        return fams["flat"] + fams["t_weighted"] + fams["q_weighted"]


def commutator_bound_rhs(H, phi, I, V, frame_set="T", study=None):
    return CommutatorBound(H, phi, I, V, frame_set=frame_set, study=study)


@dataclass
class CommutatorReport:
    """Measured data for one (H, phi, I, V) commutator study."""

    I_names: tuple
    V: str
    lhs_sup: float
    lhs_l2: float
    identity_residual: float
    bound_value_sup: float
    implied_constant: float
    implied_constant_nested: float
    n_points: int

    def to_json(self):
        return {
            "multi_index": list(self.I_names),
            "component": self.V,
            "lhs_sup": self.lhs_sup,
            "lhs_l2": self.lhs_l2,
            "identity_residual": self.identity_residual,
            "bound_value_sup": self.bound_value_sup,
            "implied_constant": self.implied_constant,
            "implied_constant_nested": self.implied_constant_nested,
            "n_points": self.n_points,
        }


def commutator_report(H, phi, I, V, pts, frame_set="T", study=None):
    """Exact lhs, identity residual, and measured bound constants at points;
    pass one CommutatorStudy of (H, phi, I) to share factors across V."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    study = study if study is not None else CommutatorStudy(H, phi, I)
    rhs = CommutatorIdentityRHS(H, phi, I, study=study, V=V)
    lhs = rhs._exact_lhs().eval(pts)
    lhs_vals = np.sqrt(np.sum(lhs ** 2, axis=1))
    ident = _relative_residual(lhs, rhs, pts)
    del rhs  # the bound needs the boxes, not the Hessians
    bound = commutator_bound_rhs(H, phi, I, V, frame_set=frame_set, study=study)
    bvals = bound.eval(pts)
    bvals_nested = bound.eval(pts, convention="nested")

    def implied(bv):
        ok = bv > 1e-12 * max(1.0, float(np.max(bv, initial=0.0)))
        return float(np.max(lhs_vals[ok] / bv[ok])) if ok.any() else 0.0

    return CommutatorReport(
        I_names=tuple(g.name for g in I),
        V=V,
        lhs_sup=float(np.max(lhs_vals)),
        lhs_l2=float(np.sqrt(np.mean(lhs_vals ** 2))),
        identity_residual=ident,
        bound_value_sup=float(np.max(bvals)),
        implied_constant=implied(bvals),
        implied_constant_nested=implied(bvals_nested),
        n_points=len(pts),
    )


# ---------------------------------------------------------------------------
# Frame-gradient bound and the e_A expansion identities


def gradient_frame_bound(Psi, U, V, pts):
    """Measured constant in the frame-gradient inequality

        |d Psi_{UV}| <= C [ sum_{|I|<=1} (1+t+|q|)^-1 |L_{Z^I} Psi|
                          + sum_{U' in full, V' in tang} sum_{|I|<=1}
                            (1+|q|)^-1 |(L_{Z^I} Psi)_{U'V'}| ].

    The left side differentiates the projected scalar exactly (radial
    calculus); right-side frame components are taken of the Lie-derived
    tensor at each point.  Returns the sup of lhs/rhs over the samples.
    """
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
    proj = PolyField(0, Psi.channels, comps)
    lhs = _norm_eval(proj.gradient(), pts)

    fr = frame_arrays(pts[:, 1], pts[:, 2], pts[:, 3], chart="z")
    vecs = {n: fr[n].T for n in FULL_FRAME}
    r = fr["r"]
    q = r - pts[:, 0]
    wt = 1.0 / (1.0 + pts[:, 0] + np.abs(q))
    wq = 1.0 / (1.0 + np.abs(q))
    rhs = np.zeros(len(pts))
    for I in [()] + [(g,) for g in GENERATORS]:
        LPsi = lie_multi(I, Psi)
        vals = LPsi.eval(pts)  # (n,4,4,ch)
        rhs += wt * np.sqrt(np.sum(vals ** 2, axis=(1, 2, 3)))
        for Un in FULL_FRAME:
            for Vn in TANGENTIAL:
                cvals = np.einsum("nm,nk,nmkc->nc", vecs[Un], vecs[Vn], vals)
                rhs += wq * np.sqrt(np.sum(cvals ** 2, axis=1))
    ok = rhs > 1e-14
    return float(np.max(lhs[ok] / rhs[ok])) if ok.any() else 0.0


def lbar_radial_residual(pts):
    """Exact evaluation of d_{Lbar}(x^j / r), which vanishes identically."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    worst = 0.0
    Lb = _FRAME_SYM["Lbar"]
    for j in (1, 2, 3):
        f = _rp(Poly.var(j), (1, 0, 0))  # x^j / r
        acc = RadPoly()
        for mu in range(4):
            acc = acc + Lb[mu] * f.diff(mu)
        worst = max(worst, float(np.max(np.abs(acc.eval_many(pts)))))
    return worst


def eA_rotation_representation(p, frame):
    """e_A as (1/r) C^{ij}_A Z_{ij}: returns [(coeff, generator)] at p."""
    from .vecfields import VectorFieldId

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
    """e_A as (1/t) C^j_A Z_{0j}: returns [(coeff, generator)] at p."""
    from .errors import TimeZero
    from .vecfields import VectorFieldId

    if p.t == 0.0:
        raise TimeZero
    out = []
    for which in ("e1", "e2"):
        a = frame.by_name(which)[1:]
        rep = [(a[j - 1] / p.t, VectorFieldId("Z", 0, j)) for j in (1, 2, 3) if a[j - 1]]
        out.append(rep)
    return out


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


def _gen_coeff_arrays(gen, geom, t):
    """Affine generator coefficients Z^mu on the full cube at time t."""
    from .vecfields import as_field

    zf = as_field(gen)
    X1, X2, X3 = geom.mesh()
    coords = (np.full_like(X1, t), X1, X2, X3)
    out = []
    for mu in range(4):
        p = zf.comps[mu, 0]
        arr = np.zeros_like(X1)
        for k, v in p.c.items():
            term = float(v) * np.ones_like(X1)
            for ax in range(4):
                if k[ax]:
                    term = term * coords[ax] ** k[ax]
            arr += term
        out.append(arr)
    return out


def _apply_lie_grid(gen, data, data_t, geom, t, rank):
    """One Lie step on a grid tensor snapshot (covariant slots).

    data: (4,)*rank + (ch, n, n, n); data_t its exact-or-differenced time
    derivative.  Uses stencils for spatial transport and the constant
    generator Jacobian for the slot corrections; refills ghosts.
    """
    from .vecfields import jacobian

    Z = _gen_coeff_arrays(gen, geom, t)
    J = jacobian(gen)
    out = Z[0] * data_t
    for i in (1, 2, 3):
        out = out + Z[i] * d1_axis(data, i, geom.dx)
    for slot in range(rank):
        for lam in range(4):
            for idx_slot in range(4):
                if J[lam, idx_slot] == 0:
                    continue
                src = [slice(None)] * data.ndim
                dst = [slice(None)] * data.ndim
                src[slot] = lam
                dst[slot] = idx_slot
                out[tuple(dst)] += float(J[lam, idx_slot]) * data[tuple(src)]
    fill_ghosts_array(out, "extrapolate")
    return out


def lie_component_series(history, I, component):
    """ComponentSeries of the projected L_{Z^I}-applied field on a run.

    Empty I takes the run's exact first-order-reduction path (d_t from the
    stored momentum, d_tt from the evolution equation); otherwise each Lie
    level transports with exact affine coefficients, using the exact time
    derivative at the first level and 4th-order series differencing below.
    """
    I = tuple(I)
    if not I:
        return history.component_series(component)
    geom = history.geom
    times = list(history.times)
    if len(times) < 5:
        raise HistoryMissing("Lie-applied series needs >= 5 stored snapshots")
    dt = times[1] - times[0]
    level = [F.copy() for F in history.fields]
    for F in level:
        fill_ghosts_array(F, history.ghost_mode)
    level_t = [history.dfields[k] for k in range(len(times))]
    rank = history.rank
    for gen in reversed(I):
        new = [
            _apply_lie_grid(gen, level[k], level_t[k], geom, times[k], rank)
            for k in range(len(times))
        ]
        new_t = series_time_derivative(new, dt)
        for arr in new_t:
            fill_ghosts_array(arr, "extrapolate")
        level, level_t = new, new_t
    psi = [history.project(arr, component) for arr in level]
    psi_t = series_time_derivative(psi, dt)
    psi_tt = series_time_derivative(psi_t, dt)
    for arr in psi_t:
        fill_ghosts_array(arr, "extrapolate")
    for arr in psi_tt:
        fill_ghosts_array(arr, "extrapolate")
    return ComponentSeries(geom, history.background, times, psi, psi_t, psi_tt)


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
        out = {
            "multi_index": list(self.I_names),
            "component": self.component,
            "t1": self.t1,
            "t2": self.t2,
            "implied_constant": self.implied_constant,
            "lhs_total": self.lhs_total,
            "rhs_total": self.rhs_total,
            "terms": {k: {"value": v, "label": ESTIMATE_TERM_LABELS[k]}
                      for k, v in self.terms.items()},
        }
        return out


def _H_frame_arrays(state: SliceState):
    """(|H_LL|, |H|, |dH_LL|, |tang H|, |dH|) interior arrays, or zeros.

    With H = chi M these are |chi| |L.M_low.L|, |chi| |M|, |dchi| |L.M_low.L|,
    sqrt(sum_U (U.dchi)^2) |M| over U in {L, e1, e2}, and |dchi| |M|.
    """
    geom = state.geom
    prof = state.profile()
    if prof is None:
        z = np.zeros((geom.N, geom.N, geom.N))
        return z, z, z, z, z
    chi, dchi = geom.interior(prof[0]), geom.interior(prof[1])
    M = state.bg.direction
    fr = {name: geom.interior(geom.frames()[name]) for name in ("L", "e1", "e2")}
    L = fr["L"]
    M_LL = np.abs(np.einsum("m...,k...,mk->...", L, L, M * np.outer(_MSIGN, _MSIGN)))
    M_frob = np.sqrt(np.sum(M * M))
    dchi_norm = np.sqrt(np.einsum("a...,a...->...", dchi, dchi))
    tang_sq = sum(np.einsum("a...,a...->...", U, dchi) ** 2 for U in fr.values())
    return (np.abs(chi) * M_LL, np.abs(chi) * M_frob, dchi_norm * M_LL,
            np.sqrt(tang_sq) * M_frob, dchi_norm * M_frob)


def energy_estimate_report(history, I, component, t1, t2, region, params):
    """Evaluate every line of the weighted estimate for one run.

    The wave-operator line uses the run's actual g dd Psi residual built
    from the stored reduction, closing the loop with the commutator bound;
    the undifferentiated |dPhi_V|^2 line reads the base (I = empty) series,
    which for an empty I is the report's own series and slice states.
    """
    from .weights import w_tilde, w_tilde_prime

    I = tuple(I)
    series = lie_component_series(history, I, component)
    base = history.component_series(component) if I else series
    geom = history.geom
    k1, k2 = series.index_range(t1, t2)

    terms = {}
    terms["lhs_slice_t2_w"] = slice_energy(series.state(k2), region, params, "w")
    terms["lhs_tangential_flux_what_prime"] = tangential_flux_integral(
        series, t1, t2, region, params)
    terms["rhs_slice_t1_wtilde"] = slice_energy(series.state(k1), region, params, "wtilde")

    names = ["rhs_HLL_dPsi_sq_wtilde_prime", "rhs_H_tang_dPsi_wtilde_prime",
             "rhs_dHLL_tangH_dPhi_sq_wtilde", "rhs_dH_tang_dPsi_wtilde",
             "rhs_waveop_dtPsi_wtilde"]
    vals = {n: [] for n in names}
    for k in range(k1, k2 + 1):
        st = series.state(k)
        stb = base.state(k) if I else st
        mask = geom.region_mask(region, st.t)
        q = geom.interior(geom.q_full(st.t))
        q_safe = np.where(q == 0.0, 1e-30, q)
        wt = w_tilde(q_safe, params)
        wtp = w_tilde_prime(q_safe, params)
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
    ts = series.times[k1:k2 + 1]
    for n in names:
        terms[n] = trapz(vals[n], ts)

    return EstimateReport(
        I_names=tuple(g.name for g in I),
        component=str(component), t1=t1, t2=t2, terms=terms)
