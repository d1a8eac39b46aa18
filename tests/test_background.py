"""Structured backgrounds H = chi M against dense references.

The references are the dense point-table formulas: the bump profile on
every node of ``geom.points_full`` and the H/dH contractions written out
on dense (4, 4, n, n, n) and (4, 4, 4, n, n, n) tensors, which the
test-local ``dense_H`` builds from the zero-filled profile (the library
itself never builds them).  Each density reference accumulates its terms
and the sum of their magnitudes, so the comparison is relative to the
per-point scale.
"""

import json

import numpy as np
import pytest

from framewave import cli, energy, evolve, fields
from framewave.background import BumpBackground, make_background
from framewave.energy import SliceState
from framewave.estimates import _MSIGN, _H_frame_arrays
from framewave.fields import InnerProduct, GridGeometry, d1_axis, d2_axis
from framewave.geometry import MINKOWSKI_INV

import oracles
from conftest import dense_H

REL = 1e-12


def _profile_reference(bg, geom, t):
    """epsilon * chi and its 4-gradient on every node of the point table."""
    pts = geom.points_full(t)
    c = bg.center[None, :] + pts[:, 0:1] * bg.velocity[None, :]
    d = pts[:, 1:4] - c
    s2 = np.sum(d * d, axis=1) / bg.radius ** 2
    inside = s2 < 1.0
    one = np.where(inside, 1.0 - s2, 0.0)
    chi = one ** 3
    dchi_ds2 = -3.0 * one ** 2
    grad = np.zeros((pts.shape[0], 4))
    grad[:, 1:4] = dchi_ds2[:, None] * 2.0 * d / bg.radius ** 2
    grad[:, 0] = dchi_ds2 * (-2.0) * np.sum(d * bg.velocity[None, :], axis=1) / bg.radius ** 2
    grad[~inside] = 0.0
    n = geom.n_full
    return ((bg.epsilon * chi).reshape(n, n, n),
            np.moveaxis(bg.epsilon * grad, 0, -1).reshape(4, n, n, n))


def _acc(terms):
    """(sum, sum of magnitudes) of a list of same-shaped arrays."""
    return sum(terms), sum(np.abs(t) for t in terms)


def _close(got, ref_mag):
    ref, mag = ref_mag
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= REL * mag)


GEOM = GridGeometry(12, 4.0)
T = 0.4
BUMPS = {
    "static": dict(epsilon=0.2, center=(0.5, 0.0, -0.3), radius=3.0),
    "traveling": dict(epsilon=-0.2, center=(0.5, 0.0, -0.3), radius=3.0,
                      velocity=(0.3, -0.2, 0.1)),
}


@pytest.mark.parametrize("velocity", [(0.0, 0.0, 0.0), (0.3, -0.2, 0.1)])
@pytest.mark.parametrize("case, center, radius", [
    ("centred", (0.0, 0.0, 0.0), 3.0),
    ("clipped", (3.9, -0.2, -3.6), 2.0),
    ("off_grid", (20.0, 0.0, 0.0), 2.0),
])
def test_profile_matches_point_table(case, center, radius, velocity):
    bg = BumpBackground(-0.25, center=center, radius=radius, velocity=velocity)
    chi, dchi = bg.profile(GEOM, T)
    chi_ref, dchi_ref = _profile_reference(bg, GEOM, T)
    assert np.array_equal(chi, chi_ref)
    assert np.max(np.abs(dchi - dchi_ref)) <= 1e-15
    support = np.argwhere(chi_ref != 0.0)
    if case == "off_grid":
        assert support.size == 0 and not np.any(dchi)
    else:
        assert support.size
        edge = support.min() == 0 or support.max() == GEOM.n_full - 1
        assert edge == (case == "clipped")
    if any(velocity) and case != "off_grid":
        assert np.any(dchi[0])
    # the dense reference tensors are the point-table profile times the direction
    M = bg.direction
    H = dense_H(bg, GEOM, T)[0]
    assert np.array_equal(H, chi_ref * M[:, :, None, None, None])
    g_inv = MINKOWSKI_INV[:, :, None, None, None] + H
    assert np.array_equal(g_inv[0, 0], -1.0 + chi_ref * M[0, 0])


def _random_state(bg, channels, seed, cls=SliceState):
    rngl = np.random.default_rng(seed)
    shape = (channels,) + (GEOM.n_full,) * 3
    psi, psi_t, psi_tt = (rngl.normal(size=shape) for _ in range(3))
    return cls(GEOM, T, psi, psi_t, psi_tt, bg)


def _dense_rhs(ev, Phi, Pi):
    """Bulk update from dense g = m + H, then the same radiation shell."""
    geom, dx = ev.geom, ev.geom.dx
    H = dense_H(ev.bg, geom, T)[0]
    terms = [d2_axis(Phi, i, dx) for i in (1, 2, 3)]
    for i in (1, 2, 3):
        terms.append(H[i, i] * d2_axis(Phi, i, dx))
        for j in range(i + 1, 4):
            terms.append(H[i, j] * (d1_axis(d1_axis(Phi, i, dx), j, dx)
                                    + d1_axis(d1_axis(Phi, j, dx), i, dx)))
        terms.append(2.0 * H[0, i] * d1_axis(Pi, i, dx))
    num, mag = _acc(terms)
    g00 = -1.0 + H[0, 0]
    dPi, mag = num / (-g00), mag / np.abs(g00)
    dPhi = Pi.copy()
    oracles.full_cube_shell(geom, Phi, Pi, dPhi, dPi)
    return dPi, mag


def _dense_densities(st, H, dH):
    """Old dense formulas of every SliceState density: (value, magnitude)."""
    g, gt, hess, d4 = st.grad(), oracles.grad_t(st), oracles.hess(st), st.dpsi4()
    pt, dot, nsq = st.psi_t, InnerProduct.dot, InnerProduct.norm_sq
    xh = GEOM.frame("L")[1:]
    dr = np.einsum("i...,ic...->c...", xh, g)
    Hr = np.einsum("i...,ia...->a...", xh, H[1:, :])
    wave = [-st.psi_tt, H[0, 0] * st.psi_tt]
    wave += [fields._laplacian(st.psi, GEOM.dx)]      # the flat part's one kernel
    wave += [2.0 * H[0, 1 + i] * gt[i] for i in range(3)]
    wave += [H[1 + i, 1 + j] * hess[i, j] for i in range(3) for j in range(3)]
    h_energy = [-0.5 * H[0, 0] * nsq(pt)]
    h_energy += [0.5 * H[1 + i, 1 + j] * dot(g[i], g[j]) for i in range(3) for j in range(3)]
    tangential = [0.5 * nsq(pt + dr)] + [0.5 * nsq(g[i] - xh[i] * dr) for i in range(3)]
    wave_ref, wave_mag = _acc(wave)
    divH = np.einsum("mma...->a...", dH)
    div_t = [dot(wave_ref, pt)]
    div_t += [divH[a] * dot(d4[a], pt) for a in range(4)]
    div_t += [-0.5 * dH[0, a, b] * dot(d4[a], d4[b]) for a in range(4) for b in range(4)]
    div_ref, div_mag = _acc(div_t)
    return {
        "wave_op": (wave_ref, wave_mag),
        "energy_density": _acc([0.5 * nsq(pt)] + [0.5 * nsq(g[i]) for i in range(3)]
                               + h_energy),
        "ttr_density": _acc(tangential + h_energy + [Hr[0] * nsq(pt)]
                            + [Hr[1 + j] * dot(g[j], pt) for j in range(3)]),
        "trt_density": _acc([dot(dr, pt)] + [Hr[a] * dot(d4[a], pt) for a in range(4)]),
        "div_t_density": (div_ref, div_mag + dot(wave_mag, np.abs(pt))),
    }


def _dense_frame_arrays(H, dH):
    """Old dense |H_LL|, |H|, |dH_LL|, |tang H|, |dH|, each with a scale."""
    L = GEOM.frame("L")
    sgn = _MSIGN[:, None] * _MSIGN[None, :]
    H_low = H * sgn[:, :, None, None, None]
    dH_low = dH * sgn[None, :, :, None, None, None]
    H_LL = np.abs(np.einsum("m...,k...,mk...->...", L, L, H_low))
    H_LL_mag = np.einsum("m...,k...,mk...->...", np.abs(L), np.abs(L), np.abs(H))
    H_frob = np.sqrt(np.einsum("mk...,mk...->...", H, H))
    dLL = np.einsum("m...,k...,amk...->a...", L, L, dH_low)
    dLL_mag = np.einsum("m...,k...,amk...->a...", np.abs(L), np.abs(L), np.abs(dH))
    tang_sq = tang_mag = 0.0
    for name in ("L", "e1", "e2"):
        U = GEOM.frame(name)
        tang_sq = tang_sq + np.sum(np.einsum("a...,amk...->mk...", U, dH) ** 2, axis=(0, 1))
        tang_mag = tang_mag + np.sum(np.einsum("a...,amk...->mk...", np.abs(U),
                                               np.abs(dH)) ** 2, axis=(0, 1))
    dH_frob = np.sqrt(np.einsum("amk...,amk...->...", dH, dH))
    dH_LL = np.sqrt(np.sum(dLL ** 2, axis=0))
    pairs = [(H_LL, H_LL_mag), (H_frob, H_frob),
             (dH_LL, np.sqrt(np.sum(dLL_mag ** 2, axis=0))),
             (np.sqrt(tang_sq), np.sqrt(tang_mag)), (dH_frob, dH_frob)]
    return [(GEOM.interior(v), GEOM.interior(m)) for v, m in pairs]


@pytest.mark.parametrize("kind", sorted(BUMPS))
@pytest.mark.parametrize("channels", [1, 2])
def test_structured_consumers_match_dense_tensors(kind, channels):
    bg = BumpBackground(**BUMPS[kind])
    H, dH = dense_H(bg, GEOM, T)
    assert np.any(H) and (kind == "static") != np.any(dH[0])

    ev = evolve.Evolver(GEOM, bg)
    rngl = np.random.default_rng(5 + channels)
    shape = (channels,) + (GEOM.n_full,) * 3
    Phi, Pi = rngl.normal(size=shape), rngl.normal(size=shape)
    _, dPi = ev.rhs(T, Phi, Pi)   # fills the ghosts of Phi and Pi in place
    _close(dPi, _dense_rhs(ev, Phi, Pi))

    st = _random_state(bg, channels, seed=channels)
    for name, ref in _dense_densities(st, H, dH).items():
        _close(getattr(st, name)(), ref)

    for got, ref in zip(_H_frame_arrays(st), _dense_frame_arrays(H, dH)):
        _close(got, ref)



# --- the background's Hessian terms and the one kernel that reads them --------

@pytest.mark.parametrize("direction", [None, np.diag([0.0, 1.0, -2.0, 0.5])
                                       + np.eye(4, k=1) + np.eye(4, k=-1)])
def test_hessian_terms_rebuild_the_direction(direction):
    bg = BumpBackground(0.2, direction=direction)
    M = bg.direction
    assert [(a, b) for a, b, _ in bg.hessian_terms] == \
        [(a, b) for a in range(4) for b in range(a, 4) if M[a, b]]
    rebuilt = np.zeros((4, 4))
    for a, b, c in bg.hessian_terms:
        rebuilt[a, b] = rebuilt[b, a] = c if a == b else 0.5 * c
    assert np.array_equal(rebuilt, M)
    # H^{ab} k_a k_b = chi * sum c k_a k_b for any covector k
    k = np.array([0.3, -1.1, 0.7, 2.0])
    assert sum(c * k[a] * k[b] for a, b, c in bg.hessian_terms) == pytest.approx(k @ M @ k)
    for flat in (BumpBackground(0.0, direction=direction), make_background("zero"),
                 make_background("zero", epsilon=0.2), make_background("static-bump")):
        assert flat.hessian_terms == () and flat.is_flat()
        assert flat.support(GEOM, T) is None and flat.sup_abs() == 0.0


@pytest.mark.parametrize("kind", sorted(BUMPS))
def test_rhs_and_wave_op_run_the_one_h_kernel(monkeypatch, kind):
    """Evolver.rhs and SliceState.wave_op take their H terms from
    fields.h_on_box, and wave_op takes no stencil of its own past the
    one fields._laplacian pass of its flat part."""
    assert evolve.h_on_box is fields.h_on_box and energy.h_on_box is fields.h_on_box
    bg = BumpBackground(**BUMPS[kind])
    ev = evolve.Evolver(GEOM, bg)
    st = _random_state(bg, 2, seed=17)
    Phi, Pi = st.psi.copy(), st.psi_t.copy()
    want_rhs = ev.rhs(T, Phi.copy(), Pi.copy())
    want_op = _random_state(bg, 2, seed=17).wave_op()

    calls, stencils = [], []

    def spy(terms, U, U_t, box, dx, work=fields._fresh):
        calls.append((terms, U.shape, box, work))
        return fields.h_on_box(terms, U, U_t, box, dx, work)

    def counted(name):
        stencil = getattr(energy, name)

        def wrapper(*args, **kwargs):
            stencils.append(name)
            return stencil(*args, **kwargs)
        return wrapper

    for module in (evolve, energy):
        monkeypatch.setattr(module, "h_on_box", spy)
    for name in ("d1_axis", "_laplacian"):
        monkeypatch.setattr(energy, name, counted(name))
    got_rhs = ev.rhs(T, Phi, Pi)
    assert np.array_equal(st.wave_op(), want_op)
    for g, w in zip(got_rhs, want_rhs):
        assert np.array_equal(g, w)
    box = bg.support(GEOM, T)[0]
    assert [c[:3] for c in calls] == [(bg.hessian_terms, Phi.shape, box)] * 2
    assert calls[0][3] == ev._buffer and calls[1][3] is fields._fresh
    assert stencils == ["_laplacian"] and not hasattr(energy, "d2_axis")


# --- slice densities on the support box against the full-cube forms ---------

class _FullCubeSliceState(SliceState):
    """The full-cube bodies of the wave operator and the four densities,
    the oracles of their support-box forms: every H term is built on the
    whole cube from the zero-filled profile and multiplied by chi there."""

    def _profile(self):
        if self.bg is None or self.bg.is_flat():
            return None
        return self._get("full_profile", lambda: self.bg.profile(self.geom, self.t))

    def wave_op(self):
        def build():
            out = fields._laplacian(self.psi, self.geom.dx) - self.psi_tt
            hess = oracles.hess(self)
            prof = self._profile()
            if prof is not None:
                # the Hessian terms in the order of the background's list,
                # then M^{tt} d_tt psi
                gt = oracles.grad_t(self)
                h = np.zeros(out.shape)
                for a, b, c in self.bg.hessian_terms:
                    if b:
                        h += (gt[b - 1] if a == 0 else hess[a - 1, b - 1]) * c
                h += self.bg.direction[0, 0] * self.psi_tt
                out += prof[0] * h
            return out
        return self._get("full_wave_op", build)

    def _full_h_energy(self):
        M, g = self.bg.direction, self.grad()
        return 0.5 * (np.einsum("ij,ic...,jc...->...", M[1:, 1:], g, g)
                      - M[0, 0] * InnerProduct.norm_sq(self.psi_t))

    def _full_radial_direction(self):
        return np.einsum("i...,ia->a...", self.geom.frame("L")[1:],
                         self.bg.direction[1:, :])

    def energy_density(self):
        g = self.grad()
        out = 0.5 * InnerProduct.norm_sq(self.psi_t)
        for i in range(3):
            out += 0.5 * InnerProduct.norm_sq(g[i])
        prof = self._profile()
        if prof is not None:
            out += prof[0] * self._full_h_energy()
        return out

    def ttr_density(self):
        out = self.tangential_integrand()
        prof = self._profile()
        if prof is not None:
            Mr = self._full_radial_direction()
            h = (self._full_h_energy() + Mr[0] * InnerProduct.norm_sq(self.psi_t)
                 + np.einsum("j...,jc...,c...->...", Mr[1:], self.grad(), self.psi_t))
            out = out + prof[0] * h
        return out

    def _full_radial(self):
        """x/r and d_r psi on the full cube, without the state's null_flat."""
        xh = self.geom.frame("L")[1:]
        return xh, np.einsum("i...,ic...->c...", xh, self.grad())

    def tangential_integrand(self):
        def build():
            xh, dr = self._full_radial()
            g = self.grad()
            out = 0.5 * InnerProduct.norm_sq(self.psi_t + dr)
            for i in range(3):
                out += 0.5 * InnerProduct.norm_sq(g[i] - xh[i] * dr)
            return out
        return self._get("full_tangential", build)

    def trt_density(self):
        _, dr = self._full_radial()
        out = InnerProduct.dot(dr, self.psi_t)
        prof = self._profile()
        if prof is not None:
            out += prof[0] * np.einsum("a...,ac...,c...->...", self._full_radial_direction(),
                                       self.dpsi4(), self.psi_t)
        return out

    def div_t_density(self):
        out = InnerProduct.dot(self.wave_op(), self.psi_t)
        prof = self._profile()
        if prof is not None:
            dchi = prof[1]
            M = self.bg.direction
            d4 = self.dpsi4()
            divH = np.einsum("m...,ma->a...", dchi, M)
            out += np.einsum("a...,ac...,c...->...", divH, d4, self.psi_t)
            out -= 0.5 * dchi[0] * np.einsum("ab,ac...,bc...->...", M, d4, d4)
        return out


def _full_cube_frame_arrays(state):
    """The full-cube body of _H_frame_arrays (its oracle)."""
    geom = state.geom
    prof = state._profile()
    if prof is None:
        z = np.zeros((geom.N, geom.N, geom.N))
        return z, z, z, z, z
    chi, dchi = geom.interior(prof[0]), geom.interior(prof[1])
    M = state.bg.direction
    fr = {name: geom.interior(geom.frame(name)) for name in ("L", "e1", "e2")}
    L = fr["L"]
    M_LL = np.abs(np.einsum("m...,k...,mk->...", L, L, M * np.outer(_MSIGN, _MSIGN)))
    M_frob = np.sqrt(np.sum(M * M))
    dchi_norm = np.sqrt(np.einsum("a...,a...->...", dchi, dchi))
    tang_sq = sum(np.einsum("a...,a...->...", U, dchi) ** 2 for U in fr.values())
    return (np.abs(chi) * M_LL, np.abs(chi) * M_frob, dchi_norm * M_LL,
            np.sqrt(tang_sq) * M_frob, dchi_norm * M_frob)


BOX_BUMPS = {
    "static": dict(epsilon=0.2, center=(0.5, 0.0, -0.3), radius=3.0),
    "static-negative": dict(epsilon=-0.2, center=(0.5, 0.0, -0.3), radius=3.0),
    "traveling": dict(epsilon=0.2, center=(-0.4, 0.3, 0.2), radius=2.5,
                      velocity=(0.3, -0.2, 0.1)),
    "traveling-negative": dict(epsilon=-0.2, center=(-0.4, 0.3, 0.2), radius=2.5,
                               velocity=(0.3, -0.2, 0.1)),
    "ghost-layers": dict(epsilon=0.2, center=(3.9, -3.8, 0.0), radius=3.0,
                         velocity=(0.0, 0.0, 0.3)),
    "ghost-only": dict(epsilon=0.2, center=(4.4, 0.0, 0.0), radius=0.5),
    "empty-box": dict(epsilon=0.2, center=(20.0, 0.0, 0.0), radius=3.0),
}


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("kind", sorted(BOX_BUMPS))
def test_slice_densities_on_support_box_match_full_cube(kind, channels):
    bg = BumpBackground(**BOX_BUMPS[kind])
    new = _random_state(bg, channels, seed=3 + channels)
    old = _random_state(bg, channels, seed=3 + channels, cls=_FullCubeSliceState)
    assert (new.support() is None) == (kind == "empty-box")
    tangential = new.tangential_integrand().copy()
    for name in ("wave_op", "energy_density", "ttr_density", "trt_density",
                 "div_t_density"):
        assert np.array_equal(getattr(new, name)(), getattr(old, name)()), name
    assert np.array_equal(new.tangential_integrand(), tangential)  # the cache stays
    for got, want in zip(_H_frame_arrays(new), _full_cube_frame_arrays(old)):
        assert np.array_equal(got, want)


def test_static_bump_support_is_kept_once_per_grid():
    bg = BumpBackground(0.2, center=(0.5, -1.0, 1.0), radius=3.0)
    geom, other = GridGeometry(16, 6.0), GridGeometry(20, 6.0)
    box, chi, dchi = bg.support(geom, 0.0)
    for t in (0.0, 0.7, -2.0):
        again = bg.support(geom, t)
        assert again[0] == box and again[1] is chi and again[2] is dchi
    want = bg._support_at(geom, 0.7)
    assert want[0] == box and np.array_equal(want[1], chi) and np.array_equal(want[2], dchi)
    for arr in (chi, dchi):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
    assert bg.support(other, 0.0)[1] is not chi
    assert bg.support(other, 0.0)[1].shape != chi.shape


def test_traveling_bump_support_moves_with_t():
    bg = BumpBackground(0.2, center=(0.5, -1.0, 1.0), radius=3.0, velocity=(0.5, 0, 0))
    geom = GridGeometry(16, 6.0)
    box0, chi0, _ = bg.support(geom, 0.0)
    box1, chi1, dchi1 = bg.support(geom, 2.0)
    assert box1[0] != box0[0] and box1[1:] == box0[1:]
    assert chi1.flags.writeable and dchi1.flags.writeable
    assert np.any(dchi1[0] != 0.0)   # d_t chi of a moving bump
    again = bg.support(geom, 0.0)
    assert again[1] is not chi0 and np.array_equal(again[1], chi0)


def test_static_bump_evolve_artifacts_match_uncached_support(tmp_path, monkeypatch):
    cfg = {"mode": "evolve", "grid": {"N": 12, "X": 4.0}, "times": {"t1": 0.0, "t2": 0.3},
           "background": {"family": "static-bump", "epsilon": 0.2, "radius": 2.5},
           "data": {"family": "gaussian", "center": [0, 0, 1.0], "sigma": 0.8},
           "monitors": 4, "snapshots": True}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for cached in (True, False):
        if not cached:
            monkeypatch.setattr(BumpBackground, "support", BumpBackground._support_at)
        out = tmp_path / str(cached)
        assert cli.main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert "final_state.bin" in outs[0] and "energy_series.csv" in outs[0]
    assert outs[0] == outs[1]
