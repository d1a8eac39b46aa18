import json

import numpy as np
import pytest

from framewave import evolve
from framewave.background import BumpBackground, ZeroBackground, make_background
from framewave.errors import CFLViolation
from framewave.fields import GHOST, GridGeometry, d1_axis
from framewave.poly import GaussPoly, Poly, measure_order


def test_zero_data_stays_zero():
    geom = GridGeometry(12, 4.0)
    shape = (1, geom.n_full, geom.n_full, geom.n_full)
    hist = evolve.evolve_run(geom, ZeroBackground(), np.zeros(shape),
                             np.zeros(shape), 0.0, 0.5, n_monitors=5)
    for f in hist.fields:
        assert np.all(f == 0.0)


def test_plane_wave_small_grid_order():
    errs, hs = [], []
    for N in (16, 32):
        geom = GridGeometry(N, np.pi)
        Phi0, Pi0, exact = evolve.plane_wave_data(geom, kvec=(1, 0, 0))
        hist = evolve.evolve_run(geom, ZeroBackground(), Phi0, Pi0, 0.0, 0.5,
                                 boundary="periodic", cfl=0.4, n_monitors=3)
        num = geom.interior(hist.fields[-1])
        ref = geom.interior(exact(hist.times[-1]))
        errs.append(float(np.sqrt(np.mean((num - ref) ** 2))))
        hs.append(geom.dx)
    assert measure_order(hs, errs) >= 3.5


def test_cfl_violation():
    geom = GridGeometry(12, 4.0)
    shape = (1, geom.n_full, geom.n_full, geom.n_full)
    with pytest.raises(CFLViolation):
        evolve.evolve_run(geom, ZeroBackground(), np.zeros(shape),
                          np.zeros(shape), 0.0, 0.5, dt=geom.dx)


def test_max_speed_flat_and_bump():
    geom = GridGeometry(12, 4.0)
    assert evolve.max_characteristic_speed(geom, ZeroBackground(), 0.0) == 1.0
    c = evolve.max_characteristic_speed(
        geom, BumpBackground(0.3, center=(0, 0, 0), radius=3.0), 0.0)
    assert 1.0 < c < 2.5


def test_monitor_count_honored():
    geom = GridGeometry(12, 4.0)
    shape = (1, geom.n_full, geom.n_full, geom.n_full)
    hist = evolve.evolve_run(geom, ZeroBackground(), np.zeros(shape),
                             np.zeros(shape), 0.0, 0.5, n_monitors=6)
    assert len(hist.times) == 6
    assert np.allclose(np.diff(hist.times), hist.times[1] - hist.times[0])


def test_source_spec_validation():
    with pytest.raises(ValueError):
        evolve.SourceSpec(terms=("nope",))
    with pytest.raises(ValueError):
        evolve.SourceSpec(terms=("A3",), bigO_degree=0)


def test_build_source_constant_cubed():
    geom = GridGeometry(12, 4.0)
    n = geom.n_full
    c = 0.6
    Phi = np.full((4, 1, n, n, n), c)
    Pi = np.zeros_like(Phi)
    S = evolve.build_source(evolve.SourceSpec(terms=("A3",)), geom,
                            ZeroBackground(), 0.0, Phi, Pi)
    assert np.max(np.abs(geom.interior(S) - c ** 3)) <= 1e-15


def test_build_source_frame_product_oracle(rng):
    geom = GridGeometry(12, 4.0)
    n = geom.n_full
    X1, X2, X3 = geom.mesh()
    Phi = np.zeros((4, 1, n, n, n))
    Phi[1, 0] = X3 * np.exp(-(X1 ** 2 + X2 ** 2 + X3 ** 2) / 4)
    Phi[2, 0] = X1 * np.exp(-(X1 ** 2 + X2 ** 2 + X3 ** 2) / 6)
    Pi = np.zeros_like(Phi)
    Pi[1, 0] = 0.3 * Phi[1, 0]
    S = evolve.build_source(evolve.SourceSpec(terms=("Ae_dAe",)), geom,
                            ZeroBackground(), 0.0, Phi, Pi)
    fr = geom.frames()
    hand = np.zeros_like(S)
    for name in ("e1", "e2"):
        V = fr[name]
        p = np.einsum("m...,mc...->c...", V, Phi)
        pt = np.einsum("m...,mc...->c...", V, Pi)
        dp = np.stack([pt] + [d1_axis(p, i, geom.dx) for i in (1, 2, 3)])
        hand += p[None] * dp
    idx = rng.integers(4, n - 4, size=(10, 3))
    for i, j, k in idx:
        assert np.max(np.abs(S[:, :, i, j, k] - hand[:, :, i, j, k])) <= 1e-13


def test_build_source_bigO_linear_in_dA():
    geom = GridGeometry(12, 4.0)
    n = geom.n_full
    X1, X2, X3 = geom.mesh()
    Phi = np.zeros((4, 1, n, n, n))
    Phi[0, 0] = np.exp(-(X1 ** 2 + X2 ** 2 + X3 ** 2) / 3)
    Pi = np.zeros_like(Phi)
    spec = evolve.SourceSpec(terms=("bigO_h_dA",), bigO_degree=3)
    vals = []
    for eps in (0.02, 0.01):
        bg = BumpBackground(eps, center=(0, 0, 0), radius=3.0)
        S = evolve.build_source(spec, geom, bg, 0.0, Phi, Pi)
        vals.append(np.max(np.abs(geom.interior(S)[1, 0])))
    assert vals[0] / vals[1] == pytest.approx(2.0, rel=0.05)


def test_build_source_locality(rng):
    geom = GridGeometry(12, 4.0)
    n = geom.n_full
    X1, X2, X3 = geom.mesh()
    Phi = np.zeros((4, 1, n, n, n))
    Phi[0, 0] = np.exp(-(X1 ** 2 + X2 ** 2 + X3 ** 2) / 3)
    Pi = np.zeros_like(Phi)
    spec = evolve.SourceSpec(terms=("A3", "AL_dA", "Ae_dAe"))
    S1 = evolve.build_source(spec, geom, ZeroBackground(), 0.0, Phi, Pi)
    Phi2 = Phi.copy()
    Phi2[:, :, -5:, -5:, -5:] += 0.5
    S2 = evolve.build_source(spec, geom, ZeroBackground(), 0.0, Phi2, Pi)
    assert np.max(np.abs(S1[:, :, 4, 4, 4] - S2[:, :, 4, 4, 4])) == 0.0


def test_bad_term_run_emits_component_energies():
    from framewave import energy
    from framewave.weights import WeightParams

    geom = GridGeometry(16, 6.0)
    target = evolve.gaussian_target(rank=1, channels=1, amplitude=0.05,
                                    center=(0, 0, 2.0), sigma=1.0)
    Phi0, Pi0 = evolve.data_from_target(geom, target, 0.0)
    spec = evolve.SourceSpec(terms=("Ae_dAe", "AL_dA"))
    hist = evolve.evolve_run(geom, ZeroBackground(), Phi0, Pi0, 0.0, 0.4,
                             schematic=spec, cfl=0.4, n_monitors=5)
    region = energy.ExteriorRegion(q0=float("-inf"))
    params = WeightParams(0.5, -0.25)
    vals = {}
    for comp in ("Lbar", "L", "e1", "e2"):
        series = hist.component_series(comp)
        vals[comp] = energy.slice_energy(series.state(4), region, params, "w")
    assert all(np.isfinite(v) and v >= 0 for v in vals.values())
    assert len({round(v, 12) for v in vals.values()}) > 1  # no aliasing


def test_component_energies_decouple_at_initial_slice():
    # data differing only in the Lbar part changes the Lbar energy and
    # leaves tangential-component energies unchanged on the initial slice
    from framewave import energy
    from framewave.weights import WeightParams

    geom = GridGeometry(16, 6.0)
    n = geom.n_full
    rngl = np.random.default_rng(5)
    base = rngl.normal(size=(4, 1, n, n, n)) * np.exp(
        -(geom.mesh()[0] ** 2 + geom.mesh()[1] ** 2 + (geom.mesh()[2] - 2) ** 2))
    fr = geom.frames()
    L_low = fr["L"].copy()
    L_low[0] = -L_low[0]
    pert = base.copy()
    pert += 0.5 * L_low[:, None] * np.exp(-(geom.r_full() - 2.0) ** 2)[None, None]
    ev = evolve.Evolver(geom, ZeroBackground())
    h1 = evolve.RunHistory(geom, ZeroBackground(), 1, 1, [0.0], [base],
                           [np.zeros_like(base)], ev)
    h2 = evolve.RunHistory(geom, ZeroBackground(), 1, 1, [0.0], [pert],
                           [np.zeros_like(base)], ev)
    region = energy.ExteriorRegion(q0=float("-inf"))
    params = WeightParams(0.5, -0.25)
    for comp in ("L", "e1", "e2"):
        s1 = energy.slice_energy(h1.component_series(comp).state(0), region, params, "w")
        s2 = energy.slice_energy(h2.component_series(comp).state(0), region, params, "w")
        assert s2 == pytest.approx(s1, rel=1e-10)
    b1 = energy.slice_energy(h1.component_series("Lbar").state(0), region, params, "w")
    b2 = energy.slice_energy(h2.component_series("Lbar").state(0), region, params, "w")
    assert abs(b2 - b1) > 1e-6 * max(1.0, b1)


def test_manufactured_source_trivial_cases():
    geom = GridGeometry(12, 4.0)
    comps = np.empty((1,), dtype=object)
    comps[0] = Poly.zero()
    src = evolve.manufactured_source(comps, ZeroBackground(), geom)
    assert np.all(src(0.3) == 0.0)
    comps[0] = Poly.var(0) * Poly.var(1)  # t x1 is flat-harmonic
    src = evolve.manufactured_source(comps, ZeroBackground(), geom)
    assert np.max(np.abs(src(0.7))) <= 1e-12


def test_mms_convergence_single_background():
    bg = make_background("static-bump", epsilon=0.1, center=(0, 0, 1.0), radius=4.0)
    errs, hs = [], []
    for N in (16, 24):
        geom = GridGeometry(N, 6.0)
        comps = np.empty((1,), dtype=object)
        comps[0] = GaussPoly(Poly.const(1.0) + Poly.var(0) * 0.5, center=(0, 0.5, 0),
                             sigma=1.2)
        src = evolve.manufactured_source(comps, bg, geom)
        Phi0, Pi0 = evolve.data_from_target(geom, comps, 0.0)
        hist = evolve.evolve_run(geom, bg, Phi0, Pi0, 0.0, 0.6, source_fn=src,
                                 cfl=0.4, n_monitors=3)
        ref = evolve.sample_scalars(geom, comps, hist.times[-1])
        errs.append(float(np.sqrt(np.mean(
            (geom.interior(hist.fields[-1]) - geom.interior(ref)) ** 2))))
        hs.append(geom.dx)
    assert measure_order(hs, errs) >= 1.9


def test_traveling_bump_time_dependent():
    bg = make_background("traveling-bump", epsilon=0.1, center=(0, 0, 0),
                         radius=3.0, velocity=(0.4, 0, 0))
    geom = GridGeometry(12, 4.0)
    H0 = bg.H_full(geom, 0.0)
    H1 = bg.H_full(geom, 0.5)
    assert np.max(np.abs(H0 - H1)) > 1e-4
    dH = bg.dH_full(geom, 0.25)
    assert np.max(np.abs(dH[0])) > 1e-5  # nonzero time derivative


def test_rank2_toy_equation_same_scheme():
    # the metric-perturbation toy equation evolves rank-2 components with
    # the same reduction; degree-2 squared-gradient templates feed it
    geom = GridGeometry(12, 4.0)
    target = evolve.gaussian_target(rank=2, channels=1, amplitude=0.1,
                                    center=(0, 0, 1.0), sigma=0.9)
    Phi0, Pi0 = evolve.data_from_target(geom, target, 0.0)
    assert Phi0.shape[:2] == (4, 4)
    hist = evolve.evolve_run(geom, ZeroBackground(), Phi0, Pi0, 0.0, 0.4,
                             cfl=0.4, n_monitors=3)
    assert hist.rank == 2
    assert np.all(np.isfinite(hist.fields[-1]))
    for comp in ("slot01", "Lbar,Lbar", "L,e1"):
        series = hist.component_series(comp)
        assert series.psi[0].shape == (1,) + (geom.n_full,) * 3
        assert np.all(np.isfinite(series.psi[-1]))


def test_sommerfeld_shell_stable_long_run():
    # a pulse reaching the boundary leaves without blowing up
    geom = GridGeometry(16, 3.0)
    target = evolve.gaussian_target(amplitude=1.0, center=(0, 0, 0), sigma=0.7)
    Phi0, Pi0 = evolve.data_from_target(geom, target, 0.0)
    hist = evolve.evolve_run(geom, ZeroBackground(), Phi0, Pi0, 0.0, 6.0,
                             cfl=0.4, n_monitors=7)
    assert np.max(np.abs(hist.fields[-1])) < 1.0  # decayed, not amplified


# --- radiation shell: slab update against the full-cube reference ------------

def _full_cube_shell_grad(geom, U):
    """Reference: 4th-order gradient over the whole cube, then one-sided
    (outer layer) and centred second-order (next layer) closures along
    each axis."""
    dx = geom.dx
    out = np.stack([d1_axis(U, i, dx) for i in (1, 2, 3)])
    nd = U.ndim
    for i in (1, 2, 3):
        ax = nd - 3 + (i - 1)
        n = U.shape[ax]

        def sl(idx, ax=ax):
            t = [slice(None)] * nd
            t[ax] = idx
            return tuple(t)

        lo, hi = GHOST, n - GHOST - 1
        out[i - 1][sl(lo)] = (-3.0 * U[sl(lo)] + 4.0 * U[sl(lo + 1)] - U[sl(lo + 2)]) / (2 * dx)
        out[i - 1][sl(lo + 1)] = (U[sl(lo + 2)] - U[sl(lo)]) / (2 * dx)
        out[i - 1][sl(hi)] = (3.0 * U[sl(hi)] - 4.0 * U[sl(hi - 1)] + U[sl(hi - 2)]) / (2 * dx)
        out[i - 1][sl(hi - 1)] = (U[sl(hi)] - U[sl(hi - 2)]) / (2 * dx)
    return out


def _full_cube_shell(geom, Phi, Pi, dPhi, dPi):
    """Reference radiation update: advection over the whole cube, kept on
    the width-2 interior shell by a mask."""
    n = geom.n_full
    idx = np.arange(n)
    inner = (idx >= GHOST) & (idx < n - GHOST)
    edge = ((idx < GHOST + 2) | (idx >= n - GHOST - 2)) & inner
    shell = (edge[:, None, None] | edge[None, :, None] | edge[None, None, :]) \
        & inner[:, None, None] & inner[None, :, None] & inner[None, None, :]
    r = geom.r_full()
    xh = geom.frames()["L"][1:]
    for U, out in ((Pi, dPi), (Phi, dPhi)):
        g = _full_cube_shell_grad(geom, U)
        adv = -(xh[0] * g[0] + xh[1] * g[1] + xh[2] * g[2]) - U / r
        out[...] = np.where(shell, adv, out)


@pytest.mark.parametrize("family", ["zero", "static-bump", "traveling-bump"])
@pytest.mark.parametrize("rank, channels", [(0, 1), (1, 2)])
def test_rhs_shell_bit_identical_to_full_cube(monkeypatch, family, rank, channels):
    geom = GridGeometry(12, 4.0)
    bg = make_background(family, epsilon=0.2, center=(0.5, 0.0, 0.0), radius=3.0)
    spec = evolve.SourceSpec(terms=("AL_dA", "Ae_dAe")) if rank == 1 else None
    ev = evolve.Evolver(geom, bg, rank, channels, schematic=spec)
    rngl = np.random.default_rng(11 + rank)
    shape = (4,) * rank + (channels,) + (geom.n_full,) * 3
    Phi, Pi = rngl.normal(size=shape), rngl.normal(size=shape)
    got = ev.rhs(0.3, Phi.copy(), Pi.copy())
    monkeypatch.setattr(evolve, "_radiation_shell", _full_cube_shell)
    want = ev.rhs(0.3, Phi.copy(), Pi.copy())
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert not np.array_equal(got[0], Pi)  # the shell was written


def test_evolve_run_calls_rhs_only_for_rk_stages(monkeypatch, tmp_path):
    from framewave import cli

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "mode": "evolve", "grid": {"N": 12, "X": 4.0},
        "times": {"t1": 0.0, "t2": 0.3},
        "data": {"family": "gaussian", "rank": 1, "center": [0, 0, 1.5],
                 "sigma": 0.8},
        "source": {"terms": ["AL_dA", "Ae_dAe"]},
        "components": ["L", "e1", "slot0"], "monitors": 3}))
    cfg = cli.parse_config(str(cfg_path))
    calls = {"rhs": 0, "step": 0}
    rhs, step = evolve.Evolver.rhs, evolve.Evolver.step

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(evolve.Evolver, "rhs", counted("rhs", rhs))
    monkeypatch.setattr(evolve.Evolver, "step", counted("step", step))
    evolve.run_experiment(cfg, str(tmp_path))
    assert calls["step"] >= 2
    assert calls["rhs"] == 4 * calls["step"]


def test_manufactured_source_matches_per_entry_evaluation(monkeypatch):
    geom = GridGeometry(12, 4.0)
    comps = np.empty((4, 2), dtype=object)
    for idx in np.ndindex(comps.shape):
        p = Poly.const(1.0 + idx[0]) + Poly.var(idx[0]) * (0.5 - idx[1]) \
            + Poly.var(0) * Poly.var(1 + idx[1])
        comps[idx] = GaussPoly(p, center=(0.2, -0.1, 0.3 * idx[1]), sigma=1.1)
    poly_comps = np.empty((1,), dtype=object)
    x0, x1, x2, x3 = (Poly.var(a) for a in range(4))
    poly_comps[0] = x0 * x0 * x1 + x2 * x3 * x3 * x3
    bump = make_background("traveling-bump", epsilon=0.2, center=(0.0, 0.5, 0.0),
                           radius=3.0)
    t = 0.4
    pts = geom.points_full(t)
    n = geom.n_full
    for target in (comps, poly_comps):
        for bg in (ZeroBackground(), bump):
            # per-entry reference: every d_a d_b evaluated on its own
            Hf = None if bg.is_flat() else bg.H_full(geom, t)
            want = np.zeros(target.shape + (n, n, n))
            for idx in np.ndindex(target.shape):
                for a in range(4):
                    for b in range(4):
                        coef = (evolve.MINKOWSKI_INV[a, b] if a == b else 0.0) \
                            + (0.0 if Hf is None else Hf[a, b])
                        h = target[idx].diff(a).diff(b).eval_many(pts).reshape(n, n, n)
                        want[idx] += coef * h
            columns = []
            kernel = evolve._eval_scalars

            def counted(scalars, p):
                columns.append(len(scalars))
                return kernel(scalars, p)

            monkeypatch.setattr(evolve, "_eval_scalars", counted)
            got = evolve.manufactured_source(target, bg, geom)(t)
            monkeypatch.undo()
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale
            assert columns == [4 if bg.is_flat() else 10] * target.size
