import functools
import json

import numpy as np
import pytest

from framewave import evolve
from framewave.background import BumpBackground, make_background
from framewave.errors import CFLViolation
from framewave.fields import (GHOST, GridGeometry, PolyField, _laplacian, d1_axis, d2_axis,
                              fill_ghosts_array)
from framewave.geometry import MINKOWSKI, MINKOWSKI_INV, POLAR_CAP
from framewave.poly import GaussPoly, Poly, measure_order, random_poly

import oracles
from conftest import dense_H
from oracles import component_series, finished, fresh_source, in_order, schematic


def test_zero_data_stays_zero():
    geom = GridGeometry(12, 4.0)
    shape = (1, geom.n_full, geom.n_full, geom.n_full)
    hist = oracles.stored_run(geom, BumpBackground(0.0), np.zeros(shape),
                             np.zeros(shape), 0.0, 0.5, n_monitors=5)
    for f in hist.fields:
        assert np.all(f == 0.0)


def test_plane_wave_small_grid_order():
    errs, hs = [], []
    for N in (16, 32):
        geom = GridGeometry(N, np.pi)
        Phi0, Pi0 = evolve.plane_wave_data(geom, kvec=(1, 0, 0))
        hist = oracles.stored_run(geom, BumpBackground(0.0), Phi0, Pi0, 0.0, 0.5,
                                 boundary="periodic", cfl=0.4, n_monitors=3)
        num = geom.interior(hist.fields[-1])
        ref = geom.interior(oracles.plane_wave_exact(geom, (1, 0, 0), hist.times[-1]))
        errs.append(float(np.sqrt(np.mean((num - ref) ** 2))))
        hs.append(geom.dx)
    assert measure_order(hs, errs) >= 3.5


def test_cfl_violation():
    geom = GridGeometry(12, 4.0)
    shape = (1, geom.n_full, geom.n_full, geom.n_full)
    with pytest.raises(CFLViolation):
        oracles.stored_run(geom, BumpBackground(0.0), np.zeros(shape),
                          np.zeros(shape), 0.0, 0.5, dt=geom.dx)


def test_max_speed_flat_and_bump():
    geom = GridGeometry(12, 4.0)
    assert evolve.max_characteristic_speed(geom, BumpBackground(0.0), 0.0) == 1.0
    c = evolve.max_characteristic_speed(
        geom, BumpBackground(0.3, center=(0, 0, 0), radius=3.0), 0.0)
    assert 1.0 < c < 2.5


def test_monitor_count_honored():
    geom = GridGeometry(12, 4.0)
    shape = (1, geom.n_full, geom.n_full, geom.n_full)
    hist = oracles.stored_run(geom, BumpBackground(0.0), np.zeros(shape),
                             np.zeros(shape), 0.0, 0.5, n_monitors=6)
    assert len(hist.times) == 6
    assert np.allclose(np.diff(hist.times), hist.times[1] - hist.times[0])


def test_source_spec_validation():
    with pytest.raises(ValueError):
        evolve.SourceSpec(terms=("nope",))
    with pytest.raises(ValueError):
        evolve.SourceSpec(terms=("A3",), bigO_degree=0)
    for slots in ((4,), (0, -1)):   # the rows of S are mu = 0..3
        with pytest.raises(ValueError, match="slots"):
            evolve.SourceSpec(terms=("dh_TU_sq",), slots=slots)


def _schematic_S(spec, geom, bg, Phi, Pi):
    """S of the schematic terms, read off d_t Pi = 0 - S on a flat g^{tt}."""
    return -fresh_source(schematic(spec, geom, bg), 0.0, np.zeros_like(Phi), Phi, Pi)


def test_build_source_constant_cubed():
    geom = GridGeometry(12, 4.0)
    n = geom.n_full
    c = 0.6
    Phi = np.full((4, 1, n, n, n), c)
    Pi = np.zeros_like(Phi)
    S = _schematic_S(evolve.SourceSpec(terms=("A3",)), geom, BumpBackground(0.0), Phi, Pi)
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
    S = _schematic_S(evolve.SourceSpec(terms=("Ae_dAe",)), geom, BumpBackground(0.0), Phi, Pi)
    hand = np.zeros_like(S)
    for name in ("e1", "e2"):
        V = geom.frame(name)
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
        S = _schematic_S(spec, geom, bg, Phi, Pi)
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
    S1 = _schematic_S(spec, geom, BumpBackground(0.0), Phi, Pi)
    Phi2 = Phi.copy()
    Phi2[:, :, -5:, -5:, -5:] += 0.5
    S2 = _schematic_S(spec, geom, BumpBackground(0.0), Phi2, Pi)
    assert np.max(np.abs(S1[:, :, 4, 4, 4] - S2[:, :, 4, 4, 4])) == 0.0


# --- the term table on the grid against its exact evaluation ------------------

# Fixed before the first run: the roundoff bound of the terms whose grid
# form is exact on polynomial data of degree <= 4 (its stencils are), and
# the order floor of the two that difference a frame projection, which is
# no polynomial.
TABLE_ROUNDOFF = 1e-11
TABLE_ORDER = 3.5
_STENCIL_EXACT = tuple(t for t in evolve.SCHEMATIC_TERMS if t not in ("Ae_dAe", "dAe_sq"))


def _table_on_grid(term, N, t=0.3):
    """(grid S, exact S, geometry) of one schematic term on GridGeometry(N,
    4.0), from the same degree-4 rank-1 data and h at every N, sampled on
    the full cube; S read off d_t Pi = 0 - S on a flat g^{tt}."""
    rngl = np.random.default_rng(41)
    A = PolyField.random(rngl, rank=1, channels=2, degree=4, nterms=4)
    h = random_poly(rngl, degree=4, nterms=4) * 0.01
    spec = evolve.SourceSpec(terms=(term,), bigO_degree=3, slots=(0, 2, 2))
    geom = GridGeometry(N, 4.0)
    dA = np.empty(A.shape, dtype=object)
    for idx in np.ndindex(A.shape):
        dA[idx] = A.comps[idx].diff(0)
    Phi, Pi = (evolve.sample_scalars(geom, comps, t) for comps in (A.comps, dA))
    grid = -fresh_source(schematic(spec, geom, oracles.PolyTT(h)), t, np.zeros_like(Phi),
                         Phi, Pi)
    exact = oracles.exact_source(spec, A, h, geom.points_full(t))
    return grid, exact.reshape(grid.shape), geom


@pytest.mark.parametrize("term", _STENCIL_EXACT)
def test_term_table_matches_exact_evaluation(term):
    grid, exact, geom = _table_on_grid(term, 16)
    scale = np.max(np.abs(geom.interior(exact)))
    assert scale > 0
    assert np.max(np.abs(geom.interior(grid - exact))) <= TABLE_ROUNDOFF * scale


@pytest.mark.parametrize("term", ["Ae_dAe", "dAe_sq"])
def test_frame_gradient_terms_converge_to_exact_evaluation(term):
    """The largest error over one set of points, the nodes that N = 16
    and N = 48 share (node i of the first is node 3i + 1 of the second),
    at r >= 1 and where no stencil of either grid reads a polar-cap cell:
    there the grid's sphere frame is the x3-axis chart of the exact one."""
    keep, errs, hs = True, [], []
    for N, nodes in ((16, slice(GHOST, -GHOST)), (48, slice(GHOST + 1, -GHOST, 3))):
        grid, exact, geom = _table_on_grid(term, N)
        cap = np.abs(geom.mesh()[2]) > POLAR_CAP * geom.r_full()
        near = cap.copy()      # a cap cell within two cells along some axis
        for ax in range(3):
            for d in (-2, -1, 1, 2):
                near |= np.roll(cap, d, axis=ax)
        keep = keep & (~near & (geom.r_full() >= 1.0))[nodes, nodes, nodes]
        errs.append(np.abs(grid - exact)[..., nodes, nodes, nodes])
        hs.append(geom.dx)
    assert keep.sum() > 100
    errs = [np.max(e[..., keep]) for e in errs]
    assert measure_order(hs, errs) >= TABLE_ORDER


def test_bad_term_run_emits_component_energies():
    from framewave import energy
    from framewave.weights import WeightParams

    geom = GridGeometry(16, 6.0)
    target = oracles.gaussian_target(rank=1, channels=1, amplitude=0.05,
                                    center=(0, 0, 2.0), sigma=1.0)
    Phi0, Pi0 = evolve.data_from_target(geom, target, 0.0)
    spec, bg = evolve.SourceSpec(terms=("Ae_dAe", "AL_dA")), BumpBackground(0.0)
    hist = oracles.stored_run(geom, bg, Phi0, Pi0, 0.0, 0.4,
                             source=schematic(spec, geom, bg), cfl=0.4, n_monitors=5)
    region = energy.ExteriorRegion(q0=float("-inf"))
    params = WeightParams(0.5, -0.25)
    vals = {}
    for comp in ("Lbar", "L", "e1", "e2"):
        series = component_series(hist, comp)
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
    L_low = geom.frame("L").copy()
    L_low[0] = -L_low[0]
    pert = base.copy()
    pert += 0.5 * L_low[:, None] * np.exp(-(geom.r_full() - 2.0) ** 2)[None, None]
    ev = evolve.Evolver(geom, BumpBackground(0.0))
    h1 = oracles.StoredRun(geom, BumpBackground(0.0), "sommerfeld", [0.0], [base],
                           [np.zeros_like(base)], ev)
    h2 = oracles.StoredRun(geom, BumpBackground(0.0), "sommerfeld", [0.0], [pert],
                           [np.zeros_like(base)], ev)
    region = energy.ExteriorRegion(q0=float("-inf"))
    params = WeightParams(0.5, -0.25)
    for comp in ("L", "e1", "e2"):
        s1 = energy.slice_energy(component_series(h1, comp).state(0), region, params, "w")
        s2 = energy.slice_energy(component_series(h2, comp).state(0), region, params, "w")
        assert s2 == pytest.approx(s1, rel=1e-10)
    b1 = energy.slice_energy(component_series(h1, "Lbar").state(0), region, params, "w")
    b2 = energy.slice_energy(component_series(h2, "Lbar").state(0), region, params, "w")
    assert abs(b2 - b1) > 1e-6 * max(1.0, b1)


def test_manufactured_source_trivial_cases():
    geom = GridGeometry(12, 4.0)
    zeros = np.zeros((1,) + (geom.n_full,) * 3)
    comps = np.empty((1,), dtype=object)
    comps[0] = Poly.zero()
    src = evolve.manufactured_source(comps, BumpBackground(0.0), geom)
    assert np.all(fresh_source(src, 0.3, zeros.copy()) == 0.0)
    comps[0] = Poly.var(0) * Poly.var(1)  # t x1 is flat-harmonic
    src = evolve.manufactured_source(comps, BumpBackground(0.0), geom)
    assert np.max(np.abs(fresh_source(src, 0.7, zeros.copy()))) <= 1e-12


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
        hist = oracles.stored_run(geom, bg, Phi0, Pi0, 0.0, 0.6, source=src,
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
    H0 = dense_H(bg, geom, 0.0)[0]
    H1 = dense_H(bg, geom, 0.5)[0]
    assert np.max(np.abs(H0 - H1)) > 1e-4
    dH = dense_H(bg, geom, 0.25)[1]
    assert np.max(np.abs(dH[0])) > 1e-5  # nonzero time derivative


def test_rank2_toy_equation_same_scheme():
    # the metric-perturbation toy equation evolves rank-2 components with
    # the same reduction; degree-2 squared-gradient templates feed it
    geom = GridGeometry(12, 4.0)
    target = oracles.gaussian_target(rank=2, channels=1, amplitude=0.1,
                                    center=(0, 0, 1.0), sigma=0.9)
    Phi0, Pi0 = evolve.data_from_target(geom, target, 0.0)
    assert Phi0.shape[:2] == (4, 4)
    hist = oracles.stored_run(geom, BumpBackground(0.0), Phi0, Pi0, 0.0, 0.4,
                             cfl=0.4, n_monitors=3)
    assert hist.fields[-1].shape[:2] == (4, 4)
    assert np.all(np.isfinite(hist.fields[-1]))
    for comp in ("slot01", "Lbar,Lbar", "L,e1"):
        series = component_series(hist, comp)
        assert series.psi[0].shape == (1,) + (geom.n_full,) * 3
        assert np.all(np.isfinite(series.psi[-1]))


def test_sommerfeld_shell_stable_long_run():
    # a pulse reaching the boundary leaves without blowing up
    geom = GridGeometry(16, 3.0)
    target = oracles.gaussian_target(amplitude=1.0, center=(0, 0, 0), sigma=0.7)
    Phi0, Pi0 = evolve.data_from_target(geom, target, 0.0)
    hist = oracles.stored_run(geom, BumpBackground(0.0), Phi0, Pi0, 0.0, 6.0,
                             cfl=0.4, n_monitors=7)
    assert np.max(np.abs(hist.fields[-1])) < 1.0  # decayed, not amplified


# --- radiation shell: slab update against the full-cube reference ------------

@pytest.mark.parametrize("family", ["zero", "static-bump", "traveling-bump"])
@pytest.mark.parametrize("rank, channels, N", [
    pytest.param(0, 1, 12, id="0-1"), pytest.param(1, 2, 12, id="1-2"),
    pytest.param(2, 2, 12, id="2-2"), pytest.param(0, 1, 8, id="0-1-N8"),
    pytest.param(1, 2, 8, id="1-2-N8"), pytest.param(2, 2, 8, id="2-2-N8")])
def test_rhs_shell_bit_identical_to_full_cube(family, rank, channels, N):
    """The shell cells of the right-hand side, from its six slabs, against
    the full-cube radiation update written over a copy of the result."""
    geom = GridGeometry(N, 4.0)  # N = 8 is the smallest legal grid
    bg = make_background(family, epsilon=0.2, center=(0.5, 0.0, 0.0), radius=3.0)
    spec = evolve.SourceSpec(terms=("AL_dA", "Ae_dAe")) if rank == 1 else None
    ev = evolve.Evolver(geom, bg, source=None if spec is None else schematic(spec, geom, bg))
    rngl = np.random.default_rng(11 + rank)
    shape = (4,) * rank + (channels,) + (geom.n_full,) * 3
    Phi, Pi = rngl.normal(size=shape), rngl.normal(size=shape)
    got = ev.rhs(0.3, Phi, Pi)
    want = [g.copy() for g in got]
    oracles.full_cube_shell(geom, Phi, Pi, *want)
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


@pytest.mark.parametrize("mode, indices", [("evolve", [""]), ("estimate", [""]),
                                           ("estimate", ["", "S"])],
                         ids=["evolve", "estimate", "estimate-lie"])
def test_run_experiment_drops_each_state_before_the_next(monkeypatch, tmp_path, mode,
                                                         indices):
    # the run's monitor builds one slice state per component and slice and
    # drops each before the next is built, also when it feeds an estimate
    # pass; only an estimate with a non-empty multi-index stores snapshots
    import collections
    import weakref

    from framewave import cli, energy, estimates

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "mode": mode, "grid": {"N": 8, "X": 4.0}, "times": {"t1": 0.0, "t2": 0.2},
        "data": {"family": "gaussian", "rank": 1, "center": [0, 0, 1.5], "sigma": 0.8},
        "components": ["L", "e1", "slot0"], "multi_indices": indices, "monitors": 3}))
    cfg = cli.parse_config(str(cfg_path))
    _, _, params, region = evolve.setup_experiment(cfg)
    passes = [estimates.EstimatePass(region, params) for _ in range(3 * (mode == "estimate"))]
    state_refs, slices = [], collections.Counter()
    init = energy.SliceState.__init__

    def tracked_init(self, geom, t, *args):
        assert all(r() is None for r in state_refs)
        init(self, geom, t, *args)
        state_refs.append(weakref.ref(self))
        slices[t] += 1

    monkeypatch.setattr(energy.SliceState, "__init__", tracked_init)
    hist = evolve.run_experiment(cfg, str(tmp_path), passes=passes)[0]
    assert len(state_refs) == 9 and all(r() is None for r in state_refs)
    assert sorted(slices.values()) == [3, 3, 3]
    assert len(hist.fields) == len(hist.dfields) == (3 if "S" in indices else 0)
    assert all(len(p._ts) == 3 for p in passes)


def test_evolve_run_consumer_sees_the_stored_slices(monkeypatch):
    # the consumer is fed the arrays the run advances in place, holding the
    # slices that the stored run copies, and a slope equal to the
    # right-hand side on copies of the slice, the d_tt a stored slice gets
    geom = GridGeometry(8, 4.0)
    bg = make_background("traveling-bump", epsilon=0.2, center=(0.5, 0.0, 0.0), radius=3.0,
                         velocity=(0.3, 0.0, 0.0))
    spec = evolve.SourceSpec(terms=("AL_dA", "Ae_dAe"))
    target = oracles.gaussian_target(rank=1, channels=2, center=(0, 0, 1.5), sigma=0.8)
    Phi0, Pi0 = evolve.data_from_target(geom, target, 0.0)
    stored = oracles.stored_run(geom, bg, Phi0, Pi0, 0.0, 0.3, source=schematic(spec, geom, bg),
                                n_monitors=4)
    made, init = [], evolve.Evolver.__init__

    def tracked_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(evolve.Evolver, "__init__", tracked_init)
    seen = []

    def consumer(hist, t, Phi, Pi, slope):
        assert Phi is Phi0 and Pi is Pi0 and hist.geom is geom
        F, P = Phi.copy(), Pi.copy()
        want = stored.evolver.rhs(t, F.copy(), P.copy())
        assert all(np.array_equal(g, w) for g, w in zip(slope(), want))
        seen.append((t, F, P))

    hist = evolve.evolve_run(geom, bg, Phi0, Pi0, 0.0, 0.3, consumer, [].append,
                             source=schematic(spec, geom, bg),
                             n_monitors=4)
    assert hist.times == hist.fields == hist.dfields == []
    assert len(made) == 1 and not made[0]._work   # released after the last slope
    assert [t for t, _, _ in seen] == stored.times
    for (_, F, P), F_ref, P_ref in zip(seen, stored.fields, stored.dfields):
        assert np.array_equal(F, F_ref) and np.array_equal(P, P_ref)
    assert np.array_equal(geom.interior(Phi0), geom.interior(stored.fields[-1]))


# --- the held first slope -------------------------------------------------

def _slope_case(case):
    geom = GridGeometry(12, 4.0)
    rngl = np.random.default_rng(5)
    if case == "traveling-bump":
        bg, rank, kw = make_background("traveling-bump", epsilon=0.2, center=(0.5, 0.0, 0.0),
                                       radius=3.0, velocity=(0.3, 0.0, 0.0)), 0, {}
    else:
        bg, rank = BumpBackground(0.0), 1
        kw = {"source": schematic(evolve.SourceSpec(terms=("AL_dA", "Ae_dAe")), geom, bg)}
    shape = (4,) * rank + (2,) + (geom.n_full,) * 3
    Phi, Pi = 0.3 * rngl.normal(size=shape), 0.3 * rngl.normal(size=shape)
    return geom, lambda: evolve.Evolver(geom, bg, **kw), Phi, Pi


def _count_rhs(monkeypatch):
    calls, rhs = [], evolve.Evolver.rhs
    monkeypatch.setattr(evolve.Evolver, "rhs",
                        lambda self, t, *args, **kw: calls.append(t) or rhs(self, t, *args, **kw))
    return calls


@pytest.mark.parametrize("case", ["traveling-bump", "flat-schematic"])
def test_step_from_a_held_slope_is_a_plain_step(monkeypatch, case):
    geom, make, Phi, Pi = _slope_case(case)
    t, dt = 0.3, 0.4 * geom.dx
    want = make().step(t, Phi.copy(), Pi.copy(), dt)
    k1 = make().rhs(t, Phi.copy(), Pi.copy())
    calls = _count_rhs(monkeypatch)
    ev, P, Q = make(), Phi.copy(), Pi.copy()
    slope = ev.slope(t, P, Q)
    again = ev.slope(t, P, Q)                     # held: no second right-hand side
    assert calls == [t]
    for a, b, c in zip(slope, again, k1):
        assert np.shares_memory(a, b) and np.array_equal(a, c)
    got = ev.step(t, P, Q, dt)
    assert calls == [t, t + 0.5 * dt, t + 0.5 * dt, t + dt]
    assert got[0] is P and got[1] is Q
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert ev._held is None


@pytest.mark.parametrize("other", ["arrays", "time", "release"])
def test_slope_held_for_other_arrays_or_time_is_not_reused(monkeypatch, other):
    geom, make, Phi, Pi = _slope_case("traveling-bump")
    t, dt = 0.3, 0.4 * geom.dx
    want = make().step(t, Phi.copy(), Pi.copy(), dt)
    calls = _count_rhs(monkeypatch)
    ev, P, Q = make(), Phi.copy(), Pi.copy()
    if other == "arrays":
        ev.slope(t, 2.0 * P, Q.copy())
    elif other == "time":
        ev.slope(t + dt, P, Q)
    else:
        ev.slope(t, P, Q)
        ev._release()
        assert ev._held is None
    got = ev.step(t, P, Q, dt)
    assert len(calls) == 5
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


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
        for bg in (BumpBackground(0.0), bump):
            # per-entry reference: every d_a d_b evaluated on its own
            Hf = None if bg.is_flat() else dense_H(bg, geom, t)[0]
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
            got = fresh_source(evolve.manufactured_source(target, bg, geom), t,
                               np.zeros(want.shape))
            monkeypatch.undo()
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - finished(want, np.zeros(want.shape)))) <= 1e-12 * scale
            assert columns == [4 if bg.is_flat() else 10] * target.size


@pytest.mark.parametrize("family", ["zero", "static-bump", "traveling-bump"])
def test_manufactured_source_from_hessian_terms_equals_direction_form(family):
    geom = GridGeometry(12, 4.0)
    bg = make_background(family, epsilon=0.2, center=(0.0, 0.5, 0.3), radius=3.0)
    gauss = oracles.gaussian_target(rank=1, channels=2, center=(0.2, -0.1, 0.4), sigma=1.1,
                                   poly=Poly.const(1.0) + Poly.var(0) * Poly.var(1))
    poly = np.empty((1,), dtype=object)
    x0, x1, x2, x3 = (Poly.var(a) for a in range(4))
    poly[0] = x0 * x0 * x1 + x2 * x3 * x3 * x3 + x0 * x2
    rngl = np.random.default_rng(29)
    for target in (gauss, poly):
        got = evolve.manufactured_source(target, bg, geom)
        want = oracles.manufactured_source_from_direction(target, bg, geom)
        dPi = rngl.normal(size=target.shape + (geom.n_full,) * 3)
        dPi[..., :3, :, :] = -0.0
        for t, g00 in ((0.0, -1.0), (0.4, _g00(geom, bg, 0.4))):
            got_dPi = fresh_source(got, t, dPi.copy(), g00=g00)
            want_dPi = finished(want(t), dPi.copy(), g00)
            assert np.array_equal(got_dPi.view(np.int64), want_dPi.view(np.int64))


# --- RK4 step with reused work arrays against the expression form ------------

def _rk4_expression(ev, t, Phi, Pi, dt):
    k1 = ev.rhs(t, Phi, Pi)
    k2 = ev.rhs(t + 0.5 * dt, Phi + 0.5 * dt * k1[0], Pi + 0.5 * dt * k1[1])
    k3 = ev.rhs(t + 0.5 * dt, Phi + 0.5 * dt * k2[0], Pi + 0.5 * dt * k2[1])
    k4 = ev.rhs(t + dt, Phi + dt * k3[0], Pi + dt * k3[1])
    Phi_new = Phi + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    Pi_new = Pi + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return Phi_new, Pi_new


@pytest.mark.parametrize("case", ["flat-schematic", "static-bump", "traveling-bump",
                                  "periodic"])
def test_step_bit_identical_to_expression_rk4(case):
    geom = GridGeometry(12, 4.0)
    bump = dict(epsilon=0.2, center=(0.5, 0.0, 0.0), radius=3.0)
    spec = evolve.SourceSpec(terms=evolve.SCHEMATIC_TERMS)
    if case == "flat-schematic":
        bg = BumpBackground(0.0)
        ev, lead = evolve.Evolver(geom, bg, source=schematic(spec, geom, bg)), (4, 2)
    elif case == "static-bump":
        bg = make_background("static-bump", **bump)
        target = oracles.gaussian_target(center=(0, 0, 1.0), sigma=1.0)
        ev = evolve.Evolver(geom, bg, source=evolve.manufactured_source(target, bg, geom))
        lead = (1,)
    elif case == "traveling-bump":
        bg = make_background("traveling-bump", **bump)
        ev = evolve.Evolver(geom, bg, source=schematic(spec, geom, bg))
        lead = (4, 1)
    else:
        ev, lead = evolve.Evolver(geom, BumpBackground(0.0), boundary="periodic"), (2,)
    shape = lead + (geom.n_full,) * 3
    rngl = np.random.default_rng(5)
    Phi, Pi = 0.3 * rngl.normal(size=shape), 0.3 * rngl.normal(size=shape)
    t, dt = 0.2, 0.4 * geom.dx
    for _ in range(2):  # the second step reuses the first one's work arrays
        want = _rk4_expression(ev, t, Phi.copy(), Pi.copy(), dt)
        got = ev.step(t, Phi, Pi, dt)
        assert got[0] is Phi and got[1] is Pi  # advanced in place
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        (Phi, Pi), t = got, t + dt


# --- build_source with kept work arrays against the allocating form ----------

def _build_source_reference(spec, geom, bg, t, Phi, Pi):
    """The allocating form of build_source, the oracle for its work-array
    form: every array freshly allocated, the source from np.zeros."""
    if Phi.ndim != 5:
        raise ValueError("schematic sources need a rank-1 evolved field")
    ch = Phi.shape[1]
    n = geom.n_full
    S = np.zeros((4, ch, n, n, n))
    if not spec.terms:
        return S
    s = Phi[0]                       # designated scalar part of A
    ds = np.empty((4, ch, n, n, n))
    ds[0] = Pi[0]
    for i in (1, 2, 3):
        d1_axis(s, i, geom.dx, out=ds[i])
    L = geom.frame("L")
    tmp = np.empty_like(S)

    def add(x, y):
        np.add(S, np.multiply(x, y, out=tmp), out=S)

    if {"A_tangA", "dh_tangA"} & set(spec.terms):
        Ls = L[0] * ds[0]            # L-derivative of the scalar part
        for i in (1, 2, 3):
            Ls = Ls + L[i] * ds[i]

    need_h = {"dh_tangA", "tangh_dA", "dh_A2", "dh_TU_sq", "bigO_h_dA"} & set(spec.terms)
    if need_h:
        h_tt, dh_tt = evolve._h_component_and_grad(geom, bg, t)
        # Background is time-analytic; the L-transport of h uses dh directly.
        Lh = L[0] * dh_tt[0]
        for i in (1, 2, 3):
            Lh = Lh + L[i] * dh_tt[i]

    proj = {}
    dproj = {}
    if {"Ae_dAe", "dAe_sq"} & set(spec.terms):
        for name in ("e1", "e2"):
            V = geom.frame(name)
            pv = np.einsum("m...,mc...->c...", V, Phi)
            dp = np.empty((4, ch, n, n, n))
            dp[0] = np.einsum("m...,mc...->c...", V, Pi)
            for i in (1, 2, 3):
                d1_axis(pv, i, geom.dx, out=dp[i])
            proj[name] = pv
            dproj[name] = dp

    for term in spec.terms:
        if term == "A3":
            add((s * s)[None, :], Phi)
        elif term == "AL_dA":
            A_L = np.einsum("m...,mc...->c...", L, Phi)
            add(A_L[None, :], ds)
        elif term == "Ae_dAe":
            for name in ("e1", "e2"):
                add(proj[name][None, :], dproj[name])
        elif term == "A_tangA":
            add(Phi, Ls[None, :])
        elif term == "dh_tangA":
            add(dh_tt[:, None], Ls[None, :])
        elif term == "tangh_dA":
            add(Lh[None, None], ds)
        elif term == "dh_A2":
            add(dh_tt[:, None], (s * s)[None, :])
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
            series = np.zeros_like(h_tt)
            power = np.ones_like(h_tt)
            for _ in range(spec.bigO_degree):
                series = series + power
                power = power * h_tt
            add((h_tt * series)[None, None], ds)
    return S


def _source_state(geom, rngl):
    """Random rank-1 state and d_t Pi with zero ghosts and blocks of +0.0
    and -0.0."""
    shape = (4, 2) + (geom.n_full,) * 3
    Phi, Pi, dPi = (0.4 * rngl.normal(size=shape) for _ in range(3))
    for U in (Phi, Pi, dPi):
        fill_ghosts_array(U, "zero")
        U[:, :, 3:6, 3:6, :] = 0.0
        U[:, :, -6:-3, :, 3:6] = -0.0
    return Phi, Pi, dPi


def _g00(geom, bg, t):
    """g^{tt} = -1 + chi M^{tt} on the full cube."""
    return -1.0 + bg.profile(geom, t)[0] * bg.direction[0, 0]


@pytest.mark.parametrize("family", ["zero", "traveling-bump"])
@pytest.mark.parametrize("term", evolve.SCHEMATIC_TERMS + ("all",))
def test_build_source_work_arrays_bit_identical(family, term):
    """The source added into d_t Pi with kept work arrays is the allocating
    form's S finished as the right-hand side finished it (S /= g^{tt};
    dPi += S), bit for bit, signed zeros included."""
    bg = make_background(family, epsilon=0.2, center=(0.5, 0.0, 0.0), radius=2.5)
    spec = evolve.SourceSpec(terms=evolve.SCHEMATIC_TERMS if term == "all" else (term,))
    work = evolve.Evolver(GridGeometry(8, 3.0), bg)._buffer
    rngl = np.random.default_rng(17)
    for _ in range(2):  # consecutive calls on two interleaved geometries
        for geom in (GridGeometry(8, 3.0), GridGeometry(12, 4.0)):
            Phi, Pi, dPi = _source_state(geom, rngl)
            for g00 in (-1.0, _g00(geom, bg, 0.3)):
                want = finished(_build_source_reference(spec, geom, bg, 0.3, Phi, Pi),
                                dPi.copy(), g00)
                got = dPi.copy()
                evolve.build_source(spec, geom, bg, 0.3, Phi, Pi, work, in_order, got, g00)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


# --- h and the CFL speed on the support box against the dense tensors --------

def _dense_h_component_and_grad(geom, bg, t, work=None):
    """The dense body of _h_component_and_grad (its oracle): n^3 pointwise
    inverses of m + H and the gradient -g_cov (dH) g_cov, tt component.
    Fresh arrays: ``work`` is ignored."""
    n = geom.n_full
    if bg.is_flat():
        return np.zeros((n, n, n)), np.zeros((4, n, n, n))
    Hf, dHf = dense_H(bg, geom, t)
    g_up = MINKOWSKI_INV[:, :, None, None, None] + Hf
    flat = np.moveaxis(g_up, (0, 1), (-2, -1)).reshape(-1, 4, 4)
    g_cov = np.linalg.inv(flat)
    dflat = np.moveaxis(dHf, (1, 2), (-2, -1)).reshape(4, -1, 4, 4)
    h = (g_cov[:, 0, 0] - MINKOWSKI[0, 0]).reshape(n, n, n)
    grad = np.empty((4, n, n, n))
    for lam in range(4):
        gdg = -np.einsum("nij,njk,nkl->nil", g_cov, dflat[lam], g_cov)
        grad[lam] = gdg[:, 0, 0].reshape(n, n, n)
    return h, grad


def _dense_max_speed(geom, bg, t):
    """The dense Gershgorin bound of max_characteristic_speed (its oracle)."""
    if bg.is_flat():
        return 1.0
    g = MINKOWSKI_INV[:, :, None, None, None] + dense_H(bg, geom, t)[0]
    gtt = -g[0, 0]
    b = np.sqrt(sum(g[0, j] ** 2 for j in (1, 2, 3)))
    lam = np.max(np.abs(g[1:, 1:]).sum(axis=1), axis=0)
    c = (b + np.sqrt(b ** 2 + gtt * lam)) / gtt
    return float(np.max(c))


# Bumps on GridGeometry(12, 4.0), whose axis runs over [-5, 5] with ghost
# nodes beyond |x| = 3.67.  A direction of -I slows light down: with the
# ball over the whole cube every cell's speed bound is below 1, and with
# the box on one node the bound of the cube is the 1 of the cells off it.
H_BOXES = {
    "centred": dict(center=(0.0, 0.0, 0.0), radius=3.0),
    "clipped": dict(center=(3.9, -0.2, -3.6), radius=2.0),
    "ghost-layers": dict(center=(2.5, 0.0, 0.0), radius=2.2),
    "whole-cube-box": dict(center=(0.0, 0.0, 0.0), radius=6.0),
    "ball-covers-cube": dict(center=(0.0, 0.0, 0.0), radius=9.0),
    "slow-ball-covers-cube": dict(center=(0.0, 0.0, 0.0), radius=9.0,
                                  direction=-np.eye(4)),
    "slow-single-cell": dict(center=(1 / 3, 1 / 3, 1 / 3), radius=0.3,
                             direction=-np.eye(4)),
    "off-grid": dict(center=(20.0, 0.0, 0.0), radius=2.0),
}
_CUBE_BOXES = ("whole-cube-box", "ball-covers-cube", "slow-ball-covers-cube")


@pytest.mark.parametrize("case", sorted(H_BOXES))
@pytest.mark.parametrize("epsilon", [0.25, -0.25])
@pytest.mark.parametrize("velocity", [(0.0, 0.0, 0.0), (0.3, -0.2, 0.1)])
def test_h_and_speed_on_support_box_match_dense(case, epsilon, velocity):
    geom, t = GridGeometry(12, 4.0), 0.4
    bg = BumpBackground(epsilon, velocity=velocity, **H_BOXES[case])
    sup = bg.support(geom, t)
    assert (sup is None) == (case == "off-grid")
    if sup is not None:
        touches = [(b.start, b.stop) for b in sup[0]]
        assert (sup[1].size == 1) == (case == "slow-single-cell")
        assert (sup[1].size == geom.n_full ** 3) == (case in _CUBE_BOXES)
        assert any(lo < GHOST or hi > geom.n_full - GHOST for lo, hi in touches) \
            == (case not in ("centred", "slow-single-cell"))
        assert any(lo == 0 or hi == geom.n_full for lo, hi in touches) \
            == (case in ("clipped",) + _CUBE_BOXES)
    h, dh = evolve._h_component_and_grad(geom, bg, t)
    h_ref, dh_ref = _dense_h_component_and_grad(geom, bg, t)
    assert np.array_equal(h, h_ref)
    assert np.max(np.abs(dh - dh_ref)) <= 1e-14 * np.max(np.abs(dh_ref))
    assert (case == "off-grid") == (not np.any(dh_ref))
    speed = evolve.max_characteristic_speed(geom, bg, t)
    assert speed == _dense_max_speed(geom, bg, t)
    assert (speed < 1.0) == (case == "slow-ball-covers-cube" and epsilon > 0)


def test_static_bump_h_sources_evolve_as_with_dense_h(monkeypatch):
    from framewave import energy
    from framewave.weights import WeightParams

    geom = GridGeometry(12, 4.0)
    bg = make_background("static-bump", epsilon=0.2, center=(0.5, 0.0, 0.0), radius=3.0)
    target = oracles.gaussian_target(rank=1, channels=1, amplitude=0.1,
                                    center=(0, 0, 1.0), sigma=1.0)
    Phi0, Pi0 = evolve.data_from_target(geom, target, 0.0)
    spec = evolve.SourceSpec(terms=("dh_tangA", "tangh_dA", "dh_TU_sq", "bigO_h_dA"))
    region = energy.ExteriorRegion(q0=float("-inf"))
    params = WeightParams(0.5, -0.25)

    def run():
        events = []
        hist = oracles.stored_run(geom, bg, Phi0, Pi0, 0.0, 0.4, source=schematic(spec, geom, bg),
                                 cfl=0.4, n_monitors=3, log=events.append)
        series = [component_series(hist, c) for c in ("L", "Lbar", "e1")]
        return events, np.array([[energy.slice_energy(s.state(k), region, params, "w")
                                  for k in range(len(hist.times))] for s in series])

    events, energies = run()
    monkeypatch.setattr(evolve, "_h_component_and_grad", _dense_h_component_and_grad)
    events_ref, energies_ref = run()
    assert [e["step"] for e in events] == [e["step"] for e in events_ref]
    assert [e["cfl"] for e in events] == [e["cfl"] for e in events_ref]
    assert np.all(energies > 0)
    assert np.max(np.abs(energies - energies_ref)) <= 1e-13 * np.max(np.abs(energies_ref))


@pytest.mark.parametrize("rank, channels, N, data", [
    (0, 1, 8, {"amplitude": 1, "center": [0, 0, 3], "sigma": 1}),
    (1, 2, 12, {"amplitude": 0.5, "center": [0.3, -0.1, 3.5], "sigma": 0.8}),
    (2, 1, 18, {"amplitude": -0.1, "center": [1, 0.25, 0], "sigma": 1.5}),
    (1, 1, 44, {"amplitude": 0.5, "center": [0.2, -0.4, 3.7], "sigma": 1}),
])
def test_gaussian_data_is_the_sampled_gaussian_target(rank, channels, N, data):
    """The "gaussian" family's one profile equals the exact GaussPoly
    target sampled on every node, bit for bit (signed zeros included)."""
    geom = GridGeometry(N, 6.0)
    cfg = {"data": {"family": "gaussian", "rank": rank, "channels": channels, **data},
           "times": {"t1": 0.25}}
    Phi0, Pi0 = evolve._initial_data(cfg, geom)
    target = oracles.gaussian_target(rank=rank, channels=channels, amplitude=data["amplitude"],
                                     center=tuple(data["center"]), sigma=data["sigma"])
    want = evolve.sample_scalars(geom, target, 0.25)
    assert Phi0.shape == want.shape and np.array_equal(Phi0.view(np.int64), want.view(np.int64))
    assert not Pi0.any()


# --- state update in place, monitors and allocations -------------------------

@pytest.mark.parametrize("boundary", ["sommerfeld", "periodic"])
def test_monitor_max_abs_reads_solution_cells_only(monkeypatch, boundary):
    geom = GridGeometry(12, 4.0)
    if boundary == "periodic":
        Phi0, Pi0 = evolve.plane_wave_data(geom, kvec=(1, 1, 0))
    else:
        target = oracles.gaussian_target(amplitude=0.8, center=(0, 0.5, 0), sigma=0.9)
        Phi0, Pi0 = evolve.data_from_target(geom, target, 0.0)

    def run():
        events = []
        hist = oracles.stored_run(geom, BumpBackground(0.0), Phi0, Pi0, 0.0, 0.4,
                                 boundary=boundary, n_monitors=3, log=events.append)
        mons = [e["max_abs"] for e in events if e["event"] == "monitor"]
        assert len(mons) == 2
        return zip(mons, hist.fields[1:])

    if boundary == "sommerfeld":
        for max_abs, F in run():  # zero ghosts: the full-array maximum as before
            assert max_abs == float(np.max(np.abs(F)))
    step = evolve.Evolver.step

    def leave_ghost_scratch(self, t, Phi, Pi, dt):
        out = step(self, t, Phi, Pi, dt)
        for U in out:  # leftovers larger than any solution value
            inner = geom.interior(U).copy()
            U[...] = 7.0
            geom.interior(U)[...] = inner
        return out

    monkeypatch.setattr(evolve.Evolver, "step", leave_ghost_scratch)
    for max_abs, F in run():
        assert max_abs == float(np.max(np.abs(geom.interior(F)))) < 7.0


def test_flat_schematic_step_allocates_no_full_array():
    import tracemalloc

    geom = GridGeometry(32, 6.0)
    spec = evolve.SourceSpec(terms=("AL_dA", "Ae_dAe"))
    bg = BumpBackground(0.0)
    ev = evolve.Evolver(geom, bg, source=schematic(spec, geom, bg))
    rngl = np.random.default_rng(9)
    shape = (4, 1) + (geom.n_full,) * 3
    Phi, Pi = 0.3 * rngl.normal(size=shape), 0.3 * rngl.normal(size=shape)
    dt = 0.4 * geom.dx
    ev.step(0.0, Phi, Pi, dt)  # warm-up: work arrays and the shell plan
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = ev.step(dt, Phi, Pi, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < Phi.nbytes
    assert got[0] is Phi and got[1] is Pi


def test_flat_schematic_source_keeps_13_fields_of_work_arrays():
    """Rank 1, one channel, AL_dA + Ae_dAe: the three projections and, per
    half of the rows, the row sum, the product and the rows of ds, dA_e1
    and dA_e2.  S, the whole 4-gradients and a scratch per half were 21."""
    geom = GridGeometry(16, 4.0)
    spec = evolve.SourceSpec(terms=("AL_dA", "Ae_dAe"))
    bg = BumpBackground(0.0)
    ev = evolve.Evolver(geom, bg, source=schematic(spec, geom, bg))
    shape = (4, 1) + (geom.n_full,) * 3
    rngl = np.random.default_rng(9)
    ev.step(0.0, 0.3 * rngl.normal(size=shape), 0.3 * rngl.normal(size=shape), 0.4 * geom.dx)
    kept = sum(a.size for name, a in ev._work.items() if name.startswith("source."))
    assert kept <= 13 * geom.n_full ** 3


def test_static_bump_step_allocates_no_full_array():
    import tracemalloc

    geom = GridGeometry(32, 8.0)
    bg = make_background("static-bump", epsilon=0.1, center=(0.0, 0.0, 2.0), radius=3.0)
    ev = evolve.Evolver(geom, bg)
    rngl = np.random.default_rng(13)
    shape = (1,) + (geom.n_full,) * 3
    Phi, Pi = 0.3 * rngl.normal(size=shape), 0.3 * rngl.normal(size=shape)
    dt = 0.4 * geom.dx
    ev.step(0.0, Phi, Pi, dt)  # warm-up: work arrays and the shell plan
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = ev.step(dt, Phi, Pi, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < Phi.nbytes
    assert got[0] is Phi and got[1] is Pi


@pytest.mark.parametrize("rank, channels", [(0, 1), (1, 2)])
def test_flat_sommerfeld_rhs_ghosts_are_positive_zero(rank, channels):
    geom = GridGeometry(12, 4.0)
    spec = evolve.SourceSpec(terms=("AL_dA", "Ae_dAe")) if rank == 1 else None
    bg = BumpBackground(0.0)
    ev = evolve.Evolver(geom, bg, source=None if spec is None else schematic(spec, geom, bg))
    shape = (4,) * rank + (channels,) + (geom.n_full,) * 3
    rngl = np.random.default_rng(3)
    Phi, Pi = rngl.normal(size=shape), rngl.normal(size=shape)
    ghosts = np.ones(shape, dtype=bool)
    geom.interior(ghosts)[...] = False
    for d in ev.rhs(0.1, Phi, Pi):
        assert np.all(d[ghosts] == 0.0) and not np.any(np.signbit(d[ghosts]))


# --- bump right-hand side on the support box against the full-cube form -----

def _rhs_full_cube(ev, source, t, Phi, Pi, one_pass=False):
    """The full-cube bump branch of Evolver.rhs, the oracle for its
    support-box form: every H term, the product with chi and the division
    by -g^{tt} over the whole cube, the flat part from three d2_axis
    calls (from the one-pass Laplacian if ``one_pass``), and the S of
    ``source(t, Phi, Pi)``, an allocating reference of the evolver's
    source, divided by g^{tt} and added."""
    geom, dx = ev.geom, ev.geom.dx
    fill_ghosts_array(Phi, ev._ghost_mode)
    fill_ghosts_array(Pi, ev._ghost_mode)
    dPhi, dPi = np.empty(Phi.shape), np.empty(Phi.shape)
    tmp = np.empty(Phi.shape)
    chi, _ = ev.bg.profile(geom, t)
    g00 = -1.0 + chi * ev.bg.direction[0, 0]
    d2 = {i: d2_axis(Phi, i, dx) for i in (1, 2, 3)}
    terms = [(a, b, c) for a, b, c in ev.bg.hessian_terms if b]   # H^{tt} is in g00
    grads = {a: d1_axis(Phi, a, dx) for a in {a for a, b, _ in terms if 0 < a < b}}
    acc = np.zeros(Phi.shape)
    for a, b, c in terms:
        if a == 0:
            term = d1_axis(Pi, b, dx, out=tmp)
        elif a == b:
            term = d2[a]
        else:
            term = d1_axis(grads[a], b, dx, out=tmp)
        acc += np.multiply(term, c, out=tmp)
    if one_pass:
        _laplacian(Phi, dx, out=dPi)
    else:
        np.add(d2[1], d2[2], out=dPi)
        dPi += d2[3]
    acc *= chi
    dPi += acc
    dPi /= -g00
    if source is not None:
        finished(source(t, Phi, Pi), dPi, g00)
    np.copyto(dPhi, Pi)
    if ev.boundary != "periodic":
        oracles.full_cube_shell(geom, Phi, Pi, dPhi, dPi)
    return dPhi, dPi


RHS_BUMPS = {
    "centred": dict(family="static-bump", epsilon=0.2, center=(0.1, -0.2, 0.3)),
    "centred-negative": dict(family="static-bump", epsilon=-0.2, center=(0.1, -0.2, 0.3)),
    "ghost-layers": dict(family="static-bump", epsilon=0.2, center=(3.9, -3.8, 0.0)),
    "off-grid": dict(family="static-bump", epsilon=0.2, center=(20.0, 0.0, 0.0)),
    "traveling": dict(family="traveling-bump", epsilon=-0.2, center=(-0.5, 0.3, 0.0),
                      velocity=(0.4, -0.3, 0.2)),
}


def _rhs_case(case, bump):
    """(evolver, field shape, allocating reference of its source or None)."""
    geom = GridGeometry(12, 4.0)
    bg = make_background(radius=3.0, **RHS_BUMPS[bump])
    rank, channels, kwargs, ref = 0, 1, {}, None
    if case == "schematic":
        rank, channels = 1, 2
        spec = evolve.SourceSpec(terms=("AL_dA", "dh_tangA", "bigO_h_dA"))
        kwargs["source"] = schematic(spec, geom, bg)
        ref = functools.partial(_build_source_reference, spec, geom, bg)
    elif case == "manufactured":
        target = oracles.gaussian_target(center=(0.0, 0.5, 1.0), sigma=1.0)
        kwargs["source"] = evolve.manufactured_source(target, bg, geom)
        direct = oracles.manufactured_source_from_direction(target, bg, geom)

        def ref(t, Phi, Pi):
            return direct(t)
    elif case == "periodic":
        channels, kwargs["boundary"] = 2, "periodic"
    shape = (4,) * rank + (channels,) + (geom.n_full,) * 3
    return evolve.Evolver(geom, bg, **kwargs), shape, ref


@pytest.mark.parametrize("case", ["scalar", "schematic", "manufactured", "periodic"])
@pytest.mark.parametrize("bump", sorted(RHS_BUMPS))
def test_rhs_support_box_matches_full_cube(case, bump):
    ev, shape, ref = _rhs_case(case, bump)
    geom = ev.geom
    sup = ev.bg.support(geom, 0.2)
    if bump == "off-grid":
        assert sup is None
    else:  # the ghost-layers box reaches past the solution cells
        reach = any(s.start < GHOST or s.stop > geom.n_full - GHOST for s in sup[0])
        assert reach == (bump == "ghost-layers")
    rngl = np.random.default_rng(23)
    Phi, Pi = rngl.normal(size=shape), rngl.normal(size=shape)
    dt = 0.4 * geom.dx
    for t in (0.2, 0.2 + 0.5 * dt, 0.2 + dt):  # the RK stage times of one step
        want = _rhs_full_cube(ev, ref, t, Phi.copy(), Pi.copy())
        exact = _rhs_full_cube(ev, ref, t, Phi.copy(), Pi.copy(), one_pass=True)
        U = Phi.copy()
        fill_ghosts_array(U, ev._ghost_mode)
        scale = np.max(np.abs(sum(d2_axis(U, i, geom.dx) for i in (1, 2, 3))))
        for _ in range(2):  # the second call reuses the first one's work arrays
            got = ev.rhs(t, Phi.copy(), Pi.copy())
            for g, w, e in zip(got, want, exact):
                assert np.array_equal(g, e)
                assert np.array_equal(np.signbit(g), np.signbit(e))
                # the one-pass Laplacian moves the three-pass sum by roundoff
                # on the solution cells (with periodic ghosts the three
                # passes also leave values in the ghost layers, which are
                # scratch that the next ghost fill overwrites)
                diff = geom.interior(g) - geom.interior(w)
                assert np.max(np.abs(diff)) <= 1e-14 * scale
