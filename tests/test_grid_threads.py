"""One grid run on two threads: the evolver's kept worker thread and its map.

A right-hand side and RK4 steps computed with two usable cores must be the
same bits as with one (signed zeros included), the map keeps the contract
of ``certify._fork_map``, no thread outlives ``evolve_run``, and a conserve
run through the fork map writes the same bytes on one core and two.
"""

import json
import math
import os
import sys
import threading

import numpy as np
import pytest

from framewave import cli, evolve, fields
from framewave.background import BumpBackground, make_background
from framewave.errors import NonFiniteResult
from framewave.fields import GridGeometry, fill_ghosts_array

from oracles import gaussian_target, schematic
from test_cli import DETERMINISM_CONFIGS, _write

BUMP = dict(epsilon=0.2, center=(0.5, 0.0, 0.0), radius=3.0)
ALL_TERMS = evolve.SourceSpec(terms=evolve.SCHEMATIC_TERMS)

# name: (background, rank, channels, evolver keywords or the name of the source)
CASES = {
    "zero-all-terms-1": ("zero", 1, 1, "all-terms"),
    "zero-all-terms-3": ("zero", 1, 3, "all-terms"),
    "static-all-terms-1": ("static-bump", 1, 1, "all-terms"),
    "static-all-terms-3": ("static-bump", 1, 3, "all-terms"),
    "traveling-all-terms-1": ("traveling-bump", 1, 1, "all-terms"),
    "traveling-all-terms-3": ("traveling-bump", 1, 3, "all-terms"),
    "manufactured-rank1": ("static-bump", 1, 1, "manufactured"),
    "manufactured-rank0-3": ("traveling-bump", 0, 3, "manufactured"),
    **{f"{bg}-rank{rank}-{ch}": (bg, rank, ch, {})
       for bg in ("zero", "static-bump", "traveling-bump")
       for rank in (0, 1, 2) for ch in (1, 3)},
    **{f"periodic-rank{rank}-{ch}": ("zero", rank, ch, dict(boundary="periodic"))
       for rank in (0, 1, 2) for ch in (1, 3)},
}


def _evolver(geom, case):
    family, rank, channels, kw = CASES[case]
    bg = make_background(family, **BUMP)
    if kw == "all-terms":
        kw = dict(source=schematic(ALL_TERMS, geom, bg))
    elif kw == "manufactured":
        target = gaussian_target(rank=rank, channels=channels,
                                        center=(0, 0, 1.0), sigma=1.0)
        kw = dict(source=evolve.manufactured_source(target, bg, geom))
    return evolve.Evolver(geom, bg, **kw), (4,) * rank + (channels,)


def _state(geom, lead, seed=11):
    """Random state with zero ghosts and blocks of +0.0 and -0.0."""
    rngl = np.random.default_rng(seed)
    shape = lead + (geom.n_full,) * 3
    Phi, Pi = 0.3 * rngl.normal(size=shape), 0.3 * rngl.normal(size=shape)
    for U in (Phi, Pi):
        fill_ghosts_array(U, "zero")
        U[..., 3:6, 3:6, :] = 0.0
        U[..., -6:-3, :, 3:6] = -0.0
    return Phi, Pi


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.int64)


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_core_and_two_give_the_same_bits(monkeypatch, case):
    geom, t, runs = GridGeometry(8, 3.0), 0.2, {}
    for cores in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
        ev, lead = _evolver(geom, case)
        Phi, Pi = _state(geom, lead)
        split = math.prod(lead) > 1
        out = [_bits(d).copy() for d in ev.rhs(t, Phi, Pi)]
        threaded = ev._pair._thread is not None
        dt = 0.4 * geom.dx
        for k in range(2):   # the second step reuses the first one's work arrays
            ev.step(t + k * dt, Phi, Pi, dt)
            out += [_bits(Phi).copy(), _bits(Pi).copy()]
        ev._pair.stop()
        runs[len(cores)] = out, threaded
    (one, one_threaded), (two, two_threaded) = runs[1], runs[2]
    assert not one_threaded
    assert two_threaded == split   # a field of one component is one item
    for a, b in zip(one, two):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("boundary", ["sommerfeld", "periodic"])
@pytest.mark.parametrize("family", ["zero", "static-bump", "traveling-bump"])
@pytest.mark.parametrize("lead", [(4, 1), (3,)])
def test_split_rhs_matches_one_component_at_a_time(monkeypatch, boundary, family, lead):
    """Without a source the components do not couple: the split right-hand
    side of a stacked field (the shell on the other thread, written after
    the rows) is the stack of the one-item right-hand sides of its
    components, bit for bit."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    geom, t = GridGeometry(8, 3.0), 0.2
    ev = evolve.Evolver(geom, make_background(family, **BUMP), boundary=boundary)
    Phi, Pi = _state(geom, lead)
    got = [_bits(d).copy() for d in ev.rhs(t, Phi.copy(), Pi.copy())]
    assert ev._pair._thread is not None
    ev._pair.stop()
    for idx in np.ndindex(lead):
        one = idx[:-1] + (slice(idx[-1], idx[-1] + 1),)
        want = ev.rhs(t, Phi[one].copy(), Pi[one].copy())
        for g, w in zip(got, want):
            assert np.array_equal(g.reshape(Phi.shape)[one], _bits(w))
    assert ev._pair._thread is None   # one component is one item


def test_pair_map_claims_each_item_once_in_item_order(monkeypatch):
    """Many short maps with a tiny switch interval: every item runs
    exactly once and its result lands in its own place."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pair, runs = evolve._Pair(), np.zeros(200, dtype=int)

    def fn(k):
        runs[k] += 1      # each item's own counter: two claims of k would show
        return -k

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            runs[:] = 0
            assert pair.map(fn, list(range(200))) == [-k for k in range(200)]
            assert np.all(runs == 1)
        thread = pair._thread
        assert thread is not None and thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        pair.stop()
    thread.join(30)
    assert not thread.is_alive() and pair._thread is None


@pytest.mark.parametrize("cores, n", [({0}, 5), ({0, 1}, 1), ({0, 1}, 0)])
def test_pair_map_is_a_loop_here_without_a_second_core_or_item(monkeypatch, cores, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    pair = evolve._Pair()
    here = threading.get_ident()
    assert pair.map(lambda k: (k, threading.get_ident()), list(range(n))) == \
        [(k, here) for k in range(n)]
    assert pair._thread is None


class WorkerError(RuntimeError):
    pass


def test_pair_worker_exception_arrives_with_its_type(monkeypatch):
    """The worker claims an item while this thread waits for it, and its
    exception is raised here once both are done."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pair, claimed, main = evolve._Pair(), threading.Event(), threading.get_ident()

    def fn(k):
        if threading.get_ident() == main:
            claimed.wait(30)
            return k
        claimed.set()
        raise WorkerError(f"item {k}")

    try:
        with pytest.raises(WorkerError, match="item"):
            pair.map(fn, [0, 1])
        assert claimed.is_set()
        assert pair.map(lambda k: k + 1, [1, 2, 3]) == [2, 3, 4]   # still serves
    finally:
        pair.stop()


def _rank1_run(consumer):
    geom = GridGeometry(8, 3.0)
    Phi, Pi = _state(geom, (4, 1))
    bg = BumpBackground(0.0)
    return evolve.evolve_run(geom, bg, Phi, Pi, 0.0, 0.3, consumer, [].append,
                             source=schematic(evolve.SourceSpec(terms=("AL_dA", "Ae_dAe")),
                                              geom, bg),
                             n_monitors=3)


@pytest.mark.parametrize("failure", ["non-finite", "consumer"])
def test_no_thread_outlives_a_failing_run(monkeypatch, failure):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    before = threading.active_count()
    calls = []

    def consumer(hist, t, Phi, Pi, slope):
        calls.append(t)
        if len(calls) == 2:
            if failure == "consumer":
                raise WorkerError("consumer")
            Phi[0, 0, 5, 5, 5] = np.nan   # the next monitor sees it
        slope()     # the first slope of the next step, on both threads

    with pytest.raises(NonFiniteResult if failure == "non-finite" else WorkerError):
        _rank1_run(consumer)
    assert len(calls) == 2
    assert threading.active_count() == before


def test_no_thread_outlives_a_run(monkeypatch):
    """A run starts one worker thread, which serves every step and the
    last monitor's slope and ends with the run."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    before, seen, starts = threading.active_count(), [], []
    serve = evolve._Pair._serve
    monkeypatch.setattr(evolve._Pair, "_serve", lambda pair: (starts.append(1), serve(pair)))

    def consumer(hist, t, Phi, Pi, slope):
        slope()
        seen.append(threading.active_count())

    _rank1_run(consumer)
    assert max(seen) == before + 1        # the run's worker thread, while it ran
    assert len(starts) == 1
    assert threading.active_count() == before


def test_conserve_on_two_cores_matches_one_core(tmp_path, capsys, monkeypatch):
    """A rank-1 conserve on two cores runs its resolutions through the
    fork map, each grid run on two threads; the files are the same bytes
    as a one-core run."""
    body = {"mode": "conserve", **DETERMINISM_CONFIGS["conserve"],
            "data": {"family": "gaussian", "rank": 1, "channels": 1,
                     "center": [0, 0, 1.5], "sigma": 0.8},
            "source": {"terms": ["AL_dA", "Ae_dAe"]},
            "components": ["L", "e1"]}
    path = _write(tmp_path, body)
    runs = {}
    for cores in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
        out = tmp_path / str(len(cores))
        assert cli.main(["conserve", "--config", path, "--out", str(out),
                         "--seed", "77", "--refine", "2"]) == 0
        runs[len(cores)] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        capsys.readouterr()
    assert runs[1].keys() == runs[2].keys()
    for name in runs[1]:
        assert runs[1][name] == runs[2][name], name
    assert json.loads(runs[2]["conserve.json"])["N"] == [8, 12]


@pytest.mark.parametrize("family", ["zero", "static-bump"])
def test_warm_step_allocates_no_full_array(monkeypatch, family):
    """With every schematic term and both threads, a warm step allocates
    less than one full scalar array at any time.  The stencil kernels'
    block scratch (one per thread at a time) is made small, so the bound
    sees every other allocation; block size does not change results.
    What is left are slab-sized ufunc buffers of the radiation shell,
    about 0.2 MB at any N, against 0.37 MB for a scalar array at N = 32."""
    import tracemalloc

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(fields, "_BLOCK", 1 << 10)
    geom = GridGeometry(32, 8.0)
    bg = make_background(family, epsilon=0.1, center=(0.0, 0.0, 2.0), radius=3.0)
    ev = evolve.Evolver(geom, bg, source=schematic(ALL_TERMS, geom, bg))
    Phi, Pi = _state(geom, (4, 1))
    dt = 0.4 * geom.dx
    ev.step(0.0, Phi, Pi, dt)  # warm-up: work arrays, the shell plan, the thread
    assert ev._pair._thread is not None
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = ev.step(dt, Phi, Pi, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        ev._pair.stop()
    assert peak - before < geom.n_full ** 3 * 8
    assert got[0] is Phi and got[1] is Pi
