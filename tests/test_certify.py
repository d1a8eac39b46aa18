import multiprocessing
import os
import time

import numpy as np
import pytest

from framewave.certify import _fork_map, sample_points
from framewave.errors import ConstraintError, FramewaveError, WorkerLost


@pytest.fixture
def two_cores(monkeypatch):
    """_fork_map sees two usable cores, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _frozen_certify_sampler(rng, n, tmin=-2.0, tmax=2.0, box=3.0, rmin=0.5):
    """The certification suite's sampler before the two copies were merged."""
    pts = np.empty((n, 4))
    k = 0
    while k < n:
        cand = np.empty(4)
        cand[0] = rng.uniform(tmin, tmax)
        cand[1:] = rng.uniform(-box, box, size=3)
        if np.linalg.norm(cand[1:]) >= rmin:
            pts[k] = cand
            k += 1
    return pts


def _frozen_test_sampler(rng, n, tmin=-2.0, tmax=2.0, box=3.0, rmin=0.5, chart_z=False):
    """The test suite's sampler before the two copies were merged."""
    pts = []
    while len(pts) < n:
        cand = np.empty(4)
        cand[0] = rng.uniform(tmin, tmax)
        cand[1:] = rng.uniform(-box, box, size=3)
        r = np.linalg.norm(cand[1:])
        if r < rmin:
            continue
        if chart_z and abs(cand[3]) > 0.8 * r:
            continue
        pts.append(cand)
    return np.array(pts)


OPTIONS = [
    {},
    {"rmin": 0.4},
    {"tmin": 1.0, "tmax": 4.0, "box": 4.0, "rmin": 0.3},
    {"tmin": 1.0, "tmax": 3.0, "chart_z": True},
    {"rmin": 2.5, "chart_z": True},
]


@pytest.mark.parametrize("seed", [0, 7, 20240811])
@pytest.mark.parametrize("opts", OPTIONS)
def test_sampler_keeps_both_draw_sequences(seed, opts):
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_points(new_rng, 40, **opts)
    assert np.array_equal(got, _frozen_test_sampler(old_rng, 40, **opts))
    # both generators are left in the same state
    assert new_rng.uniform() == old_rng.uniform()
    if not opts.get("chart_z"):
        rng = np.random.default_rng(seed)
        assert np.array_equal(sample_points(np.random.default_rng(seed), 40, **opts),
                              _frozen_certify_sampler(rng, 40, **opts))


def test_fork_map_returns_results_in_item_order(two_cores):
    parent = os.getpid()

    def slow(k):
        time.sleep(0.05)
        return k * k, os.getpid() == parent

    got = _fork_map(slow, list(range(8)))
    assert [v for v, _ in got] == [k * k for k in range(8)]
    assert {in_parent for _, in_parent in got} == {True, False}   # both processes worked
    assert multiprocessing.active_children() == []


def test_fork_map_claims_each_item_once(monkeypatch, tmp_path):
    """More workers than cores racing for many short items: every item is
    run exactly once (a lost claim update would run one twice or skip it)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    log = tmp_path / "runs"

    def fn(k):
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{k}\n".encode())
        finally:
            os.close(fd)
        return -k

    t0 = time.monotonic()
    assert _fork_map(fn, list(range(300))) == [-k for k in range(300)]
    assert sorted(int(line) for line in log.read_text().split()) == list(range(300))
    assert time.monotonic() - t0 < 60
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cores, n", [({0}, 5), ({0, 1}, 1), ({0, 1}, 0)])
def test_fork_map_runs_in_process_without_a_second_core_or_item(monkeypatch, cores, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    assert _fork_map(lambda k: (k, os.getpid()), list(range(n))) == \
        [(k, os.getpid()) for k in range(n)]


class _Unpicklable(FramewaveError):
    def __reduce__(self):
        raise TypeError("not picklable")


def _fails_in_worker(failure, marker):
    """An item function that runs `failure` in a worker, and in this
    process waits for a worker to have claimed an item first, so a worker
    always meets the failure."""
    parent = os.getpid()

    def fn(k):
        if os.getpid() != parent:
            marker.touch()
            failure()
        deadline = time.monotonic() + 30
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        return k
    return fn


def _raise(exc):
    def failure():
        raise exc
    return failure


@pytest.mark.parametrize("failure, error, message", [
    (_raise(ConstraintError("bad value")), ConstraintError, "^bad value$"),
    (_raise(KeyError("gone")), KeyError, "gone"),
    (_raise(_Unpicklable("kept")), FramewaveError, "_Unpicklable: kept"),
    (lambda: os._exit(7), WorkerLost, "without sending"),
])
def test_fork_map_worker_failure_reaches_the_caller(two_cores, tmp_path, failure, error,
                                                     message):
    with pytest.raises(error, match=message) as info:
        _fork_map(_fails_in_worker(failure, tmp_path / "claimed"), list(range(4)))
    assert type(info.value) is error
    assert multiprocessing.active_children() == []


def test_fork_map_terminates_workers_when_this_process_fails(two_cores):
    parent = os.getpid()

    def fn(k):
        if os.getpid() != parent:
            time.sleep(60)
        raise ConstraintError("this process failed")

    t0 = time.monotonic()
    with pytest.raises(ConstraintError, match="this process failed"):
        _fork_map(fn, list(range(4)))
    assert time.monotonic() - t0 < 30   # the sleeping worker was not waited for
    assert multiprocessing.active_children() == []
