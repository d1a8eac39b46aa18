import numpy as np
import pytest

from framewave.certify import sample_points


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
