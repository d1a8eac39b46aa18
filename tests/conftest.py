import numpy as np
import pytest

from framewave.certify import sample_points  # noqa: F401  (shared by the test modules)


def dense_H(bg, geom, t):
    """Dense H (4, 4, n, n, n) and dH (4, 4, 4, n, n, n) of a background,
    built from its zero-filled profile: the oracle tensors of the
    structured H = chi M consumers."""
    chi, dchi = bg.profile(geom, t)
    M = bg.direction
    return (chi[None, None] * M[:, :, None, None, None],
            dchi[:, None, None] * M[None, :, :, None, None, None])


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
