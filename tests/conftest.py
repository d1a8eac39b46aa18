from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from framewave.certify import sample_points  # noqa: F401  (shared by the test modules)
from framewave.geometry import frame_arrays
from framewave.poly import Poly, pack

# Exact scalars on few, low exponents (coordinates 0..2, r^-1 0..3,
# rho12^-1 0..2), so that terms collide and cancel in sums, products,
# derivatives and generator actions; coefficients of every kind in use.
exact_scalars = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4, st.integers(0, 3), st.integers(0, 2)),
    st.sampled_from([-3, -1, 1, 2, Fraction(1, 3), -0.05]), min_size=1, max_size=16,
).map(lambda terms: Poly({pack(k): v for k, v in terms.items()}))


def frame_at(x):
    """The null frame at one spatial point x (3,): frame_arrays on a
    one-row batch, as {"L", "Lbar", "e1", "e2": (4,) vectors, "r": r}."""
    fr = frame_arrays(*np.asarray(x, dtype=float).reshape(3, 1))
    return {name: v[..., 0] for name, v in fr.items()}


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
