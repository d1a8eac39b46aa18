import numpy as np
import pytest

from framewave.certify import sample_points  # noqa: F401  (shared by the test modules)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
