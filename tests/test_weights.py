import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framewave.errors import ConstraintError, KinkPoint
from framewave.weights import (WeightParams, w, w_hat, w_hat_prime, w_prime,
                               w_tilde, w_tilde_prime)

P = WeightParams(gamma=0.5, mu=-0.25)


def test_param_validation():
    with pytest.raises(ConstraintError):
        WeightParams(gamma=-1.0, mu=-0.25)
    with pytest.raises(ConstraintError):
        WeightParams(gamma=0.5, mu=0.1)
    with pytest.raises(ConstraintError):
        WeightParams(gamma=0.0, mu=-0.1)


def test_w_values():
    assert w(-5.0, P) == 1.0
    assert w(1.0, P) == pytest.approx(4.0)  # (1+1)^(1+2*0.5)
    assert w_prime(-3.0, P) == 0.0


def test_w_hat_values():
    assert w_hat(-1.0, WeightParams(0.5, -0.25)) == pytest.approx(2 ** -0.5)
    assert w_hat(2.0, P) == pytest.approx(9.0)
    q = np.linspace(-8, -0.01, 100)
    assert np.all(w_hat_prime(q, P) > 0)


def test_w_tilde_values():
    assert w_tilde(-5.0, P) == pytest.approx(1 + 6 ** -0.5)
    for q in (0.5, 1.0, 3.0, 10.0):
        assert w_tilde(q, P) == pytest.approx(2 * w(q, P))


@settings(max_examples=100, deadline=None)
@given(q=st.floats(-30, 30).filter(lambda v: v != 0.0),
       gamma=st.floats(0.05, 2.0), mu=st.floats(-2.0, -0.05))
def test_weight_lemma_properties(q, gamma, mu):
    p = WeightParams(gamma, mu)
    # envelope
    assert w(q, p) <= w_tilde(q, p) <= 2 * w(q, p) + 1e-12
    # derivative ratio lands exactly on a branch value inside the window
    ratio = w_hat_prime(q, p) * (1 + abs(q)) / w_hat(q, p)
    lo, hi = min(1 + 2 * gamma, -2 * mu), max(1 + 2 * gamma, -2 * mu)
    assert lo - 1e-10 <= ratio <= hi + 1e-10
    # wtilde' / what' in {1, 2} exactly by branch
    fac = w_tilde_prime(q, p) / w_hat_prime(q, p)
    assert fac == pytest.approx(2.0 if q > 0 else 1.0, rel=1e-12)


def test_positivity_and_continuity_at_kink():
    qs = np.linspace(-10, 10, 1001)
    for f in (w, w_hat, w_tilde):
        assert np.all(np.asarray(f(qs, P)) > 0)
    assert w(0.0, P) == 1.0
    assert w_hat(0.0, P) == 1.0
    assert w_tilde(0.0, P) == 2.0
    eps = 1e-9
    assert w(eps, P) == pytest.approx(w(-eps, P), abs=1e-8)


def test_kink_point_errors():
    for f in (w_prime, w_hat_prime, w_tilde_prime):
        with pytest.raises(KinkPoint):
            f(0.0, P)
        with pytest.raises(KinkPoint):
            f(np.array([1.0, 0.0, -1.0]), P)


def test_vectorized_matches_scalar():
    qs = np.array([-3.0, -0.5, 0.7, 4.0])
    for f in (w, w_hat, w_tilde, w_prime, w_hat_prime, w_tilde_prime):
        vec = f(qs, P)
        for k, q in enumerate(qs):
            assert vec[k] == pytest.approx(f(float(q), P), rel=1e-14)


def _where_forms(params):
    """The whole-array np.where forms that evaluated both branches
    everywhere (the oracle of the one-sided evaluation)."""
    g, m = params.gamma, params.mu

    def split(q):
        q = np.asarray(q, dtype=float)
        return q > 0, np.abs(q)

    def w_(q):
        pos, aq = split(q)
        return np.where(pos, (1.0 + aq) ** (1.0 + 2.0 * g), 1.0)

    def w_prime_(q):
        pos, aq = split(q)
        return np.where(pos, (1.0 + 2.0 * g) * (1.0 + aq) ** (2.0 * g), 0.0)

    def w_hat_(q):
        pos, aq = split(q)
        return np.where(pos, (1.0 + aq) ** (1.0 + 2.0 * g), (1.0 + aq) ** (2.0 * m))

    def w_hat_prime_(q):
        pos, aq = split(q)
        return np.where(pos, (1.0 + 2.0 * g) * (1.0 + aq) ** (2.0 * g),
                        -2.0 * m * (1.0 + aq) ** (2.0 * m - 1.0))

    return {w: w_, w_prime: w_prime_, w_hat: w_hat_, w_hat_prime: w_hat_prime_,
            w_tilde: lambda q: w_(q) + w_hat_(q),
            w_tilde_prime: lambda q: w_prime_(q) + w_hat_prime_(q)}


@pytest.mark.parametrize("N", [24, 36, 48])
@pytest.mark.parametrize("gamma, mu", [(0.5, -0.25), (0.3, -0.7), (1.25, -0.05)])
def test_one_sided_weights_equal_where_forms_on_grid_interiors(N, gamma, mu):
    from framewave.fields import GridGeometry

    params, geom = WeightParams(gamma, mu), GridGeometry(N, 8.0)
    for t in (0.0, 0.37, 3.0):
        q = geom.interior(geom.q_full(t))
        q = np.where(q == 0.0, 1e-30, q)          # as energy._weight_eval
        for fn, ref in _where_forms(params).items():
            got, want = fn(q, params), ref(q)
            assert got.shape == want.shape and np.array_equal(got, want), fn.__name__
    assert (q < 0).any() and (q > 0).any()        # both sides of the kink at t = 3


def test_one_sided_weights_keep_scalar_inputs():
    forms = _where_forms(P)
    for q in (-5.0, -0.3, -1e-30, 1e-30, 0.7, 3.0, np.float64(2.5), 4):
        for fn, ref in forms.items():
            got = fn(q, P)
            assert type(got) is float and got == float(ref(q)), (fn.__name__, q)
    for fn in (w, w_hat, w_tilde):
        assert fn(0.0, P) == float(forms[fn](0.0))
    assert w_tilde(np.array([]), P).shape == (0,)
