import math

import numpy as np
import pytest

from divgan.autodiff import NumericsError
from divgan.optim import AdamHyper, adam_init, adam_step


def make_params(rng):
    return rng.normal(size=(8,))


def test_zero_gradients_leave_params_unchanged(rng):
    params = make_params(rng)
    new, state = adam_step(params, np.zeros_like(params), adam_init(params), AdamHyper())
    assert state.t == 1
    assert np.array_equal(params, new)


@pytest.mark.parametrize("g", [1.0, -0.3, 25.0])
def test_first_step_is_signed_learning_rate(g):
    hyper = AdamHyper(lr=1e-3)
    params = np.array([0.0])
    new, _ = adam_step(params, np.array([g]), adam_init(params), hyper)
    update = float(new[0])
    assert np.sign(update) == -np.sign(g)
    assert 1.0 - 1e-6 <= abs(update) / hyper.lr <= 1.0


def test_determinism(rng):
    params = make_params(rng)
    grads = rng.normal(size=params.shape)
    out1 = adam_step(params, grads, adam_init(params), AdamHyper())
    out2 = adam_step(params, grads, adam_init(params), AdamHyper())
    assert np.array_equal(out1[0], out2[0])
    assert np.array_equal(out1[1].m, out2[1].m)
    assert np.array_equal(out1[1].v, out2[1].v)


def test_inputs_are_untouched(rng):
    params = make_params(rng)
    grads = rng.normal(size=params.shape)
    state = adam_step(params, grads, adam_init(params), AdamHyper())[1]
    before = [a.copy() for a in (params, grads, state.m, state.v)]
    adam_step(params, grads, state, AdamHyper())
    assert all(np.array_equal(a, b) for a, b in zip(before, (params, grads, state.m, state.v)))
    assert state.t == 1


def test_step_counter_increments_by_one(rng):
    params = make_params(rng)
    state = adam_init(params)
    for expected in (1, 2, 3):
        params, state = adam_step(params, np.ones_like(params), state, AdamHyper())
        assert state.t == expected


def test_nonfinite_gradient_is_an_error(rng):
    params = make_params(rng)
    with pytest.raises(NumericsError):
        adam_step(params, np.full_like(params, np.nan), adam_init(params), AdamHyper())


def test_shape_mismatch_is_an_error(rng):
    params = make_params(rng)
    with pytest.raises(ValueError, match="grad shape"):
        adam_step(params, np.zeros(7), adam_init(params), AdamHyper())
    with pytest.raises(ValueError, match="moment shapes"):
        adam_step(params, np.zeros(8), adam_init(np.zeros(9)), AdamHyper())


@pytest.mark.parametrize("kwargs", [
    dict(lr=0.0), dict(beta1=1.0), dict(eps=0.0), dict(eps=-1e-8), dict(eps=math.inf),
])
def test_hyper_validation(kwargs):
    with pytest.raises(ValueError):
        AdamHyper(**kwargs)


def test_matches_reference_formula(rng):
    """Hand-rolled Adam recurrence as an independent check."""
    hyper = AdamHyper(lr=0.01, beta1=0.9, beta2=0.99, eps=1e-8)
    p = rng.normal(size=(4,))
    state = adam_init(p)
    m = np.zeros(4)
    v = np.zeros(4)
    q = p.copy()
    for t in range(1, 6):
        g = rng.normal(size=(4,))
        p, state = adam_step(p, g, state, hyper)
        m = hyper.beta1 * m + (1 - hyper.beta1) * g
        v = hyper.beta2 * v + (1 - hyper.beta2) * g * g
        mhat = m / (1 - hyper.beta1**t)
        vhat = v / (1 - hyper.beta2**t)
        q = q - hyper.lr * mhat / (np.sqrt(vhat) + hyper.eps)
        assert np.allclose(p, q, atol=1e-15)
