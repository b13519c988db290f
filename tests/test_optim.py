from dataclasses import fields

import numpy as np
import pytest

from divgan.autodiff import NumericsError
from divgan.optim import EPS, AdamHyper, AdamState, adam_init, adam_step


def make_params(rng):
    return rng.normal(size=(8,))


def test_zero_gradients_leave_params_unchanged(rng):
    params = make_params(rng)
    new, _ = adam_step(params, np.zeros_like(params), adam_init(params), 1, AdamHyper())
    assert np.array_equal(params, new)


@pytest.mark.parametrize("g", [1.0, -0.3, 25.0])
def test_first_step_is_signed_learning_rate(g):
    hyper = AdamHyper(lr=1e-3)
    params = np.array([0.0])
    new, _ = adam_step(params, np.array([g]), adam_init(params), 1, hyper)
    update = float(new[0])
    assert np.sign(update) == -np.sign(g)
    assert 1.0 - 1e-6 <= abs(update) / hyper.lr <= 1.0


def test_determinism(rng):
    params = make_params(rng)
    grads = rng.normal(size=params.shape)
    out1 = adam_step(params, grads, adam_init(params), 1, AdamHyper())
    out2 = adam_step(params, grads, adam_init(params), 1, AdamHyper())
    assert np.array_equal(out1[0], out2[0])
    assert np.array_equal(out1[1].m, out2[1].m)
    assert np.array_equal(out1[1].v, out2[1].v)


def test_inputs_are_untouched(rng):
    params = make_params(rng)
    grads = rng.normal(size=params.shape)
    state = adam_step(params, grads, adam_init(params), 1, AdamHyper())[1]
    before = [a.copy() for a in (params, grads, state.m, state.v)]
    adam_step(params, grads, state, 2, AdamHyper())
    assert all(np.array_equal(a, b) for a, b in zip(before, (params, grads, state.m, state.v)))


@pytest.mark.parametrize("t", [0, -1])
def test_update_number_below_one_is_refused(t, rng):
    # t = 0 would divide the moments by 1 - beta**0 = 0
    params = make_params(rng)
    with pytest.raises(ValueError, match=f"^adam_step: update number t must be >= 1, got {t}$"):
        adam_step(params, np.ones_like(params), adam_init(params), t, AdamHyper())


def test_state_holds_only_the_moments():
    assert [f.name for f in fields(AdamState)] == ["m", "v"]


def test_nonfinite_gradient_is_an_error(rng):
    params = make_params(rng)
    with pytest.raises(NumericsError):
        adam_step(params, np.full_like(params, np.nan), adam_init(params), 1, AdamHyper())


def test_shape_mismatch_is_an_error(rng):
    params = make_params(rng)
    with pytest.raises(ValueError, match="grad shape"):
        adam_step(params, np.zeros(7), adam_init(params), 1, AdamHyper())
    with pytest.raises(ValueError, match="moment shapes"):
        adam_step(params, np.zeros(8), adam_init(np.zeros(9)), 1, AdamHyper())


@pytest.mark.parametrize("kwargs", [
    dict(lr=0.0), dict(beta1=1.0),
])
def test_hyper_validation(kwargs):
    with pytest.raises(ValueError):
        AdamHyper(**kwargs)


def test_matches_reference_formula(rng):
    """Hand-rolled Adam recurrence as an independent check."""
    hyper = AdamHyper(lr=0.01, beta1=0.9, beta2=0.99)
    p = rng.normal(size=(4,))
    state = adam_init(p)
    m = np.zeros(4)
    v = np.zeros(4)
    q = p.copy()
    for t in range(1, 6):
        g = rng.normal(size=(4,))
        p, state = adam_step(p, g, state, t, hyper)
        m = hyper.beta1 * m + (1 - hyper.beta1) * g
        v = hyper.beta2 * v + (1 - hyper.beta2) * g * g
        mhat = m / (1 - hyper.beta1**t)
        vhat = v / (1 - hyper.beta2**t)
        q = q - hyper.lr * mhat / (np.sqrt(vhat) + EPS)
        assert np.allclose(p, q, atol=1e-15)


def test_matches_textbook_expression_bit_for_bit():
    """The update has the bits of the textbook expression, down to the sign
    of zeros, on -0.0, subnormals, 1e300 and mixed signs, and leaves its
    inputs untouched."""
    tiny = 5e-324
    rng = np.random.default_rng(4)
    # the edge values, then random ones of mixed sign and magnitude, where a
    # reordered product or quotient would round differently
    mixed = lambda: rng.normal(size=200) * 10.0 ** rng.uniform(-8, 8, size=200)
    params = np.concatenate([[0.0, -0.0, tiny, -tiny, 1e300, -1e300, 1.5, -2.25, 3e-310, -7.0],
                             mixed()])
    grads = np.concatenate([[-0.0, 0.0, -tiny, tiny, 1e300, -3.0, -1e300, 2.5e-320, 0.5, -0.0],
                            mixed()])
    m = np.concatenate([[-0.0, tiny, 0.0, -1e300, 2.0, -tiny, 1e300, -0.5, 0.0, 4e-321],
                        mixed()])
    v = np.concatenate([[0.0, tiny, 1e300, 0.0, 3.0, 2.5e-320, 1e-300, 0.25, 1e300, 0.0],
                        np.abs(mixed())])
    state = AdamState(m=m, v=v)
    hyper = AdamHyper(lr=1e-3, beta1=0.9, beta2=0.99)
    before = [a.tobytes() for a in (params, grads, m, v)]
    with np.errstate(over="ignore"):  # 1e300 squared is inf, as in the expression
        t = 3
        new, out = adam_step(params, grads, state, t, hyper)
        c1 = 1.0 - hyper.beta1**t
        c2 = 1.0 - hyper.beta2**t
        m_ref = hyper.beta1 * m + (1.0 - hyper.beta1) * grads
        v_ref = hyper.beta2 * v + (1.0 - hyper.beta2) * (grads * grads)
        p_ref = params - hyper.lr * (m_ref / c1) / (np.sqrt(v_ref / c2) + EPS)
    for got, ref in ((new, p_ref), (out.m, m_ref), (out.v, v_ref)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert [a.tobytes() for a in (params, grads, m, v)] == before
    assert not any(np.shares_memory(a, b) for a in (new, out.m, out.v)
                   for b in (params, grads, m, v))
