import numpy as np
import pytest

from divgan import losses
from divgan.autodiff import (
    DIV_GUARD,
    NumericsError,
    ShapeMismatch,
    Var,
    backward,
    concat,
    evaluate_with_gradients,
    finite_diff_gradient,
    jacobian,
    lift,
)
from divgan.losses import DiversityConfig, ObjectiveConfig, TrainBatch, generator_total_loss
from divgan.nets import NetworkSpec, mlp_forward, mlp_forward_vars, mlp_init

from conftest import gradcheck


def test_sum_of_squares_example():
    value, grads = evaluate_with_gradients(lambda x: x.square().sum(), [np.array([1.0, 2.0])])
    assert value == 5.0
    assert np.array_equal(grads[0], [2.0, 4.0])


def test_relu_mask_example():
    value, grads = evaluate_with_gradients(lambda x: x.relu().sum(), [np.array([-1.0, 3.0])])
    assert value == 3.0
    assert np.array_equal(grads[0], [0.0, 1.0])


def test_finite_diff_linear():
    g = finite_diff_gradient(lambda x: float(np.sum(x)), np.array([0.3, -2.0, 7.0]))
    assert np.allclose(g, 1.0, atol=1e-8)


def test_finite_diff_bilinear():
    g = finite_diff_gradient(lambda x: float(x[0] * x[1]), np.array([2.0, 3.0]))
    assert np.allclose(g, [3.0, 2.0], atol=1e-6)


def test_finite_diff_rejects_bad_h():
    with pytest.raises(ValueError):
        finite_diff_gradient(lambda x: 0.0, np.zeros(2), h=0.0)


def test_finite_diff_nonfinite_eval():
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(NumericsError):
            finite_diff_gradient(lambda x: float(np.log(x[0])), np.array([0.0]))


# -- per-op gradient checks against the finite-difference oracle ------------

SMOOTH_UNARY = [
    ("tanh", lambda v: v.tanh()),
    ("sigmoid", lambda v: v.sigmoid()),
    ("softplus", lambda v: v.softplus()),
    ("square", lambda v: v.square()),
]

KINKED_UNARY = [
    ("relu", lambda v: v.relu()),
    ("leaky_relu", lambda v: v.leaky_relu(0.2)),
    ("abs", lambda v: v.abs()),
]


@pytest.mark.parametrize("name,op", SMOOTH_UNARY)
def test_unary_smooth_gradients(name, op, rng):
    for _ in range(100):
        x = rng.normal(size=(3,)) * 2.0
        gradcheck(lambda v: op(v).sum(), [x])


@pytest.mark.parametrize("name,op", KINKED_UNARY)
def test_unary_kinked_gradients(name, op, rng):
    checked = 0
    while checked < 100:
        x = rng.normal(size=(3,)) * 2.0
        if np.min(np.abs(x)) < 1e-3:  # keep the oracle away from the kink
            continue
        gradcheck(lambda v: op(v).sum(), [x])
        checked += 1


def test_sqrt_gradients(rng):
    for _ in range(100):
        x = rng.uniform(0.1, 4.0, size=(3,))
        gradcheck(lambda v: v.sqrt().sum(), [x])


def test_binary_gradients(rng):
    for _ in range(100):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        s = rng.normal()
        gradcheck(lambda u, v: (u + v).square().sum(), [a, b])
        gradcheck(lambda u, v: (u * v).sum(), [a, b])
        gradcheck(lambda u, v: (u - v).tanh().sum(), [a, b])
        gradcheck(lambda u: (u * float(s)).sum(), [a])


def test_div_gradients(rng):
    for _ in range(100):
        a = rng.normal(size=(4,))
        b = rng.uniform(0.5, 2.0, size=(4,)) * rng.choice([-1.0, 1.0], size=(4,))
        gradcheck(lambda u, v: (u / v).sum(), [a, b])


def test_matmul_gradients(rng):
    for _ in range(100):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 2))
        gradcheck(lambda u, v: (u @ v).square().sum(), [a, b])


def test_row_bias_add_gradients(rng):
    for _ in range(100):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3,))
        gradcheck(lambda u, v: (u + v).tanh().sum(), [a, b])


def test_reduction_gradients(rng):
    for _ in range(100):
        x = rng.normal(size=(3, 4))
        gradcheck(lambda v: v.sum(), [x])
        gradcheck(lambda v: v.mean(), [x])
        gradcheck(lambda v: v.sum(axis=0).square().sum(), [x])
        gradcheck(lambda v: v.mean(axis=1).square().sum(), [x])


def test_concat_and_cols_gradients(rng):
    for _ in range(100):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 3))
        gradcheck(lambda u, v: concat([u, v], axis=1).square().sum(), [a, b])
        gradcheck(lambda u, v: concat([u, v], axis=1).cols(1, 4).sum(), [a, b])


def test_clip_max_gradients(rng):
    checked = 0
    while checked < 100:
        x = rng.normal(size=(5,))
        if np.min(np.abs(x - 0.5)) < 1e-3:
            continue
        gradcheck(lambda v: v.clip_max(0.5).sum(), [x])
        checked += 1


def test_mlp_gradcheck_both_directions(rng):
    """Two-layer MLP scalar head: engine vs oracle and oracle vs engine."""
    w1 = rng.normal(size=(3, 8))
    b1 = rng.normal(size=(8,))
    w2 = rng.normal(size=(8, 1))
    x = rng.normal(size=(2, 3))

    def head(w1v, b1v, w2v):
        return (((Var(x) @ w1v) + b1v).tanh() @ w2v).mean()

    grads = gradcheck(head, [w1, b1, w2])
    # cross-check: the oracle agrees with the engine within the same tolerance
    fd = finite_diff_gradient(
        lambda w: evaluate_with_gradients(head, [w, b1, w2])[0], w1
    )
    assert np.max(np.abs(fd - grads[0]) / np.maximum(np.abs(grads[0]), 1.0)) <= 1e-4


# -- strictness and edge rules ------------------------------------------------


def test_shape_mismatch_names_op_and_shapes():
    with pytest.raises(ShapeMismatch, match=r"add.*\(2,\).*\(3,\)"):
        Var(np.zeros(2)) + Var(np.zeros(3))
    with pytest.raises(ShapeMismatch, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        Var(np.zeros((2, 3))) @ Var(np.zeros((2, 3)))
    with pytest.raises(ShapeMismatch, match="mul"):
        Var(np.zeros((2, 2))) * Var(np.zeros(2))
    with pytest.raises(ShapeMismatch, match="concat"):
        concat([Var(np.zeros((2, 2))), Var(np.zeros((3, 3)))], axis=1)


def test_no_silent_row_broadcast_for_mul():
    # only add carries the bias-style row broadcast
    with pytest.raises(ShapeMismatch):
        Var(np.zeros((4, 3))) * Var(np.zeros(3))


def test_division_guard():
    with pytest.raises(NumericsError):
        Var(np.ones(2)) / Var(np.array([1.0, DIV_GUARD / 2]))


def test_sqrt_rejects_negative():
    with pytest.raises(NumericsError):
        Var(np.array([-1.0])).sqrt()


def test_sqrt_zero_subgradient_is_zero():
    _, grads = evaluate_with_gradients(lambda v: v.square().sum().sqrt(), [np.zeros(3)])
    assert np.array_equal(grads[0], np.zeros(3))


def test_clip_max_tie_gives_zero_gradient():
    value, grads = evaluate_with_gradients(
        lambda v: v.clip_max(1.0).sum(), [np.array([0.5, 1.0, 2.0])]
    )
    assert value == 2.5
    assert np.array_equal(grads[0], [1.0, 0.0, 0.0])


def test_backward_requires_scalar_root():
    with pytest.raises(ShapeMismatch):
        backward(Var(np.zeros(3)))


def test_backward_accumulates_shared_nodes():
    x = Var(np.array(3.0))
    y = x * x + x  # dy/dx = 2x + 1 = 7
    backward(y)
    assert x.grad == pytest.approx(7.0)


def test_evaluate_with_gradients_rejects_non_var():
    with pytest.raises(TypeError):
        evaluate_with_gradients(lambda v: np.sum(v.data), [np.zeros(2)])


# -- gradient pruning -----------------------------------------------------------


def _graph_vars(root):
    seen, stack = {}, [root]
    while stack:
        v = stack.pop()
        if id(v) not in seen:
            seen[id(v)] = v
            stack.extend(v._parents)
    return list(seen.values())


def test_lifted_constants_get_no_grad(rng):
    x = Var(rng.normal(size=(3, 2)))
    c = lift(rng.normal(size=(2, 4)))
    assert x.requires_grad and not c.requires_grad
    backward((x @ c).sum())
    assert c.grad is None
    assert np.array_equal(x.grad, np.ones((3, 4)) @ c.data.T)


def test_mlp_forward_params_are_constants(rng):
    params = mlp_init(NetworkSpec(2, (5, 4), 3), 0)
    z = Var(rng.normal(size=(6, 2)))
    out, _ = mlp_forward(params, z)
    backward(out.sum())
    assert z.grad is not None
    nodes = _graph_vars(out)
    consts = [v for v in nodes if not v.requires_grad]
    for p in params.flat():
        assert any(v.data is p for v in consts)
    assert all(v.grad is None for v in consts)


def test_graph_of_constants_has_no_parents(rng):
    params = mlp_init(NetworkSpec(2, (5, 4), 3), 0)
    out, hidden = mlp_forward(params, rng.normal(size=(6, 2)))
    for v in [out] + hidden:
        assert not v.requires_grad
        assert v._parents == () and v._bwd is None


def test_shared_subexpressions_exact_and_unaliased():
    x = Var(np.array([1.5, -2.0]))
    y = x + x
    backward(y.sum())
    assert np.array_equal(x.grad, [2.0, 2.0])
    assert np.array_equal(y.grad, [1.0, 1.0])

    a = Var(np.array([2.0, -3.0]))
    b = Var(np.array([0.5, 4.0]))
    p = a * b
    s = p + a  # diamond: a reaches s directly and through p
    backward(s.sum())
    assert np.array_equal(a.grad, [1.5, 5.0])
    assert np.array_equal(b.grad, [2.0, -3.0])
    assert np.array_equal(p.grad, [1.0, 1.0])
    assert np.array_equal(s.grad, [1.0, 1.0])


def test_first_gradient_contribution_has_no_negative_zero():
    x = Var(np.array([1.0, 2.0]))
    backward((x * -0.0).sum())
    assert np.array_equal(x.grad, [0.0, 0.0])
    assert not np.any(np.signbit(x.grad))


@pytest.mark.parametrize("space", ["output", "feature", "sequence"])
def test_constant_discriminator_gives_same_generator_gradients(space, rng, monkeypatch):
    """The G step reads only G's gradients: holding D's parameters constant
    must leave them bit-identical to a graph where D's are leaves too."""
    g_spec = NetworkSpec(4, (8,), 4)
    d_spec = NetworkSpec(6, (8, 5), 1, hidden_activation="relu")
    params_G, params_D = mlp_init(g_spec, 1), mlp_init(d_spec, 2)
    batch = TrainBatch(z1=rng.normal(size=(5, 2)), z2=rng.normal(size=(5, 2)),
                       x=rng.normal(size=(5, 2)), seq_len=2 if space == "sequence" else 1)
    cfg = ObjectiveConfig(diversity=DiversityConfig(weight=0.7, space=space))

    def g_grads():
        res = generator_total_loss(batch, params_G, params_D, cfg)
        backward(res.total)
        return [v.grad for v in res.param_vars]

    pruned = g_grads()
    d_leaves = []

    def leaf_discriminator(params, y, x=None):
        dvars = [Var(p) for p in params.flat()]
        d_leaves.extend(dvars)
        return mlp_forward_vars(dvars, params.spec, concat([x, y], axis=1))

    monkeypatch.setattr(losses, "discriminator_forward", leaf_discriminator)
    full = g_grads()
    # the reference really did differentiate D: its first call feeds the loss
    assert all(v.grad is not None for v in d_leaves[:len(params_D.flat())])
    for a, b in zip(pruned, full):
        assert np.array_equal(a, b)


# -- jacobian -----------------------------------------------------------------


def test_jacobian_linear_map():
    A = np.array([[2.0, 0.0], [0.0, 1.0]])
    jac = jacobian(lambda z: z @ Var(A.T), np.array([[0.5, -1.0]]))
    assert np.array_equal(jac, A)


def test_jacobian_componentwise():
    def f(z):
        z0 = z.cols(0, 1)
        z1 = z.cols(1, 2)
        return concat([z0.square(), z1], axis=1)

    jac = jacobian(f, np.array([[3.0, 1.0]]))
    assert np.allclose(jac, [[6.0, 0.0], [0.0, 1.0]])


def test_jacobian_matches_finite_differences(rng):
    w1 = rng.normal(size=(2, 16))
    b1 = rng.normal(size=(16,))
    w2 = rng.normal(size=(16, 2))

    def g(z):
        return ((z @ Var(w1)) + Var(b1)).tanh() @ Var(w2)

    z0 = rng.normal(size=(1, 2))
    jac = jacobian(g, z0)
    for i in range(2):
        fd = finite_diff_gradient(
            lambda z: float(((np.tanh(z.reshape(1, -1) @ w1 + b1)) @ w2)[0, i]),
            z0,
        ).reshape(-1)
        assert np.max(np.abs(jac[i] - fd) / np.maximum(np.abs(fd), 1.0)) <= 1e-4
