import re

import numpy as np
import pytest

from divgan import autodiff, losses
from divgan.autodiff import (
    NumericsError,
    ShapeMismatch,
    Var,
    affine,
    backward,
    concat,
    evaluate_with_gradients,
    finite_diff_gradient,
    jacobian,
    lift,
)
from divgan.losses import DiversityConfig, ObjectiveConfig
from divgan.nets import (
    NetworkSpec,
    discriminator_forward,
    generator_forward,
    mlp_forward_vars,
    mlp_init,
)

from conftest import gradcheck, objective


def test_sum_of_squares_example():
    value, grads = evaluate_with_gradients(lambda x: x.square().sum(), [np.array([1.0, 2.0])])
    assert value == 5.0
    assert np.array_equal(grads[0], [2.0, 4.0])


def test_relu_mask_example():
    value, grads = evaluate_with_gradients(lambda x: x.relu().sum(), [np.array([-1.0, 3.0])])
    assert value == 3.0
    assert np.array_equal(grads[0], [0.0, 1.0])


def test_relu_negative_zero_is_positive_zero():
    out = Var(np.array([-0.0, 0.0, -1.0, 2.0])).relu().data
    assert np.array_equal(out, [0.0, 0.0, 0.0, 2.0])
    assert not np.any(np.signbit(out))
    # a layer-sized input, where numpy may take a vectorized loop
    assert not np.any(np.signbit(Var(np.full((128, 128), -0.0)).relu().data))


def test_relu_propagates_nan():
    out = Var(np.array([np.nan, -1.0])).relu()
    assert np.isnan(out.data[0]) and out.data[1] == 0.0


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
    ("softplus", lambda v: v.softplus()),
    ("square", lambda v: v.square()),
]

KINKED_UNARY = [
    ("relu", lambda v: v.relu()),
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
        # each broadcast form, the scalar or row operand a leaf too, whose
        # gradient gradcheck holds to its own shape
        r = rng.normal(size=(3,))
        for f, args in ((lambda c, u: (c + u).tanh().sum(), [s, a]),
                        (lambda u, c: (u + c).tanh().sum(), [a, s]),
                        (lambda u, w: (u + w).tanh().sum(), [a, r]),
                        (lambda c, u: (c * u).tanh().sum(), [s, a]),
                        (lambda u, c: (u * c).tanh().sum(), [a, s])):
            gradcheck(f, args)


def test_matmul_gradients(rng):
    for _ in range(100):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 2))
        gradcheck(lambda u, v: (u @ v).square().sum(), [a, b])


def test_affine_gradients(rng):
    for _ in range(100):
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=(2,))
        gradcheck(lambda u, v, c: affine(u, v, c).tanh().sum(), [x, w, b])


@pytest.mark.parametrize("leaves", [(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)])
def test_affine_is_matmul_plus_bias_bit_for_bit(leaves, rng):
    """The fused node gives the two-node graph's value and gradients
    exactly, and a constant operand gets no `.grad`."""
    data = [rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=(4,))]
    fused = [Var(a) if i in leaves else lift(a) for i, a in enumerate(data)]
    split = [Var(a) if i in leaves else lift(a) for i, a in enumerate(data)]
    out = affine(*fused)
    ref = (split[0] @ split[1]) + split[2]
    assert np.array_equal(out.data, ref.data)
    backward(out.tanh().sum())
    backward(ref.tanh().sum())
    for i, (f, r) in enumerate(zip(fused, split)):
        if i in leaves:
            assert np.array_equal(f.grad, r.grad)
        else:
            assert f.grad is None
    assert affine(*[lift(a) for a in data])._parents == ()


def same_bits(a, b) -> bool:
    """Equal arrays down to the sign of every zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("leaves", [(0,), (1, 2), (0, 1, 2)])
def test_fused_activation_matches_unfused_chain(activation, leaves, rng):
    """affine(x, W, b, activation) gives the value and the gradients of
    affine(x, W, b) followed by the activation op, down to the sign of
    zeros: -0.0 weights, a relu unit dead on every row, and the output read
    twice, once with a negative weight."""
    x = rng.normal(size=(6, 3))
    W = rng.normal(size=(3, 5))
    W[:, 1] = -0.0
    W[1, 2] = -0.0
    b = rng.normal(size=(5,))
    b[3] = -50.0  # relu unit 3 is 0 on every row
    data = [x, W, b]
    c = rng.normal(size=(6, 5))

    def run(fused):
        ops = [Var(a) if i in leaves else lift(a) for i, a in enumerate(data)]
        h = affine(*ops, activation) if fused else getattr(affine(*ops), activation)()
        backward((h * -1.0).sum() + (h * c).square().sum())
        return h, ops

    h_fused, fused = run(True)
    h_split, split = run(False)
    assert same_bits(h_fused.data, h_split.data)
    for i, (f, r) in enumerate(zip(fused, split)):
        if i in leaves:
            assert same_bits(f.grad, r.grad)
        else:
            assert f.grad is None
    if 2 in leaves and activation == "relu":
        # the dead unit's cotangent is -0.0 on every row; the bias gradient
        # holds 0.0, as in the unfused graph
        assert same_bits(fused[2].grad[3], 0.0)


@pytest.mark.parametrize("seed", range(20))
def test_fused_tanh_backward_matches_unfused_on_random_inputs(seed):
    """The fused tanh backward keeps the bits and zero signs of affine then
    Var.tanh, also where wide inputs saturate t to +-1 (a 0.0 derivative)
    and g is negative or -0.0."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-2, 2)
    x = rng.normal(size=(7, 4)) * scale
    W = rng.normal(size=(4, 6))
    W[rng.random(W.shape) < 0.2] = -0.0
    b = rng.normal(size=(6,))
    c = rng.normal(size=(7, 6))
    c[rng.random(c.shape) < 0.2] = -0.0

    def run(fused):
        ops = [Var(a) for a in (x, W, b)]
        h = affine(*ops, "tanh") if fused else affine(*ops).tanh()
        backward((h * c).sum())
        return [h.data] + [v.grad for v in ops]

    for f, r in zip(run(True), run(False)):
        assert same_bits(f, r)


def test_affine_rejects_unknown_activation():
    with pytest.raises(ValueError, match="unknown activation 'sigmoid'"):
        affine(np.ones((1, 2)), np.ones((2, 2)), np.zeros(2), "sigmoid")


def test_activation_grad_matches_the_ops(rng):
    """The one derivative helper: tanh's 1 - t*t and relu's boolean x > 0,
    read off the activation output."""
    x = np.concatenate([rng.normal(size=20), [0.0, -0.0, np.nan, np.inf, -np.inf]])
    t = np.tanh(x)
    assert same_bits(autodiff.activation_grad("tanh", t), 1.0 - t * t)
    with np.errstate(invalid="ignore"):
        mask = autodiff.activation_grad("relu", np.maximum(x, 0.0))
        assert mask.dtype == bool and np.array_equal(mask, x > 0.0)


def _two_exp_sigmoid(x):
    with np.errstate(over="ignore"):
        pos = 1.0 / (1.0 + np.exp(-np.maximum(x, 0.0)))
        ex = np.exp(np.minimum(x, 0.0))
        neg = ex / (1.0 + ex)
    return np.where(x >= 0.0, pos, neg)


def test_sigmoid_one_exp_matches_two_exp_formula(rng):
    tiny = np.finfo(np.float64).tiny
    x = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 746.0, -746.0, 709.8, -709.8,
         5e-324, -5e-324, tiny / 2, -tiny / 2, tiny, -tiny, 36.8, -36.8, 1e308, -1e308],
        rng.normal(size=200) * 10.0,
    ])
    assert same_bits(autodiff._sigmoid(x), _two_exp_sigmoid(x))
    nan = autodiff._sigmoid(np.array([np.nan, -np.nan]))
    assert np.isnan(nan).all()


def test_reshape_and_transpose_gradients(rng):
    for _ in range(50):
        x = rng.normal(size=(2, 6))
        c = rng.normal(size=(4, 3))
        gradcheck(lambda v: (v.reshape(3, 4).transpose() * c).square().sum(), [x])
        gradcheck(lambda v: v.reshape(2, 3, 2).abs().sum(axis=-1).transpose().sum(axis=0)
                  .square().sum(), [x])


def test_transpose_is_a_c_ordered_copy(rng):
    x = Var(rng.normal(size=(4, 3)))
    t = x.transpose()
    assert t.data.flags["C_CONTIGUOUS"] and np.array_equal(t.data, x.data.T)
    assert not np.shares_memory(t.data, x.data)


def test_reshape_mismatch_names_op_and_shapes():
    with pytest.raises(ShapeMismatch, match=re.escape("reshape: cannot reshape (2, 3) to (4, -1)")):
        Var(np.ones((2, 3))).reshape(4, -1)


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


def test_concat_gradients(rng):
    for _ in range(100):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 3))
        gradcheck(lambda u, v: concat(u, v).square().sum(), [a, b])
    # stacked operands join on their last axis too
    a, b = rng.normal(size=(2, 2, 3)), rng.normal(size=(2, 2, 1))
    assert concat(a, b).shape == (2, 2, 4)
    gradcheck(lambda u, v: concat(u, v).square().sum(), [a, b])


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
        concat(Var(np.zeros((2, 2))), Var(np.zeros((3, 3))))


@pytest.mark.parametrize("x,w,b", [
    ((2, 3), (2, 4), (4,)),  # inner dims differ
    ((2, 3), (3, 4), (3,)),  # bias is not one per output column
    ((2, 3), (3, 4), (1, 4)),  # bias is not a vector
    ((3,), (3, 4), (4,)),  # input is not a batch
])
def test_affine_shape_mismatch_names_op_and_shapes(x, w, b):
    with pytest.raises(ShapeMismatch, match=r"affine.*" + r".*".join(
            re.escape(str(s)) for s in (x, w, b))):
        affine(Var(np.zeros(x)), Var(np.zeros(w)), Var(np.zeros(b)))


@pytest.mark.parametrize("needs_grad", ["W", "b"])
def test_affine_refuses_a_stacked_input_when_w_or_b_needs_a_gradient(needs_grad):
    """x.T @ g, the weight gradient, is 2-D only."""
    x = np.ones((3, 2, 4))
    W = Var(np.ones((4, 5)), requires_grad=needs_grad == "W")
    b = Var(np.ones(5), requires_grad=needs_grad == "b")
    with pytest.raises(ShapeMismatch, match=re.escape("stacked input (3, 2, 4)")):
        affine(x, W, b)
    out = affine(x, W.data, b.data, "tanh")  # constants take it
    assert np.array_equal(out.data, np.full((3, 2, 5), np.tanh(5.0)))


def test_no_silent_row_broadcast_for_mul():
    # only add carries the bias-style row broadcast
    with pytest.raises(ShapeMismatch):
        Var(np.zeros((4, 3))) * Var(np.zeros(3))


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


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_item_and_gradients_of_a_size_one_result(shape):
    assert Var(np.full(shape, 2.0)).item() == 2.0
    value, grads = evaluate_with_gradients(lambda v: v.square(), [np.full(shape, 3.0)])
    assert value == 9.0
    assert grads[0].shape == shape and np.array_equal(grads[0], np.full(shape, 6.0))


def test_item_rejects_more_than_one_value():
    with pytest.raises(ShapeMismatch, match="item"):
        Var(np.zeros(2)).item()


def test_unreached_input_gets_zero_gradient():
    value, grads = evaluate_with_gradients(lambda a, b: (a * a).sum(),
                                           [np.array([1.0, 2.0]), np.ones((2, 3))])
    assert value == 5.0
    assert np.array_equal(grads[0], [2.0, 4.0])
    assert grads[1].dtype == np.float64 and grads[1].shape == (2, 3)
    assert np.array_equal(grads[1], np.zeros((2, 3)))


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
    out = generator_forward(params, z)
    backward(out.sum())
    assert z.grad is not None
    nodes = _graph_vars(out)
    consts = [v for v in nodes if not v.requires_grad]
    for p in params.flat():
        assert any(v.data is p for v in consts)
    assert all(v.grad is None for v in consts)


def test_graph_of_constants_has_no_parents(rng):
    params = mlp_init(NetworkSpec(2, (5, 4), 3), 0)
    out, hidden = discriminator_forward(params, rng.normal(size=(6, 2)))
    for v in [out] + hidden:
        assert not v.requires_grad
        assert v._parents == () and v._bwd is None


def test_shared_subexpressions_exact_and_unaliased():
    x = Var(np.array([1.5, -2.0]))
    y = x + x
    backward(y.sum())
    assert np.array_equal(x.grad, [2.0, 2.0])
    assert y.grad is None

    a = Var(np.array([2.0, -3.0]))
    b = Var(np.array([0.5, 4.0]))
    p = a * b
    s = p + a  # diamond: a reaches s directly and through p
    backward(s.sum())
    assert np.array_equal(a.grad, [1.5, 5.0])
    assert np.array_equal(b.grad, [2.0, -3.0])
    assert p.grad is None and s.grad is None


def test_backward_on_a_constant_root_sets_no_grad():
    c = lift(np.ones(2))
    backward(c, seed=np.ones(2))
    assert c.grad is None
    d = c * 2.0  # an op result over constants is a constant too
    backward(d, seed=np.ones(2))
    assert d.grad is None and c.grad is None


def test_backward_on_a_leaf_root_holds_the_seed():
    x = Var(np.array([1.0, -2.0]))
    backward(x, seed=np.array([3.0, -0.0]))
    assert same_bits(x.grad, [3.0, 0.0])


def _backward_keeping_every_grad(root):
    """The reverse pass without freeing: every node reached keeps its
    gradient, as backward's op results did before they dropped theirs."""
    order = autodiff._toposort(root)
    for node in order:
        node.grad = None
    autodiff._accumulate(root, np.ones_like(root.data))
    for node in reversed(order):
        if node._bwd is not None:
            for parent, g in zip(node._parents, node._bwd(node.grad, node)):
                if parent.requires_grad:
                    autodiff._accumulate(parent, g)


@pytest.mark.parametrize("space", ["output", "feature", "sequence"])
@pytest.mark.parametrize("weight", [0.0, 0.7])
def test_backward_leaves_only_leaf_gradients_exact_and_unaliased(space, weight, rng):
    """On a generator objective graph (shared subexpressions, fused layers,
    a reshape and a transpose), every leaf ends with the bits of a pass that
    frees nothing, in an array of its own, and no op result holds a
    gradient."""
    params_G = mlp_init(NetworkSpec(4, (8, 6), 4), 1)
    params_D = mlp_init(NetworkSpec(6, (8, 5), 1, hidden_activation="relu"), 2)
    batch = dict(z1=rng.normal(size=(5, 2)), z2=rng.normal(size=(5, 2)),
                 x=rng.normal(size=(5, 2)))
    cfg = ObjectiveConfig(diversity=DiversityConfig(weight=weight, space=space))
    freed_fakes, freed = objective(params_G, params_D, cfg, **batch)
    kept_fakes, kept = objective(params_G, params_D, cfg, **batch)
    backward(freed.total)
    _backward_keeping_every_grad(kept.total)

    nodes = _graph_vars(freed.total)
    ops = [v for v in nodes if v._bwd is not None]
    assert ops and all(v.grad is None for v in ops)
    assert all(v.grad is not None for v in _graph_vars(kept.total) if v._bwd is not None)
    leaf_grads = [v.grad for v in freed_fakes.leaves.flat()]
    for got, want in zip(leaf_grads, kept_fakes.leaves.flat()):
        assert same_bits(got, want.grad)
    for i, g in enumerate(leaf_grads):
        assert g.flags.owndata
        assert not any(np.shares_memory(g, v.data) for v in nodes)
        assert not any(np.shares_memory(g, h) for h in leaf_grads[i + 1:])


def test_jacobian_replays_match_fresh_graphs(rng):
    """jacobian replays one graph once per output; with the op results'
    gradients dropped after each pass, every row still has the bits of a
    fresh graph seeded at that output alone."""
    params = mlp_init(NetworkSpec(3, (7, 5), 4), 3)
    z = rng.normal(size=(1, 3))
    jac = jacobian(lambda v: generator_forward(params, v), z)
    for i in range(4):
        leaf = Var(z)
        out = generator_forward(params, leaf)
        seed = np.zeros(out.shape)
        seed[0, i] = 1.0
        backward(out, seed=seed)
        assert same_bits(jac[i], leaf.grad.reshape(-1))


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
    batch = dict(z1=rng.normal(size=(5, 2)), z2=rng.normal(size=(5, 2)),
                 x=rng.normal(size=(5, 2)))
    cfg = ObjectiveConfig(diversity=DiversityConfig(weight=0.7, space=space))

    def g_grads():
        fakes, res = objective(params_G, params_D, cfg, **batch)
        backward(res.total)
        return [v.grad for v in fakes.leaves.flat()]

    pruned = g_grads()
    d_leaves = []

    def leaf_discriminator(params, y, x=None):
        dvars = [Var(p) for p in params.flat()]
        d_leaves.extend(dvars)
        return mlp_forward_vars(dvars, params.spec, concat(x, y))

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


def test_jacobian_of_a_constant_output_is_zero():
    jac = jacobian(lambda z: lift(np.ones(2)), np.zeros((1, 3)))
    assert jac.dtype == np.float64 and np.array_equal(jac, np.zeros((2, 3)))


def test_jacobian_componentwise():
    def f(z):
        z0 = z @ np.array([[1.0], [0.0]])
        z1 = z @ np.array([[0.0], [1.0]])
        return concat(z0.square(), z1)

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
