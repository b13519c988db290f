import re

import numpy as np
import pytest

from divgan import nets
from divgan.autodiff import ShapeMismatch, Var, affine, backward
from divgan.nets import (
    ROW_BLOCK,
    NetworkParams,
    NonFiniteParams,
    NetworkSpec,
    ParamLeaves,
    discriminator_forward,
    generate,
    generator_forward,
    mlp_forward_vars,
    mlp_init,
    with_condition,
)

from divgan.config import parse_run_config
from divgan.training import task_specs

from conftest import gradcheck

RING_G, RING_D = task_specs(parse_run_config({"task": "ring"}))


def test_init_is_deterministic():
    a = mlp_init(RING_G, seed=7)
    b = mlp_init(RING_G, seed=7)
    for w1, w2 in zip(a.weights, b.weights):
        assert np.array_equal(w1, w2)
    c = mlp_init(RING_G, seed=8)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_layer_shapes():
    params = mlp_init(NetworkSpec(2, (128, 128), 2), seed=0)
    assert [w.shape for w in params.weights] == [(2, 128), (128, 128), (128, 2)]
    assert [b.shape for b in params.biases] == [(128,), (128,), (2,)]
    assert all(np.all(b == 0) for b in params.biases)


def test_init_weight_scale():
    spec = NetworkSpec(100, (100,), 2)
    params = mlp_init(spec, seed=3)
    emp = np.std(params.weights[0])  # 10^4 entries
    expected = 1.0 / np.sqrt(spec.input_dim)
    assert abs(emp - expected) / expected < 0.10


@pytest.mark.parametrize("spec", [RING_G, RING_D, NetworkSpec(3, (5, 4), 2)])
@pytest.mark.parametrize("seed", [0, 7])
def test_init_equals_the_per_layer_build_bit_for_bit(spec, seed):
    """The same draws as a per-layer build: rng.normal per weight matrix,
    input to output, and zero biases, then copied into one vector."""
    rng = np.random.default_rng(seed)
    dims = spec.layer_dims
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
        layers += [w.ravel(), np.zeros(fan_out)]
    want = np.concatenate(layers)
    assert mlp_init(spec, seed).vector.tobytes() == want.tobytes()


def test_grad_vector_is_in_the_parameter_layout(rng):
    params = mlp_init(NetworkSpec(3, (5, 4), 2), 0)
    leaves = ParamLeaves(params)
    backward(generator_forward(leaves, rng.normal(size=(6, 3))).square().sum())
    grads = leaves.grad_vector()
    assert grads.shape == params.vector.shape
    for view, leaf in zip(params.spec.param_views(grads), leaves.flat()):
        assert np.array_equal(view, leaf.grad)


def test_spec_validation():
    with pytest.raises(TypeError):  # the output layer is always linear, not a setting
        NetworkSpec(2, (4,), 2, output_activation="linear")
    # an unknown hidden activation is refused by the first forward
    params = mlp_init(NetworkSpec(2, (4,), 2, hidden_activation="gelu"), 0)
    with pytest.raises(ValueError, match="unknown activation 'gelu'"):
        generator_forward(params, np.zeros((1, 2)))


def test_params_validation():
    spec = NetworkSpec(2, (4,), 2)
    bad = mlp_init(spec, 0).vector.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError):
        NetworkParams(spec, bad)


def test_flat_roundtrip():
    params = mlp_init(RING_G, 1)
    for again in (NetworkParams(RING_G, np.concatenate([a.ravel() for a in params.flat()])),
                  NetworkParams(RING_G, params.vector.copy())):
        assert np.array_equal(params.vector, again.vector)
        for a, b in zip(params.flat(), again.flat()):
            assert np.array_equal(a, b)


def test_weights_and_biases_are_views_of_the_vector(rng):
    params = mlp_init(NetworkSpec(3, (5, 4), 2), 0)
    assert params.vector.shape == (3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2,)
    for a in params.flat():
        assert np.shares_memory(a, params.vector)
    z = rng.normal(size=(6, 3))
    before = generator_forward(params, z).data
    params.weights[2][:] = 0.0
    params.biases[2][:] = 1.5
    assert np.array_equal(params.vector[-10:], [0.0] * 8 + [1.5] * 2)
    assert np.array_equal(generator_forward(params, z).data, np.full((6, 2), 1.5))
    assert not np.array_equal(before, np.full((6, 2), 1.5))


def test_from_vector_uses_the_vector_itself():
    spec = NetworkSpec(2, (4,), 2)
    vector = np.arange(2 * 4 + 4 + 4 * 2 + 2, dtype=np.float64)
    params = NetworkParams(spec, vector)
    assert params.vector is vector
    assert np.array_equal(params.weights[0], np.arange(8.0).reshape(2, 4))
    assert np.array_equal(params.biases[0], [8.0, 9.0, 10.0, 11.0])
    assert np.array_equal(params.weights[1], np.arange(12.0, 20.0).reshape(4, 2))
    assert np.array_equal(params.biases[1], [20.0, 21.0])


@pytest.mark.parametrize("size", [21, 23, 0])
def test_from_vector_rejects_wrong_length(size):
    with pytest.raises(ShapeMismatch, match=rf"22 values, got shape \({size},\)"):
        NetworkParams(NetworkSpec(2, (4,), 2), np.zeros(size))


@pytest.mark.parametrize("index,layer", [(0, 0), (11, 0), (12, 1), (21, 1)])
def test_from_vector_names_the_non_finite_layer(index, layer):
    vector = np.zeros(22)
    vector[index] = np.nan
    with pytest.raises(NonFiniteParams, match=f"non-finite values in layer {layer}$"):
        NetworkParams(NetworkSpec(2, (4,), 2), vector)


def test_zero_params_give_zero_output():
    spec = NetworkSpec(2, (8,), 2)
    zero = NetworkParams(spec, np.zeros(spec.n_params))
    out = generator_forward(zero, np.ones((5, 2)))
    assert np.array_equal(out.data, np.zeros((5, 2)))


def test_forward_is_deterministic(rng):
    params = mlp_init(RING_G, 2)
    z = rng.normal(size=(4, 2))
    a = generator_forward(params, z).data
    b = generator_forward(params, z).data
    assert np.array_equal(a, b)


def test_ring_generator_output_dim():
    params = mlp_init(RING_G, 0)
    out = generator_forward(params, np.zeros((3, 2)))
    assert out.shape == (3, 2)


def test_conditional_concat_dimensions(rng):
    spec = task_specs(parse_run_config({"task": "conditional_ring", "z_dim": 8}))[0]
    params = mlp_init(spec, 0)
    out = generator_forward(params, rng.normal(size=(6, 8)), np.eye(4)[rng.integers(0, 4, 6)])
    assert out.shape == (6, 2)
    with pytest.raises(ShapeMismatch):
        generator_forward(params, rng.normal(size=(6, 8)))  # condition missing


def test_discriminator_zero_params_logit():
    spec = NetworkSpec(2, (8, 8), 1, hidden_activation="relu")
    zero = NetworkParams(spec, np.zeros(spec.n_params))
    logit, feats = discriminator_forward(zero, np.ones((1, 2)))
    assert logit.data[0, 0] == 0.0  # sigmoid(0) = 0.5
    assert len(feats) == 2


def test_feature_list_matches_hidden_depth(rng):
    params = mlp_init(RING_D, 0)
    logits, feats = discriminator_forward(params, rng.normal(size=(3, 2)))
    assert len(feats) == len(params.spec.hidden_dims) == 2
    assert feats[0].shape == (3, 128) and feats[1].shape == (3, 128)
    assert logits.shape == (3, 1)


def test_discriminator_deterministic(rng):
    params = mlp_init(RING_D, 4)
    y = rng.normal(size=(5, 2))
    l1, f1 = discriminator_forward(params, y)
    l2, f2 = discriminator_forward(params, y)
    assert np.array_equal(l1.data, l2.data)
    assert all(np.array_equal(a.data, b.data) for a, b in zip(f1, f2))


def test_mlp_gradients_match_finite_differences(rng):
    spec = NetworkSpec(2, (6, 5), 1, hidden_activation="tanh")
    params = mlp_init(spec, 11)
    x = rng.normal(size=(3, 2))

    def head(*flat):
        out, _ = mlp_forward_vars(list(flat), spec, Var(x))
        return out.mean()

    gradcheck(head, params.flat())


def _unfused_forward(param_vars, spec, inp):
    """The MLP as one affine node per layer and a separate activation node."""
    h, hidden = inp, []
    for i in range(len(param_vars) // 2):
        h = affine(h, param_vars[2 * i], param_vars[2 * i + 1])
        if i < len(param_vars) // 2 - 1:
            h = getattr(h, spec.hidden_activation)()
            hidden.append(h)
    return h, hidden


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_fused_forward_gradients_equal_unfused_bit_for_bit(activation, rng):
    """The fused hidden layers give the gradients of an affine + activation
    chain exactly, with each hidden layer read twice (by the next layer and,
    as the feature-space regularizer does, by the loss), -0.0 weights and a
    relu unit that is dead on every row."""
    spec = NetworkSpec(3, (6, 5), 2, hidden_activation=activation)
    params = mlp_init(spec, 13)
    params.weights[0][:, 2] = -0.0
    params.weights[1][4, :] = -0.0
    params.biases[0][1] = -40.0
    x = rng.normal(size=(7, 3))
    grads = []
    for forward in (mlp_forward_vars, _unfused_forward):
        leaves = [Var(a) for a in params.flat()]
        out, hidden = forward(leaves, spec, x)
        loss = out.square().sum()
        for h in hidden:
            loss = loss - (h * -0.5).abs().sum()
        backward(loss)
        grads.append([v.grad.tobytes() for v in leaves] + [out.data.tobytes()]
                     + [h.data.tobytes() for h in hidden])
    assert grads[0] == grads[1]


@pytest.mark.parametrize("rows", [1, 2, 64])
@pytest.mark.parametrize("task", ["ring", "conditional_ring", "trajectory"])
def test_stacked_forward_gives_each_slice_its_own_bits(task, rows):
    """A (slices, rows, in) pass on constants runs one 2-D product per
    slice, so every slice's output and hidden layers equal its own 2-D
    pass bit for bit: 1-row slices (matrix-vector products), 2-row ones,
    and the trajectory G's (128, 20) output layer, whose bits change with
    the row count of a 2-D product."""
    spec = task_specs(parse_run_config({"task": task}))[0]
    params = mlp_init(spec, 3)
    x = np.random.default_rng(rows).standard_normal((5, rows, spec.input_dim))
    out, hidden = mlp_forward_vars(params.flat(), spec, x)
    assert out.shape == (5, rows, spec.output_dim)
    for k in range(5):
        ref_out, ref_hidden = mlp_forward_vars(params.flat(), spec, x[k])
        for got, ref in zip([out, *hidden], [ref_out, *ref_hidden]):
            assert np.array_equal(got.data[k], ref.data)
            assert np.array_equal(np.signbit(got.data[k]), np.signbit(ref.data))


@pytest.mark.parametrize("task", ["conditional_ring", "trajectory"])
def test_shared_condition_over_stacked_latents_is_the_per_row_call(task):
    """One (c,) condition shared by every row of a stacked (..., rows, z)
    input gives, slice by slice, the bits of the 2-D call that repeats the
    condition on each row; a per-row condition on a stacked input, or a
    shared one that needs a gradient, is refused."""
    cfg = parse_run_config({"task": task})
    spec = task_specs(cfg)[0]
    params = mlp_init(spec, 4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(spec.input_dim - cfg.z_dim)
    for rows in (1, 3):
        zs = rng.standard_normal((4, rows, cfg.z_dim))
        out = generator_forward(params, zs, x).data
        per_row = np.tile(x, (rows, 1))
        for k in range(4):
            ref = generator_forward(params, zs[k], per_row).data
            assert np.array_equal(out[k], ref)
            assert np.array_equal(generator_forward(params, zs[k], x).data, ref)
        with pytest.raises(ShapeMismatch, match=re.escape(f"condition shape {per_row.shape}")):
            generator_forward(params, zs, per_row)
    with pytest.raises(ShapeMismatch, match="condition shape"):
        with_condition(Var(x), zs[0])


@pytest.mark.parametrize("shared", [False, True])
def test_generate_runs_row_blocks(shared, monkeypatch):
    """`generate` runs G on blocks of ROW_BLOCK rows, a lone last row
    joining the block before it, and slices a per-row condition with the
    rows; each block is the 2-D call on its rows and conditions. A per-row
    condition of another length than z is refused."""
    cfg = parse_run_config({"task": "conditional_ring"})
    spec = task_specs(cfg)[0]
    params = mlp_init(spec, 6)
    rng = np.random.default_rng(7)
    calls = []

    def spy(params, z, x=None):
        calls.append((z, x))
        return generator_forward(params, z, x)

    monkeypatch.setattr(nets, "generator_forward", spy)
    B = ROW_BLOCK
    for rows, sizes in ((3, [3]), (B, [B]), (2 * B + 1, [B, B + 1]), (2 * B + 2, [B, B, 2])):
        z = rng.standard_normal((rows, cfg.z_dim))
        x = rng.standard_normal(4 if shared else (rows, 4))
        calls.clear()
        out = generate(params, z, x)
        assert [len(zb) for zb, _ in calls] == sizes
        start = 0
        for zb, xb in calls:
            stop = start + len(zb)
            assert np.array_equal(zb, z[start:stop])
            assert xb is x if shared else np.array_equal(xb, x[start:stop])
            assert np.array_equal(out[start:stop], generator_forward(params, zb, xb).data)
            start = stop
    if not shared:
        with pytest.raises(ShapeMismatch, match=re.escape("condition shape (701, 4)")):
            generate(params, z[:700], x[:701])
