import json
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import as_version_1, edit_vector, refit
from divgan import training
from divgan.autodiff import backward
from divgan.data import MAX_SIZE, RingMixtureSpec
from divgan.losses import DiversityConfig, ObjectiveConfig, TrainBatch, generator_total_loss
from divgan.nets import NetworkParams, NetworkSpec
from divgan.optim import AdamState
from divgan.training import (
    CheckpointError,
    CSV_HEADER,
    DivergenceError,
    TrainConfig,
    evaluate_generator,
    init_state,
    load_checkpoint,
    rows_to_csv,
    save_checkpoint,
    sweep,
    task_specs,
    train,
    train_step,
    with_weight,
)


def small_cfg(**kw):
    base = dict(task="ring", steps=5, batch_size=8, eval_every=2, eval_samples=40, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_one_step_emits_one_row():
    cfg = small_cfg(steps=1)
    result = train(cfg)
    assert len(result.rows) == 1
    assert result.rows[0].step == 1
    assert result.state.step == 1


def test_step_determinism():
    cfg = small_cfg()
    r1 = train(cfg)
    r2 = train(cfg)
    assert rows_to_csv(r1.rows) == rows_to_csv(r2.rows)
    for a, b in zip(r1.state.params_G.flat(), r2.state.params_G.flat()):
        assert np.array_equal(a, b)


def test_one_step_touches_every_parameter():
    cfg = small_cfg(steps=1)
    state0 = init_state(cfg)
    before_G = [p.copy() for p in state0.params_G.flat()]
    before_D = [p.copy() for p in state0.params_D.flat()]
    state, _ = train_step(state0, cfg)
    for old, new in zip(before_G, state.params_G.flat()):
        assert not np.array_equal(old, new)
    for old, new in zip(before_D, state.params_D.flat()):
        assert not np.array_equal(old, new)


def test_z_blind_generator_logs_zero_lz():
    cfg = small_cfg(steps=3)
    state = init_state(cfg)
    for _ in range(3):
        state.params_G.weights[0][:] = 0.0  # ignore z at the input layer
        state, row = train_step(state, cfg)
        assert row.l_z == 0.0


def test_lambda_zero_matches_term_free_build():
    """With weight 0 the generator gradient equals a hand-built loss with
    the regularizer removed entirely."""
    cfg = small_cfg(steps=1)
    state = init_state(cfg)
    z1 = state.rng.standard_normal((4, 2))
    z2 = state.rng.standard_normal((4, 2))
    batch = TrainBatch(z1=z1, z2=z2)
    obj = ObjectiveConfig(diversity=DiversityConfig(weight=0.0))
    res = generator_total_loss(batch, state.params_G, state.params_D, obj)
    backward(res.total)
    grads_with_logging = [v.grad.copy() for v in res.leaves.flat()]

    from divgan.autodiff import Var
    from divgan.losses import g_adv_loss
    from divgan.nets import discriminator_forward, mlp_forward_vars

    gvars = [Var(p) for p in state.params_G.flat()]
    y1, _ = mlp_forward_vars(gvars, state.params_G.spec, Var(z1))
    bare = g_adv_loss(discriminator_forward(state.params_D, y1)[0], "non_saturating")
    backward(bare)
    for a, v in zip(grads_with_logging, gvars):
        assert np.array_equal(a, v.grad)


def test_lz_logged_within_tau():
    cfg = small_cfg(steps=4)
    tau = cfg.objective.diversity.tau
    result = train(cfg)
    for row in result.rows:
        assert 0.0 <= row.l_z <= tau


def test_csv_header_and_eval_columns():
    cfg = small_cfg(steps=4, eval_every=2)
    result = train(cfg)
    text = rows_to_csv(result.rows)
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    # steps 1 and 3 carry no eval columns; 2 and 4 do
    assert lines[1].endswith(",,,,,")
    assert lines[2].count(",") == 10 and not lines[2].endswith(",")


def test_divergence_carries_step_and_rows():
    cfg = small_cfg(steps=10, adam=replace(TrainConfig().adam, lr=1e150))
    with pytest.raises(DivergenceError) as err:
        train(cfg)
    assert err.value.step >= 1
    assert isinstance(err.value.rows, list)


@pytest.mark.parametrize("task", ["ring", "conditional_ring"])
def test_nan_in_discriminator_hidden_layer_diverges_at_once(task):
    """+-1e308 weights on the two sample coordinates sum to inf - inf: NaN
    pre-activations that the relu passes on to D's loss. The first step fails."""
    cfg = small_cfg(task=task, z_dim=2)
    state = init_state(cfg)
    state.params_D.weights[0][-2:, :5] = [[1e308], [-1e308]]
    with pytest.raises(DivergenceError, match="at step 1: d_loss: non-finite discriminator loss"):
        train_step(state, cfg)


def test_infinite_discriminator_loss_diverges_at_once():
    """On trajectories the same weights overflow D's logits to +-inf while
    D's gradients stay finite: only the loss itself shows the divergence."""
    cfg = small_cfg(task="trajectory", batch_size=16, seed=1)
    state = init_state(cfg)
    state.params_D.weights[0][-2:, :5] = [[1e308], [-1e308]]
    with pytest.raises(DivergenceError, match="at step 1: d_loss: non-finite discriminator loss"):
        train_step(state, cfg)


def test_evaluation_is_reproducible():
    cfg = small_cfg()
    result = train(cfg)
    again = evaluate_generator(result.state.params_G, cfg)
    assert again == result.eval_report


def test_conditional_task_runs():
    cfg = small_cfg(task="conditional_ring", z_dim=4, steps=2)
    result = train(cfg)
    assert result.eval_report.n_samples == cfg.eval_samples


def test_trajectory_task_runs():
    cfg = small_cfg(
        task="trajectory", z_dim=4, steps=2,
        objective=ObjectiveConfig(diversity=DiversityConfig(weight=1.0, space="sequence")),
    )
    result = train(cfg)
    assert 0 <= result.eval_report.modes_captured <= 2


# -- checkpoints ------------------------------------------------------------


def assert_same_state(a, b):
    """Every parameter and moment vector bitwise equal, and step, Adam t
    and the rng state equal."""
    for pa, pb in ((a.params_G, b.params_G), (a.params_D, b.params_D)):
        assert pa.spec == pb.spec and pa.vector.tobytes() == pb.vector.tobytes()
    for sa, sb in ((a.adam_G, b.adam_G), (a.adam_D, b.adam_D)):
        assert sa.m.tobytes() == sb.m.tobytes() and sa.v.tobytes() == sb.v.tobytes()
        assert sa.t == sb.t
    assert a.step == b.step
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


@pytest.mark.parametrize("task", ["ring", "conditional_ring", "trajectory"])
def test_checkpoint_v2_roundtrip_is_byte_exact(task):
    state = train(small_cfg(task=task, z_dim=4, steps=2)).state
    blob = save_checkpoint(state)
    doc = json.loads(blob)
    assert doc["version"] == 2
    assert sorted(doc) == ["adam_D", "adam_G", "params_D", "params_G", "rng_state",
                           "step", "version"]  # no duplicate specs
    assert isinstance(doc["params_G"]["vector"], str) and isinstance(doc["adam_D"]["v"], str)
    loaded = load_checkpoint(blob)
    assert_same_state(loaded, state)
    assert save_checkpoint(loaded) == blob
    loaded.params_G.weights[0][0, 0] = 0.5  # the loaded vectors are native and writable
    assert loaded.params_G.vector[0] == 0.5


def test_checkpoint_vector_golden_encoding():
    """A vector is stored as base64 of its little-endian float64 bytes."""
    spec = NetworkSpec(1, (1,), 1)  # W0, b0, W1, b1: four parameters
    state = init_state(small_cfg())
    state.params_G = NetworkParams.from_vector(spec, np.array([1.0, -0.0, 5e-324, -2.5]))
    state.params_D = NetworkParams.from_vector(spec, np.ones(4))  # D reads G's one output
    state.adam_G = AdamState(m=np.zeros(4), v=np.zeros(4), t=0)
    state.adam_D = AdamState(m=np.zeros(4), v=np.zeros(4), t=0)
    blob = save_checkpoint(state)
    assert json.loads(blob)["params_G"]["vector"] == "AAAAAAAA8D8AAAAAAAAAgAEAAAAAAAAAAAAAAAAABMA="
    assert load_checkpoint(blob).params_G.vector.tobytes() == state.params_G.vector.tobytes()


def test_checkpoint_version_1_is_refused():
    doc = as_version_1(json.loads(save_checkpoint(init_state(small_cfg()))))
    with pytest.raises(CheckpointError,
                       match=r"^unsupported checkpoint version 1 \(expected 2\)$"):
        load_checkpoint(json.dumps(doc).encode())


def test_checkpoint_roundtrip_exact():
    cfg = small_cfg(steps=3)
    result = train(cfg)
    state = result.state
    blob = save_checkpoint(state)
    loaded = load_checkpoint(blob)
    assert loaded.step == state.step
    for a, b in zip(state.params_G.flat(), loaded.params_G.flat()):
        assert np.array_equal(a, b)
    assert np.array_equal(state.adam_D.m, loaded.adam_D.m)
    assert loaded.rng.bit_generator.state == state.rng.bit_generator.state
    # the restored rng continues the exact stream
    assert np.array_equal(loaded.rng.standard_normal(3), state.rng.standard_normal(3))


def test_checkpoint_truncated_blob():
    blob = save_checkpoint(init_state(small_cfg()))
    with pytest.raises(CheckpointError):
        load_checkpoint(blob[: len(blob) // 2])


def test_checkpoint_version_check():
    doc = json.loads(save_checkpoint(init_state(small_cfg())))
    doc["version"] = 999
    with pytest.raises(CheckpointError, match="999"):
        load_checkpoint(json.dumps(doc).encode())


def test_checkpoint_shape_mismatch():
    doc = json.loads(save_checkpoint(init_state(small_cfg())))
    edit_vector(doc, "params_G", "vector", lambda v: v[3:])  # W0 three values short
    with pytest.raises(CheckpointError):
        load_checkpoint(json.dumps(doc).encode())


def _nan_weight(doc):
    edit_vector(doc, "params_G", "vector", lambda v: np.r_[np.nan, v[1:]])


def _negative_dim(doc):
    doc["params_D"]["spec"]["input_dim"] = -1


def _foreign_rng(doc):
    doc["rng_state"]["bit_generator"] = "MT19937"


def _adam_shape(doc):
    edit_vector(doc, "adam_G", "m", lambda v: v[:-1])


def _step_overflow(doc):
    doc["step"] = float("inf")


def _sigmoid_output(doc):
    doc["params_G"]["spec"]["output_activation"] = "sigmoid"  # no network has one


def _bad_base64(doc):
    vector = doc["params_G"]["vector"]
    doc["params_G"]["vector"] = vector[:8] + "*" + vector[8:]  # not in the alphabet


def _one_float_short(doc):
    edit_vector(doc, "params_D", "vector", lambda v: v[:-1])


def _list_for_base64(doc):
    doc["params_D"]["vector"] = [0.0] * len(init_state(small_cfg()).params_D.vector)


def _adam_t_negative(doc):
    doc["adam_G"]["t"] = -1  # the next Adam step would divide by zero


def _adam_t_fraction(doc):
    doc["adam_G"]["t"] = 2.7


def _adam_t_bool(doc):
    doc["adam_D"]["t"] = True


def _step_negative(doc):
    doc["step"] = -7


def _step_string(doc):
    doc["step"] = "3"


def _step_huge_float(doc):
    doc["step"] = 1e300


# counts that are not JSON integers >= 0, each named exactly
COUNT_MESSAGES = {
    _adam_t_negative: "adam_G.t must be an integer >= 0, got -1",
    _adam_t_fraction: "adam_G.t must be an integer >= 0, got 2.7",
    _adam_t_bool: "adam_D.t must be an integer >= 0, got true",
    _step_negative: "step must be an integer >= 0, got -7",
    _step_string: 'step must be an integer >= 0, got "3"',
    _step_huge_float: "step must be an integer >= 0, got 1e+300",
}


@pytest.mark.parametrize("corrupt", [_nan_weight, _negative_dim, _foreign_rng,
                                     _adam_shape, _step_overflow, _sigmoid_output,
                                     _bad_base64, _one_float_short, _list_for_base64,
                                     *COUNT_MESSAGES])
def test_checkpoint_bad_values_are_checkpoint_errors(corrupt):
    doc = json.loads(save_checkpoint(init_state(small_cfg())))
    corrupt(doc)
    message = COUNT_MESSAGES.get(corrupt)
    match = ("malformed checkpoint" if message is None
             else f"^malformed checkpoint: {re.escape(message)}$")
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(json.dumps(doc).encode())


# stored spec values that int()/float() would round or coerce, each refused
# with its exact message
SPEC_MESSAGES = [
    ("input_dim", 2.5, "input_dim must be an integer >= 1, got 2.5"),
    ("input_dim", True, "input_dim must be an integer >= 1, got true"),
    ("output_dim", "2", 'output_dim must be an integer >= 1, got "2"'),
    ("output_dim", 0, "output_dim must be an integer >= 1, got 0"),
    ("hidden_dims", [128.9, 128],
     "hidden_dims must be a list of integers >= 1, got [128.9, 128]"),
    ("hidden_dims", [True, 128], "hidden_dims must be a list of integers >= 1, got [true, 128]"),
    ("hidden_dims", "128", 'hidden_dims must be a list of integers >= 1, got "128"'),
    ("init_scale", "7", 'init_scale must be a finite positive number, got "7"'),
    ("init_scale", True, "init_scale must be a finite positive number, got true"),
    ("init_scale", float("nan"), "init_scale must be a finite positive number, got NaN"),
    ("init_scale", -1.0, "init_scale must be a finite positive number, got -1.0"),
]


@pytest.mark.parametrize("key,value,message", SPEC_MESSAGES)
def test_checkpoint_spec_with_wrong_types_is_refused(key, value, message):
    doc = json.loads(save_checkpoint(init_state(small_cfg())))
    doc["params_D"]["spec"][key] = value
    with pytest.raises(CheckpointError,
                       match=f"^malformed checkpoint: NetworkSpec: {re.escape(message)}$"):
        load_checkpoint(json.dumps(doc).encode())


def test_checkpoint_spec_accepts_an_integer_init_scale():
    doc = json.loads(save_checkpoint(init_state(small_cfg())))
    doc["params_G"]["spec"]["init_scale"] = 1
    assert load_checkpoint(json.dumps(doc).encode()).params_G.spec.init_scale == 1.0


@pytest.mark.parametrize("network,moment,value,what", [
    ("adam_G", "m", float("nan"), "is not finite"),
    ("adam_D", "m", float("-inf"), "is not finite"),
    ("adam_G", "v", float("inf"), "is not finite"),
    ("adam_D", "v", -1e-300, "is negative"),
])
def test_checkpoint_impossible_adam_moments_are_refused(network, moment, value, what):
    doc = json.loads(save_checkpoint(init_state(small_cfg())))
    edit_vector(doc, network, moment, lambda v: np.r_[v[0], value, v[2:]])
    with pytest.raises(CheckpointError,
                       match=f"^malformed checkpoint: {network}.{moment} {what}$"):
        load_checkpoint(json.dumps(doc).encode())


@pytest.mark.parametrize("task,network,dims,described", [
    # D reads fewer values than G writes
    ("ring", "params_D", dict(input_dim=1), "params_D (input_dim 1, output_dim 1) "
     "does not fit params_G (input_dim 2, output_dim 2)"),
    # D's extra 3 inputs would be a condition that leaves G no latent
    ("ring", "params_D", dict(input_dim=5), "params_D (input_dim 5, output_dim 1) "
     "does not fit params_G (input_dim 2, output_dim 2)"),
    ("ring", "params_D", dict(output_dim=2), "params_D (input_dim 2, output_dim 2) "
     "does not fit params_G (input_dim 2, output_dim 2)"),
    # a 4-dim condition and no latent
    ("conditional_ring", "params_G", dict(input_dim=4), "params_D (input_dim 6, output_dim 1) "
     "does not fit params_G (input_dim 4, output_dim 2)"),
])
def test_checkpoint_whose_discriminator_does_not_fit_the_generator_is_refused(
        task, network, dims, described):
    doc = json.loads(save_checkpoint(init_state(small_cfg(task=task, z_dim=2))))
    refit(doc, network, **dims)
    with pytest.raises(CheckpointError, match=f"^malformed checkpoint: {re.escape(described)}$"):
        load_checkpoint(json.dumps(doc).encode())


def test_checkpoint_with_the_smallest_latent_loads():
    doc = json.loads(save_checkpoint(init_state(small_cfg(task="conditional_ring", z_dim=2))))
    refit(doc, "params_G", input_dim=5)  # the 4-dim condition and a 1-dim latent
    assert load_checkpoint(json.dumps(doc).encode()).params_G.spec.input_dim == 5


# -- sweep --------------------------------------------------------------------


def test_sweep_single_lambda_is_vanilla():
    entries = sweep(small_cfg(steps=2), [0.0])
    assert len(entries) == 1
    assert entries[0].weight == 0.0
    assert entries[0].report is not None


def test_sweep_reports_carry_lambda():
    entries = sweep(small_cfg(steps=2), [0.0, 0.1])
    assert [e.weight for e in entries] == [0.0, 0.1]
    assert all(e.report is not None for e in entries)


def test_sweep_records_divergence_and_continues():
    bad = replace(small_cfg(steps=3), adam=replace(TrainConfig().adam, lr=1e150))
    entries = sweep(bad, [0.0])
    assert entries[0].report is None and "divergence" in entries[0].error


def test_with_weight_only_touches_lambda():
    cfg = small_cfg()
    new = with_weight(cfg, 0.7)
    assert new.objective.diversity.weight == 0.7
    assert new.objective.diversity.tau == cfg.objective.diversity.tau
    assert new.seed == cfg.seed


def test_task_specs_dimensions():
    g, d = task_specs(small_cfg())
    assert g.input_dim == 2 and g.output_dim == 2 and d.input_dim == 2
    g, d = task_specs(small_cfg(task="conditional_ring", z_dim=8))
    assert g.input_dim == 12 and d.input_dim == 6
    g, d = task_specs(small_cfg(task="trajectory", z_dim=8))
    assert g.input_dim == 12 and g.output_dim == 20 and d.input_dim == 24


def test_sweep_starts_no_more_workers_than_runs(monkeypatch):
    started = []

    class SerialPool:
        """Records max_workers and runs the map in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(training, "ProcessPoolExecutor", SerialPool)
    entries = sweep(small_cfg(steps=2), [0.0, 0.1], jobs=64)
    assert started == [2]
    assert [e.weight for e in entries] == [0.0, 0.1]
    sweep(small_cfg(steps=2), [0.0], jobs=64)
    assert started == [2]  # one run needs no pool


@pytest.mark.parametrize("eval_samples", [2, 0, MAX_SIZE + 1])
def test_train_config_rejects_eval_samples_out_of_range(eval_samples):
    with pytest.raises(ValueError, match=re.escape(f"eval_samples must be in [3, {MAX_SIZE}]")):
        small_cfg(eval_samples=eval_samples)


def test_smallest_eval_samples_evaluates():
    assert train(small_cfg(steps=1, eval_samples=3)).eval_report.n_samples == 3


def test_train_config_rejects_negative_seed_and_unsplittable_ring():
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError, match="ring modes"):
        TrainConfig(task="conditional_ring", ring=RingMixtureSpec(n_modes=6))
    TrainConfig(task="ring", ring=RingMixtureSpec(n_modes=6))
