import numpy as np
import pytest
from dataclasses import replace

from divgan import training
from divgan.autodiff import backward
from divgan.data import RingMixtureSpec
from divgan.losses import DiversityConfig, ObjectiveConfig, TrainBatch, generator_total_loss
from divgan.nets import NetworkParams
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
    grads_with_logging = [v.grad.copy() for v in res.param_vars]

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


def test_checkpoint_roundtrip_exact():
    cfg = small_cfg(steps=3)
    result = train(cfg)
    state = result.state
    blob = save_checkpoint(state)
    loaded = load_checkpoint(blob)
    assert loaded.step == state.step
    for a, b in zip(state.params_G.flat(), loaded.params_G.flat()):
        assert np.array_equal(a, b)
    for a, b in zip(state.adam_D.m, loaded.adam_D.m):
        assert np.array_equal(a, b)
    assert loaded.rng.bit_generator.state == state.rng.bit_generator.state
    # the restored rng continues the exact stream
    assert np.array_equal(loaded.rng.standard_normal(3), state.rng.standard_normal(3))


def test_checkpoint_truncated_blob():
    blob = save_checkpoint(init_state(small_cfg()))
    with pytest.raises(CheckpointError):
        load_checkpoint(blob[: len(blob) // 2])


def test_checkpoint_version_check():
    import json

    doc = json.loads(save_checkpoint(init_state(small_cfg())))
    doc["version"] = 999
    with pytest.raises(CheckpointError, match="999"):
        load_checkpoint(json.dumps(doc).encode())


def test_checkpoint_shape_mismatch():
    import json

    doc = json.loads(save_checkpoint(init_state(small_cfg())))
    doc["params_G"]["values"][0] = doc["params_G"]["values"][0][:-3]
    with pytest.raises(CheckpointError):
        load_checkpoint(json.dumps(doc).encode())


def _nan_weight(doc):
    doc["params_G"]["values"][0][0] = float("nan")  # json writes NaN and reads it back


def _negative_dim(doc):
    doc["params_D"]["spec"]["input_dim"] = -1


def _foreign_rng(doc):
    doc["rng_state"]["bit_generator"] = "MT19937"


def _adam_shape(doc):
    doc["adam_G"]["m"][0] = doc["adam_G"]["m"][0][:-1]


def _step_overflow(doc):
    doc["step"] = float("inf")


@pytest.mark.parametrize("corrupt", [_nan_weight, _negative_dim, _foreign_rng,
                                     _adam_shape, _step_overflow])
def test_checkpoint_bad_values_are_checkpoint_errors(corrupt):
    import json

    doc = json.loads(save_checkpoint(init_state(small_cfg())))
    corrupt(doc)
    with pytest.raises(CheckpointError, match="malformed checkpoint"):
        load_checkpoint(json.dumps(doc).encode())


def test_warm_start_loads_discriminator_exactly(tmp_path):
    cfg = small_cfg(steps=2)
    result = train(cfg)
    path = tmp_path / "pre.ckpt.json"
    path.write_bytes(result.final_checkpoint)
    warm_cfg = small_cfg(steps=1, seed=99, warm_start_discriminator=str(path))
    state = init_state(warm_cfg)
    for a, b in zip(state.params_D.flat(), result.state.params_D.flat()):
        assert np.array_equal(a, b)
    # generator is fresh, not the checkpointed one
    assert not np.array_equal(state.params_G.weights[0], result.state.params_G.weights[0])


def test_warm_start_spec_mismatch(tmp_path):
    cfg = small_cfg(task="conditional_ring", z_dim=4, steps=1)
    result = train(cfg)
    path = tmp_path / "pre.ckpt.json"
    path.write_bytes(result.final_checkpoint)
    with pytest.raises(Exception, match="spec"):
        init_state(small_cfg(warm_start_discriminator=str(path)))


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


def test_train_config_rejects_negative_seed_and_unsplittable_ring():
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError, match="ring modes"):
        TrainConfig(task="conditional_ring", ring=RingMixtureSpec(n_modes=6))
    TrainConfig(task="ring", ring=RingMixtureSpec(n_modes=6))
