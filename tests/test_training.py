import concurrent.futures
import copy
import itertools
import json
import re
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import (
    as_version_2,
    edit_header,
    edit_vector,
    objective,
    traced_peak,
    version_4_document,
)
from divgan import metrics, training
from divgan.autodiff import backward
from divgan.config import parse_run_config, to_document
from divgan.data import (
    RingMixtureSpec,
    TrajectorySpec,
    label_of,
    nearest_modes,
    sample_conditional_ring,
)
from divgan.losses import (
    DiversityConfig,
    ObjectiveConfig,
    d_loss,
    g_adv_loss,
    generate_fakes,
    generator_total_loss,
    reconstruction_loss,
)
from divgan.nets import (
    ROW_BLOCK,
    NetworkParams,
    NetworkSpec,
    discriminator_forward,
    generate,
    generator_forward,
)
from divgan.optim import adam_step
from divgan.training import (
    CheckpointError,
    CSV_HEADER,
    EVAL_SAMPLES,
    DivergenceError,
    MetricRow,
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
)


def small_cfg(**kw):
    base = dict(task="ring", steps=5, batch_size=8, eval_every=2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def run(cfg):
    """(state, rows) of cfg's whole run: the stepped state and every row."""
    state = init_state(cfg)
    return state, list(train(state))


def test_one_step_emits_one_row():
    state, rows = run(small_cfg(steps=1))
    assert len(rows) == 1
    assert rows[0].step == 1
    assert state.step == 1


def test_step_determinism():
    cfg = small_cfg()
    (s1, r1), (s2, r2) = run(cfg), run(cfg)
    assert rows_to_csv(r1) == rows_to_csv(r2)
    for a, b in zip(s1.params_G.flat(), s2.params_G.flat()):
        assert np.array_equal(a, b)


def test_train_steps_the_state_it_is_given():
    """The caller's state is stepped in place; rows carry an eval every
    eval_every steps and at the last; a state at its config's steps has no
    step left."""
    state, rows = run(small_cfg(steps=5, eval_every=2))
    assert [r.step for r in rows] == [1, 2, 3, 4, 5] and state.step == 5
    assert [r.step for r in rows if r.eval is not None] == [2, 4, 5]
    assert rows[-1].eval == evaluate_generator(state.params_G, state.config)
    assert list(train(state)) == [] and state.step == 5


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
    obj = ObjectiveConfig(diversity=DiversityConfig(weight=0.0))
    fakes, res = objective(state.params_G, state.params_D, obj, z1, z2)
    backward(res.total)
    grads_with_logging = [v.grad.copy() for v in fakes.leaves.flat()]

    from divgan.autodiff import Var
    from divgan.nets import mlp_forward_vars

    gvars = [Var(p) for p in state.params_G.flat()]
    y1, _ = mlp_forward_vars(gvars, state.params_G.spec, Var(z1))
    bare = g_adv_loss(discriminator_forward(state.params_D, y1)[0])
    backward(bare)
    for a, v in zip(grads_with_logging, gvars):
        assert np.array_equal(a, v.grad)


def test_steady_ring_step_traced_peak():
    """A steady ring step at the task defaults peaks at most 3.0 MB of
    traced allocations: ~1.9 MB with each phase's graph and every interior
    gradient freed once read, ~4.2 MB when they lived to the step's end."""
    cfg = parse_run_config({"task": "ring", "seed": 0})
    state = init_state(cfg)
    for _ in range(5):
        state, _ = train_step(state, cfg)
    assert traced_peak(lambda: train_step(state, cfg)) <= 3.0e6


@pytest.mark.parametrize("task", ["ring", "conditional_ring", "trajectory"])
def test_evaluation_traced_peak(task):
    """An evaluation at the task defaults peaks at most 3.5 MB of traced
    allocations: 1.2-2.4 MB with G run in 512-row blocks, 5.2-6.5 MB when
    one pass over its 2500 rows held a 2500 x 128 array per hidden layer."""
    cfg = parse_run_config({"task": task, "seed": 0})
    params_G = init_state(cfg).params_G
    evaluate_generator(params_G, cfg)
    assert traced_peak(lambda: evaluate_generator(params_G, cfg)) <= 3.5e6


@pytest.mark.parametrize("z_dim", [1, 2, 8, 32])
@pytest.mark.parametrize("task", ["ring", "conditional_ring", "trajectory"])
def test_blocked_evaluation_equals_one_pass(task, z_dim, monkeypatch):
    """Evaluation's fakes, from G in blocks of `nets.ROW_BLOCK` rows, have
    the bits of one `generator_forward` over all EVAL_SAMPLES rows."""
    assert EVAL_SAMPLES > ROW_BLOCK
    cfg = parse_run_config({"task": task, "z_dim": z_dim, "seed": 0})
    same = []

    def checked(params, z, x=None):
        out = generate(params, z, x)
        same.append(np.array_equal(out, generator_forward(params, z, x).data))
        return out

    monkeypatch.setattr(training, "generate", checked)
    evaluate_generator(init_state(cfg).params_G, cfg)
    assert same == [True]


@pytest.mark.parametrize("task", ["ring", "conditional_ring", "trajectory"])
def test_each_phase_graph_is_freed_before_the_next(task, monkeypatch):
    """D's graph (its leaves, logits and loss) is gone when D's Adam update
    runs, while the fakes live on for G; G's graph (its leaves, both fakes
    and the loss) is gone when G's Adam update runs."""
    d_graph, g_graph, seen = [], [], []

    def gone(refs):
        return [r() is None for r in refs]

    class TrackedLeaves(training.ParamLeaves):
        def __init__(self, params):
            super().__init__(params)
            d_graph.append(weakref.ref(self))

    def d_forward(*args):
        logits, feats = discriminator_forward(*args)
        d_graph.append(weakref.ref(logits.data))
        return logits, feats

    def loss_d(*args):
        out = d_loss(*args)
        d_graph.append(weakref.ref(out.data))
        return out

    def fakes(*args, **kwargs):
        out = generate_fakes(*args, **kwargs)
        g_graph.extend(weakref.ref(o) for o in (out, out.leaves, out.y1.data, out.y2.data))
        return out

    def g_loss(*args):
        seen.append(("G objective", gone(d_graph)))
        res = generator_total_loss(*args)
        g_graph.extend([weakref.ref(res), weakref.ref(res.total.data)])
        return res

    def adam(vector, grad, adam_state, t, hyper):
        seen.append(("Adam", gone(d_graph), gone(g_graph)))
        return adam_step(vector, grad, adam_state, t, hyper)

    monkeypatch.setattr(training, "ParamLeaves", TrackedLeaves)
    monkeypatch.setattr(training, "discriminator_forward", d_forward)
    monkeypatch.setattr(training, "d_loss", loss_d)
    monkeypatch.setattr(training, "generate_fakes", fakes)
    monkeypatch.setattr(training, "generator_total_loss", g_loss)
    monkeypatch.setattr(training, "adam_step", adam)
    cfg = small_cfg(task=task, z_dim=4)
    train_step(init_state(cfg), cfg)
    assert seen == [("Adam", [True] * 4, [False] * 4), ("G objective", [True] * 4),
                    ("Adam", [True] * 4, [True] * 6)]


def _replay_batch(cfg, rng):
    """The draws a conditional_ring step makes before it runs G: the real
    batch, then z1, then z2."""
    batch = sample_conditional_ring(cfg.ring, cfg.batch_size, rng)
    z1 = rng.standard_normal((cfg.batch_size, cfg.z_dim))
    z2 = rng.standard_normal((cfg.batch_size, cfg.z_dim))
    return batch.x, batch.y, z1, z2


def test_train_step_steps_only_with_its_states_config():
    """A step given a config other than the state's is refused before it
    draws; one given an equal copy steps as with the state's own object."""
    state = init_state(parse_run_config({"batch_size": 8}))
    rng_before = state.rng.bit_generator.state
    with pytest.raises(ValueError, match="the config it was made from"):
        train_step(state, parse_run_config({"batch_size": 8, "lambda": 5.0}))
    assert state.step == 0 and state.rng.bit_generator.state == rng_before

    twin = init_state(parse_run_config({"batch_size": 8}))
    copy_of_config = parse_run_config({"batch_size": 8})
    assert copy_of_config is not state.config
    state, row = train_step(state, copy_of_config)
    twin, twin_row = train_step(twin, twin.config)
    assert row == twin_row and save_checkpoint(state) == save_checkpoint(twin)


def test_one_step_draws_one_batch_and_one_pair_of_fakes():
    """D scores the step's real batch against G(x, z1) with the pre-step
    parameters; G's adversarial part runs the updated D on the same fake;
    the step draws nothing beyond the batch, z1 and z2."""
    cfg = small_cfg(task="conditional_ring", z_dim=4)
    state = init_state(cfg)
    params_G, params_D = state.params_G, state.params_D  # steps replace them
    rng = copy.deepcopy(state.rng)
    x, y, z1, _ = _replay_batch(cfg, rng)
    state, row = train_step(state, cfg)

    fake = generator_forward(params_G, z1, x)
    want = d_loss(discriminator_forward(params_D, y, x)[0],
                  discriminator_forward(params_D, fake, x)[0])
    assert row.d_loss == want.item()
    g_adv = g_adv_loss(discriminator_forward(state.params_D, fake, x)[0])
    assert row.g_adv == g_adv.item()
    assert state.rng.bit_generator.state == rng.bit_generator.state


def test_reconstruction_trains_deterministically_on_conditional_ring():
    """beta > 0 with lambda > 0: g_rec is G(x, z1)'s L1 error on the real
    batch D saw, and a run's checkpoints and metric log repeat byte for
    byte."""
    cfg = small_cfg(task="conditional_ring", z_dim=4, seed=3,
                    objective=ObjectiveConfig(beta=1.0, diversity=DiversityConfig(weight=1.0)))
    state = init_state(cfg)
    params_G = state.params_G
    x, y, z1, _ = _replay_batch(cfg, copy.deepcopy(state.rng))
    _, row = train_step(state, cfg)
    assert row.g_rec > 0
    assert row.g_rec == reconstruction_loss(generator_forward(params_G, z1, x), y).item()

    runs = [run(cfg) for _ in range(2)]
    (a, b) = [(save_checkpoint(state), rows_to_csv(rows)) for state, rows in runs]
    assert a == b
    assert all(r.g_rec > 0 for r in runs[0][1])


def _label_generator(split: bool) -> NetworkParams:
    """A tanh G for the 4-label ring with z_dim 2 that puts label k on the
    centre of its first mode or, with split, of its first or its second
    mode by the sign of z's first coordinate."""
    centers = RingMixtureSpec().centers()
    g_spec = NetworkSpec(4 + 2, (8,), 2)
    params = NetworkParams(g_spec, np.zeros(g_spec.n_params))
    (w0, w1), (b0, b1) = params.weights, params.biases
    owners = label_of(np.arange(len(centers)))
    for k in range(4):
        first, second = centers[owners == k]
        w0[k, k] = 50.0  # hidden unit k: 1 on label k, else 0
        w1[k] = first
        if split:
            # hidden unit 4 + k: sign(z0) on label k, -1 on the others;
            # (unit + 1) / 2 moves label k to its second mode when z0 > 0
            w0[k, 4 + k], w0[4, 4 + k], b0[4 + k] = 1e4, 1e3, -1e4
            w1[4 + k] = (second - first) / 2
            b1 += (second - first) / 2
    return params


@pytest.mark.parametrize("split,labels,modes", [(False, 0, 4), (True, 4, 8)])
def test_conditional_eval_reports_per_label_coverage(split, labels, modes):
    """A G that ignores z covers no label's two modes; one that splits each
    label over its two modes covers all four. Every high-quality sample
    lands in its own label's modes either way."""
    cfg = TrainConfig(task="conditional_ring", z_dim=2)
    report = evaluate_generator(_label_generator(split), cfg)
    assert report.modes_captured == modes
    assert report.labels_covered == labels
    assert report.in_label_frac == 1.0
    doc = json.loads(report.to_json())
    assert doc["labels_covered"] == labels and doc["in_label_frac"] == 1.0


def test_untrained_conditional_eval_has_no_in_label_fraction():
    """No sample of an untrained G is high quality, so the share of them in
    their own label's modes is unknown: None, and eval.json leaves it out."""
    cfg = TrainConfig(task="conditional_ring", z_dim=8, seed=0)
    report = evaluate_generator(init_state(cfg).params_G, cfg)
    assert report.hq_fraction == 0.0 and report.labels_covered == 0
    assert report.in_label_frac is None
    assert "in_label_frac" not in json.loads(report.to_json())


def test_conditional_eval_finds_nearest_modes_once(monkeypatch):
    calls = []

    def spy(points, spec):
        calls.append(len(points))
        return nearest_modes(points, spec)

    monkeypatch.setattr(training, "nearest_modes", spy)
    monkeypatch.setattr(metrics, "nearest_modes", spy)
    cfg = small_cfg(task="conditional_ring", z_dim=8)
    evaluate_generator(init_state(cfg).params_G, cfg)
    assert calls == [EVAL_SAMPLES]


@pytest.mark.parametrize("task", ["ring", "trajectory"])
def test_unconditional_eval_json_has_no_per_label_keys(task):
    cfg = small_cfg(task=task, z_dim=4)
    report = evaluate_generator(init_state(cfg).params_G, cfg)
    assert report.labels_covered is None and report.in_label_frac is None
    assert "labels_covered" not in report.to_json()
    assert "in_label_frac" not in report.to_json()


def test_lz_logged_within_tau():
    cfg = small_cfg(steps=4)
    tau = cfg.objective.diversity.tau
    for row in run(cfg)[1]:
        assert 0.0 <= row.l_z <= tau


def test_csv_header_and_eval_columns():
    cfg = small_cfg(steps=4, eval_every=2)
    text = rows_to_csv(run(cfg)[1])
    lines = text.strip().splitlines()
    # the log columns, then EvalReport's fields; metrics.csv keeps these columns
    assert lines[0] == CSV_HEADER == ("step,d_loss,g_adv,g_rec,l_z,ratio_mean,"
                                      "modes_captured,hq_fraction,pairwise_diversity,dist_min,"
                                      "frechet2,n_samples,labels_covered,in_label_frac")
    assert CSV_HEADER.split(",")[6:] == list(metrics.EVAL_COLUMNS)
    # steps 1 and 3 carry no eval columns; 2 and 4 do (ring has no per-label fields)
    assert lines[1].endswith(",,,,,,,,")
    assert lines[2].count(",") == 13 and lines[2].endswith("2500,,")


def test_csv_writes_numbers_as_repr_and_none_as_empty():
    report = metrics.EvalReport(modes_captured=4, hq_fraction=1 / 3, pairwise_diversity=0.0,
                                dist_min=5e-324, frechet2=-0.0, n_samples=10,
                                labels_covered=None, in_label_frac=1.0)
    row = MetricRow(step=3, d_loss=0.1, g_adv=1e-300, g_rec=0.0, l_z=-0.0,
                    ratio_mean=2.5, eval=report)
    line = rows_to_csv([row]).splitlines()[1]
    assert line == "3,0.1,1e-300,0.0,-0.0,2.5,4,0.3333333333333333,0.0,5e-324,-0.0,10,,1.0"


def test_a_row_without_an_eval_has_only_empty_eval_cells():
    assert [f.name for f in fields(MetricRow)] == ["step", "d_loss", "g_adv", "g_rec", "l_z",
                                                   "ratio_mean", "eval"]
    row = MetricRow(step=1, d_loss=0.5, g_adv=0.7, g_rec=0.0, l_z=0.1, ratio_mean=0.1)
    cells = rows_to_csv([row]).splitlines()[1].split(",")
    assert cells == ["1", "0.5", "0.7", "0.0", "0.1", "0.1"] + [""] * len(metrics.EVAL_COLUMNS)


def test_divergence_carries_step_and_rows():
    """The error names the step; the rows before it are the caller's, since
    a step that diverges yields none."""
    cfg = small_cfg(steps=10, adam=replace(TrainConfig().adam, lr=1e150))
    rows = []
    with pytest.raises(DivergenceError) as err:
        for row in train(init_state(cfg)):
            rows.append(row)
    assert err.value.step >= 1
    assert [r.step for r in rows] == list(range(1, err.value.step))
    assert not hasattr(err.value, "rows")


def test_overflowing_evaluation_yields_its_row_then_diverges(monkeypatch):
    """An evaluation of a G whose output overflows: its step's row comes
    first, without an eval, then DivergenceError names that step."""
    real_step = training.train_step

    def step_then_overflow(state, cfg):
        state, row = real_step(state, cfg)
        if state.step == 4:
            state.params_G.weights[-1][:] = 1e308  # finite weights, overflowing output
        return state, row

    monkeypatch.setattr(training, "train_step", step_then_overflow)
    state, rows = init_state(small_cfg(steps=6, eval_every=2)), []
    with pytest.raises(DivergenceError, match="^divergence at step 4: evaluate_generator: "):
        for row in train(state):
            rows.append(row)
    assert [r.step for r in rows] == [1, 2, 3, 4] and state.step == 4
    assert rows[1].eval is not None and rows[3].eval is None


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
    state, rows = run(cfg)
    again = evaluate_generator(state.params_G, cfg)
    assert again == rows[-1].eval


def test_conditional_task_runs():
    cfg = small_cfg(task="conditional_ring", z_dim=4, steps=2)
    assert run(cfg)[1][-1].eval.n_samples == EVAL_SAMPLES


def test_trajectory_task_runs():
    cfg = small_cfg(
        task="trajectory", z_dim=4, steps=2,
        objective=ObjectiveConfig(diversity=DiversityConfig(weight=1.0, space="sequence")),
    )
    assert 0 <= run(cfg)[1][-1].eval.modes_captured <= 2


# -- checkpoints ------------------------------------------------------------


def assert_same_state(a, b):
    """Every parameter and moment vector bitwise equal, and config, step
    and the rng state equal."""
    assert a.config == b.config
    for pa, pb in ((a.params_G, b.params_G), (a.params_D, b.params_D)):
        assert pa.spec == pb.spec and pa.vector.tobytes() == pb.vector.tobytes()
    for sa, sb in ((a.adam_G, b.adam_G), (a.adam_D, b.adam_D)):
        assert sa.m.tobytes() == sb.m.tobytes() and sa.v.tobytes() == sb.v.tobytes()
    assert a.step == b.step
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


@pytest.mark.parametrize("task", ["ring", "conditional_ring", "trajectory"])
def test_checkpoint_v5_roundtrip_is_byte_exact(task):
    cfg = small_cfg(task=task, z_dim=4, steps=2)
    state, _ = run(cfg)
    assert state.config == cfg
    blob = save_checkpoint(state)
    assert blob.startswith(training.CHECKPOINT_START)  # how `divgan verify` tells it apart
    head, newline, tail = blob.partition(b"\n")
    assert newline and head.isascii()
    doc = json.loads(head)
    assert list(doc) == ["version", "config", "step", "rng_state"]  # step is the one count
    assert doc["version"] == 5 and doc["config"] == to_document(cfg)
    g_spec, d_spec = task_specs(cfg)
    assert len(tail) == 8 * 3 * (g_spec.n_params + d_spec.n_params)
    loaded = load_checkpoint(blob)
    assert loaded.config == cfg
    assert (loaded.params_G.spec, loaded.params_D.spec) == task_specs(cfg)
    assert_same_state(loaded, state)
    assert save_checkpoint(loaded) == blob
    loaded.params_G.weights[0][0, 0] = 0.5  # the loaded vectors are native and writable
    assert loaded.params_G.vector[0] == 0.5


def test_checkpoint_vector_golden_encoding():
    """The tail starts right after the header's newline with params_G's
    little-endian float64 bytes."""
    state = init_state(small_cfg())
    state.params_G.vector[:4] = [1.0, -0.0, 5e-324, -2.5]
    blob = save_checkpoint(state)
    start = blob.index(b"\n") + 1
    assert blob[start:start + 32] == bytes.fromhex(
        "000000000000f03f" "0000000000000080" "0100000000000000" "00000000000004c0")
    assert load_checkpoint(blob).params_G.vector.tobytes() == state.params_G.vector.tobytes()


def plain_save_checkpoint(state):
    """The writer as json.dumps of the header document, a newline, then each
    vector's little-endian float64 bytes in turn: save_checkpoint must give
    these bytes."""
    header = {
        "version": 5,
        "config": to_document(state.config),
        "step": state.step,
        "rng_state": state.rng.bit_generator.state,
    }
    vectors = (state.params_G.vector, state.params_D.vector,
               state.adam_G.m, state.adam_G.v, state.adam_D.m, state.adam_D.v)
    return json.dumps(header).encode("utf-8") + b"\n" + b"".join(
        np.asarray(v, "<f8").tobytes() for v in vectors)


@pytest.mark.parametrize("task", ["ring", "conditional_ring", "trajectory"])
def test_save_checkpoint_matches_plain_json_dumps(task):
    state, _ = run(small_cfg(task=task, z_dim=4, steps=2))
    assert save_checkpoint(state) == plain_save_checkpoint(state)
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    for vector in (state.params_G.vector, state.params_D.vector, state.adam_G.m,
                   state.adam_G.v, state.adam_D.m, state.adam_D.v):
        vector[:4] = extremes
    assert save_checkpoint(state) == plain_save_checkpoint(state)


def test_checkpoint_version_2_is_refused():
    doc = as_version_2(version_4_document(init_state(small_cfg())))
    with pytest.raises(CheckpointError,
                       match=r"^unsupported checkpoint version 2 \(expected 5\)$"):
        load_checkpoint(json.dumps(doc).encode())


def test_checkpoint_version_4_is_refused():
    # version 4's one JSON document has no newline, so its version is read whole
    blob = json.dumps(version_4_document(init_state(small_cfg()))).encode()
    with pytest.raises(CheckpointError,
                       match=r"^unsupported checkpoint version 4 \(expected 5\)$"):
        load_checkpoint(blob)


@pytest.mark.parametrize("edit,message", [
    (lambda d: d.update(note="x", spec_G={}), "unknown keys: note, spec_G"),
    (lambda d: d.update(params_G=""), "unknown keys: params_G"),
    (lambda d: d.update(adam_D={"t": 1000}), "unknown keys: adam_D"),
    (lambda d: d["rng_state"].update(note=1), "rng_state: unknown keys: note"),
    (lambda d: d["rng_state"]["state"].update(extra=2), "rng_state.state: unknown keys: extra"),
])
def test_checkpoint_unknown_keys_are_refused(edit, message):
    """A version 5 header holds its keys and no others: a stray key, such as
    a vector left over from version 4 or an Adam step count beside the run's
    step, is an error."""
    blob = edit_header(save_checkpoint(init_state(small_cfg())), edit)
    with pytest.raises(CheckpointError, match=f"^malformed checkpoint: {re.escape(message)}$"):
        load_checkpoint(blob)


def test_checkpoint_version_4_layout_marked_version_5_is_refused():
    # version 4's vectors and version 3's g_loss_form config key are stray now
    doc = version_4_document(init_state(small_cfg()))
    doc["version"] = 5
    with pytest.raises(CheckpointError, match="^malformed checkpoint: "
                       "unknown keys: adam_D, adam_G, params_D, params_G$"):
        load_checkpoint(json.dumps(doc).encode())
    blob = edit_header(save_checkpoint(init_state(small_cfg())),
                       lambda d: d["config"].update(g_loss_form="non_saturating"))
    with pytest.raises(CheckpointError,
                       match="^malformed checkpoint: unknown config keys: g_loss_form$"):
        load_checkpoint(blob)


@pytest.mark.parametrize("task", ["ring", "conditional_ring", "trajectory"])
def test_loaded_checkpoint_steps_like_the_run_it_came_from(task):
    """k steps, a save and load, then N - k more give the state of N
    uninterrupted steps bit for bit: Adam's bias correction reads the
    restored step, and the rng continues its stream. Through the run loop
    the resumed run also logs rows k+1..N of the uninterrupted one, with k
    on an eval step and off one."""
    cfg = small_cfg(task=task, z_dim=4, steps=6)
    whole = init_state(cfg)
    for _ in range(cfg.steps):
        whole, _ = train_step(whole, cfg)
    resumed = init_state(cfg)
    for _ in range(2):
        resumed, _ = train_step(resumed, cfg)
    resumed = load_checkpoint(save_checkpoint(resumed))
    for _ in range(cfg.steps - 2):
        resumed, _ = train_step(resumed, resumed.config)
    assert resumed.step == cfg.steps
    assert_same_state(resumed, whole)

    final, rows = run(cfg)
    assert_same_state(final, whole)
    for k in (2, 3):  # a multiple of eval_every, and not one
        state = init_state(cfg)
        head = list(itertools.islice(train(state), k))
        resumed = load_checkpoint(save_checkpoint(state))
        tail = list(train(resumed))
        assert [r.step for r in tail] == list(range(k + 1, cfg.steps + 1))
        assert rows_to_csv(tail) == rows_to_csv(rows[k:])
        assert rows_to_csv(head + tail) == rows_to_csv(rows)
        assert save_checkpoint(resumed) == save_checkpoint(final)


def test_checkpoint_roundtrip_exact():
    cfg = small_cfg(steps=3)
    state, _ = run(cfg)
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
    # the JSON integer 5 only, as strictly as step is read
    blob = save_checkpoint(init_state(small_cfg()))
    for version in (999, 5.0, True, "5", None, 4, 3, 2, 1):
        want = re.escape(f"unsupported checkpoint version {json.dumps(version)} (expected 5)")
        with pytest.raises(CheckpointError, match=f"^{want}$"):
            load_checkpoint(edit_header(blob, lambda d, v=version: d.update(version=v)))


def test_checkpoint_shape_mismatch():
    blob = edit_vector(save_checkpoint(init_state(small_cfg())), "params_G",
                       lambda v: v[3:])  # W0 three values short
    with pytest.raises(CheckpointError):
        load_checkpoint(blob)


# each corruption takes a version 5 blob and returns the corrupted blob


def _nan_weight(blob):
    return edit_vector(blob, "params_G", lambda v: np.r_[np.nan, v[1:]])


def _negative_dim(blob):
    return edit_header(blob, lambda d: d["config"].update(z_dim=-1))


def _no_config(blob):
    return edit_header(blob, lambda d: d.pop("config"))


def _foreign_rng(blob):
    return edit_header(blob, lambda d: d["rng_state"].update(bit_generator="MT19937"))


def _adam_shape(blob):
    return edit_vector(blob, "adam_G.m", lambda v: v[:-1])


def _step_overflow(blob):
    return edit_header(blob, lambda d: d.update(step=float("inf")))


def _one_float_short(blob):
    return edit_vector(blob, "params_D", lambda v: v[:-1])


def _step_negative(blob):
    return edit_header(blob, lambda d: d.update(step=-7))


def _step_string(blob):
    return edit_header(blob, lambda d: d.update(step="3"))


def _step_huge_float(blob):
    return edit_header(blob, lambda d: d.update(step=1e300))


# counts that are not JSON integers >= 0, each named exactly
COUNT_MESSAGES = {
    _step_negative: "step must be an integer >= 0, got -7",
    _step_string: 'step must be an integer >= 0, got "3"',
    _step_huge_float: "step must be an integer >= 0, got 1e+300",
}


@pytest.mark.parametrize("corrupt", [_nan_weight, _negative_dim, _no_config, _foreign_rng,
                                     _adam_shape, _step_overflow, _one_float_short,
                                     *COUNT_MESSAGES])
def test_checkpoint_bad_values_are_checkpoint_errors(corrupt):
    blob = corrupt(save_checkpoint(init_state(small_cfg())))
    message = COUNT_MESSAGES.get(corrupt)
    match = ("malformed checkpoint" if message is None
             else f"^malformed checkpoint: {re.escape(message)}$")
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(blob)


@pytest.mark.parametrize("network,moment,value,what", [
    ("adam_G", "m", float("nan"), "is not finite"),
    ("adam_D", "m", float("-inf"), "is not finite"),
    ("adam_G", "v", float("inf"), "is not finite"),
    ("adam_D", "v", -1e-300, "is negative"),
])
def test_checkpoint_impossible_adam_moments_are_refused(network, moment, value, what):
    blob = edit_vector(save_checkpoint(init_state(small_cfg())), f"{network}.{moment}",
                       lambda v: np.r_[v[0], value, v[2:]])
    with pytest.raises(CheckpointError,
                       match=f"^malformed checkpoint: {network}.{moment} {what}$"):
        load_checkpoint(blob)


@pytest.mark.parametrize("task,edit", [
    ("ring", {"z_dim": 3}),
    ("ring", {"task": "conditional_ring"}),
    ("conditional_ring", {"task": "trajectory"}),
    ("trajectory", {"z_dim": 2}),
])
def test_checkpoint_whose_config_does_not_fit_its_vectors_is_refused(task, edit):
    """The stored config sets both networks' layouts, and with them the
    tail's length: one edited to another latent size or task refuses the
    tail by its byte count."""
    cfg = small_cfg(task=task, z_dim=4)
    blob = edit_header(save_checkpoint(init_state(cfg)), lambda d: d["config"].update(edit))
    have = sum(spec.n_params for spec in task_specs(cfg))
    want = sum(spec.n_params for spec in task_specs(replace(cfg, **edit)))
    with pytest.raises(CheckpointError, match=f"^malformed checkpoint: {24 * have} bytes of "
                       f"vectors after the header, not {24 * want}$"):
        load_checkpoint(blob)


def test_checkpoint_with_the_smallest_latent_loads():
    cfg = small_cfg(task="conditional_ring", z_dim=1)
    loaded = load_checkpoint(save_checkpoint(init_state(cfg)))
    assert loaded.config == cfg
    assert loaded.params_G.spec.input_dim == 5  # the 4-dim condition and a 1-dim latent


def test_save_checkpoint_refuses_a_config_no_document_holds():
    cfg = small_cfg(task="trajectory", z_dim=4, traj=TrajectorySpec(horizon=5))
    with pytest.raises(ValueError, match="no config key holds"):
        save_checkpoint(init_state(cfg))


# -- sweep --------------------------------------------------------------------


def test_sweep_runs_each_config_in_order():
    cfgs = [small_cfg(steps=2, seed=3), small_cfg(steps=2, task="conditional_ring", z_dim=4),
            small_cfg(steps=2, task="trajectory", z_dim=4)]
    entries = sweep(cfgs)
    assert [e.config for e in entries] == cfgs
    assert [e.report for e in entries] == [run(cfg)[1][-1].eval for cfg in cfgs]
    assert all(e.error is None for e in entries)
    with pytest.raises(ValueError, match="empty config list"):
        sweep([])


def test_sweep_records_divergence_and_continues():
    good = small_cfg(steps=3)
    bad = replace(good, adam=replace(TrainConfig().adam, lr=1e150))
    entries = sweep([bad, good])
    assert entries[0].config == bad
    assert entries[0].report is None and "divergence" in entries[0].error
    assert entries[1].report == run(good)[1][-1].eval and entries[1].error is None


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

        def __init__(self, max_workers, initializer):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # sweep imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfgs = [small_cfg(steps=2), small_cfg(steps=2, seed=1)]
    entries = sweep(cfgs, jobs=64)
    assert started == [2]
    assert [e.config for e in entries] == cfgs
    sweep(cfgs[:1], jobs=64)
    assert started == [2]  # one run needs no pool


def _blas_threads(task):
    """A sweep job that reports its process's OpenBLAS thread count."""
    return training._openblas().scipy_openblas_get_num_threads64_()


def test_sweep_workers_run_one_blas_thread(monkeypatch):
    """Forked workers see the patched job; the parent runs two threads."""
    lib = training._openblas()
    if getattr(lib, "scipy_openblas_get_num_threads64_", None) is None:
        pytest.skip("numpy's OpenBLAS has no thread-count getter here")
    before = lib.scipy_openblas_get_num_threads64_()
    monkeypatch.setattr(training, "_sweep_one", _blas_threads)
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        assert lib.scipy_openblas_get_num_threads64_() == 2
        threads = sweep([small_cfg(steps=2), small_cfg(steps=2, seed=1)], jobs=2)
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
    assert threads == [1, 1]


@pytest.mark.parametrize("lib", [None, object()], ids=["no_library", "no_setter"])
def test_blas_initializer_without_a_setter_does_nothing(lib, monkeypatch):
    monkeypatch.setattr(training, "_openblas", lambda: lib)
    assert training._one_blas_thread() is None


@pytest.mark.parametrize("names", [
    ("openblas_set_num_threads",),
    ("openblas_set_num_threads64_", "openblas_set_num_threads"),
    ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"),
], ids=["plain_only", "system_64", "wheel_first"])
def test_blas_initializer_calls_the_first_setter_name_found(names, monkeypatch):
    """A numpy linked to a system OpenBLAS exports the setter under another
    name than the wheels' scipy_openblas one; the first of the names in
    _BLAS_SETTERS' order is called, with 1."""
    calls = []
    lib = type("FakeOpenBLAS", (), {})()
    for name in names:
        setattr(lib, name, lambda n, name=name: calls.append((name, n)))
    monkeypatch.setattr(training, "_openblas", lambda: lib)
    training._one_blas_thread()
    assert calls == [(names[0], 1)]


def test_train_config_rejects_negative_seed_and_unsplittable_ring():
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError, match="ring modes"):
        TrainConfig(task="conditional_ring", ring=RingMixtureSpec(n_modes=6))
    TrainConfig(task="ring", ring=RingMixtureSpec(n_modes=6))
