import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from conftest import as_version_1, edit_vector, refit
from divgan import cli, training
from divgan.cli import MAX_COUNT, main
from divgan.config import FIELDS, ConfigError, load_run_config, parse_run_config
from divgan.data import RingMixtureSpec, TrajectorySpec
from divgan.losses import DiversityConfig, ObjectiveConfig
from divgan.metrics import EvalReport
from divgan.nets import NetworkSpec
from divgan.optim import AdamHyper
from divgan.training import TrainConfig, load_checkpoint

FAST_RING = {
    "task": "ring",
    "steps": 60,
    "batch_size": 16,
    "eval_every": 30,
    "seed": 7,
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- config parsing -----------------------------------------------------------


def test_defaults_per_task():
    ring = parse_run_config({"task": "ring"})
    assert ring.objective.diversity.weight == 0.1
    assert ring.objective.diversity.tau == 10.0
    assert ring.z_dim == 2 and ring.steps == 30000 and ring.batch_size == 128
    assert ring.adam.lr == 2e-4 and ring.adam.beta1 == 0.5

    cond = parse_run_config({"task": "conditional_ring"})
    assert cond.objective.diversity.weight == 1.0 and cond.z_dim == 8

    traj = parse_run_config({"task": "trajectory"})
    assert traj.objective.diversity.weight == 10.0
    assert traj.objective.diversity.space == "sequence"


def test_unknown_key_rejected_with_name():
    with pytest.raises(ConfigError, match="lamda"):
        parse_run_config({"lamda": 0.2})


def test_unknown_nested_key_has_path():
    with pytest.raises(ConfigError, match=r"ring\.stdd"):
        parse_run_config({"ring": {"stdd": 0.1}})


def test_tau_null_means_unbounded():
    cfg = parse_run_config({"tau": None})
    assert cfg.objective.diversity.tau is None


def test_bad_values_are_config_errors():
    with pytest.raises(ConfigError):
        parse_run_config({"task": "cifar"})
    with pytest.raises(ConfigError):
        parse_run_config({"norm": "linf"})
    with pytest.raises(ConfigError):
        parse_run_config({"steps": 0})
    with pytest.raises(ConfigError):
        parse_run_config({"lr": -1.0})


@pytest.mark.parametrize("task", ["ring", "conditional_ring", "trajectory"])
def test_every_key_sets_its_field(task):
    doc = {
        "task": task, "z_dim": 3, "batch_size": 32, "steps": 7, "seed": 5,
        "eval_every": 4, "lambda": 0.25, "tau": 2, "norm": "l2", "space": "feature", "beta": 1,
        "g_loss_form": "minimax", "lr": 1e-3, "beta1": 0, "beta2": 0.99,
        "ring": {"n_modes": 8, "radius": 3, "std": 0.05},
    }
    keys = {k for k in doc if k != "ring"} | {f"ring.{k}" for k in doc["ring"]}
    assert keys == set(FIELDS)
    want = TrainConfig(
        task=task,
        objective=ObjectiveConfig(
            beta=1.0, g_loss_form="minimax",
            diversity=DiversityConfig(weight=0.25, tau=2.0, norm="l2", space="feature"),
        ),
        ring=RingMixtureSpec(n_modes=8, radius=3.0, std=0.05),
        z_dim=3, batch_size=32, steps=7, adam=AdamHyper(lr=1e-3, beta1=0.0, beta2=0.99),
        seed=5, eval_every=4,
    )
    got = parse_run_config(doc)
    assert got == want and repr(got) == repr(want)  # repr tells 2 from 2.0


def doc_setting(key, value):
    head, _, sub = key.partition(".")
    return {head: {sub: value}} if sub else {key: value}


@pytest.mark.parametrize("key,value", [
    ("steps", 10.7), ("steps", True), ("ring.n_modes", 8.0), ("lambda", "0.5"),
    ("lambda", True), ("task", []), ("seed", -1),
    ("lambda", math.nan), ("tau", math.nan), ("lr", math.inf), ("beta", math.inf),
    ("ring.std", math.inf), ("z_dim", 10**21), ("batch_size", 10**14),
    ("ring.n_modes", 10**12),
])
def test_malformed_values_name_their_key(key, value):
    with pytest.raises(ConfigError, match=re.escape(f"'{key}'")):
        parse_run_config(doc_setting(key, value))


@pytest.mark.parametrize("cls,field,value", [
    (DiversityConfig, "weight", math.nan), (DiversityConfig, "weight", math.inf),
    (DiversityConfig, "tau", math.nan), (DiversityConfig, "tau", math.inf),
    (ObjectiveConfig, "beta", math.nan), (AdamHyper, "lr", math.nan),
    (AdamHyper, "lr", math.inf), (AdamHyper, "eps", math.nan),
    (RingMixtureSpec, "radius", math.inf), (RingMixtureSpec, "std", math.nan),
    (TrajectorySpec, "circle_radius", math.nan), (TrajectorySpec, "angle_step", math.inf),
    (TrajectorySpec, "noise_std", -math.inf),
])
def test_dataclasses_reject_non_finite(cls, field, value):
    with pytest.raises(ValueError, match="finite"):
        cls(**{field: value})


def test_config_overrides(tmp_path):
    path = write_cfg(tmp_path, {"lambda": 0.5, "norm": "l2", "beta": 2.0,
                                "ring": {"n_modes": 4, "radius": 1.0, "std": 0.05}})
    cfg = load_run_config(path)
    assert cfg.objective.diversity.weight == 0.5
    assert cfg.objective.diversity.norm == "l2"
    assert cfg.objective.beta == 2.0
    assert cfg.ring.n_modes == 4


def test_config_not_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_run_config(path)


# -- cli ------------------------------------------------------------------------


def test_train_writes_all_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, FAST_RING)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    metrics = (out / "metrics.csv").read_text()
    assert metrics.splitlines()[0].startswith("step,d_loss")
    assert len(metrics.strip().splitlines()) == 61
    final = load_checkpoint((out / "final.ckpt.json").read_bytes())
    assert final.step == 60
    load_checkpoint((out / "best.ckpt.json").read_bytes())
    report = EvalReport.from_json((out / "eval.json").read_text())
    assert report.n_samples == 2500


def _count_saves(monkeypatch) -> list:
    """Route every save_checkpoint call through a counter; returns the list
    of the saved states' steps."""
    steps, real = [], training.save_checkpoint

    def counting(state):
        steps.append(state.step)
        return real(state)

    monkeypatch.setattr(training, "save_checkpoint", counting)
    monkeypatch.setattr(cli, "save_checkpoint", counting)
    return steps


def _saved_as_it_ran(cfg) -> tuple:
    """((best step, best bytes), final bytes) with each state serialized
    when it occurs: at every new best eval, and after the last step."""
    state, best_key, best = training.init_state(cfg), None, None
    for _ in range(cfg.steps):
        state, _ = training.train_step(state, cfg)
        if state.step % cfg.eval_every == 0 or state.step == cfg.steps:
            report = training.evaluate_generator(state.params_G, cfg)
            key = (report.modes_captured, report.hq_fraction)
            if best_key is None or key > best_key:
                best_key, best = key, (state.step, training.save_checkpoint(state))
    return best, training.save_checkpoint(state)


@pytest.mark.parametrize("steps,eval_every,saved_steps", [
    (300, 100, [300, 200]),  # the best eval, at step 200, precedes the last
    (100, 100, [100]),  # one eval, at the last step: best is final
])
def test_train_serializes_each_state_once(steps, eval_every, saved_steps, tmp_path,
                                          monkeypatch):
    doc = {"task": "ring", "steps": steps, "eval_every": eval_every, "seed": 3}
    out = tmp_path / "run"
    saves = _count_saves(monkeypatch)
    assert main(["train", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    assert saves == saved_steps
    monkeypatch.undo()
    (best_step, best), final = _saved_as_it_ran(parse_run_config(doc))
    assert best_step == saved_steps[-1]
    assert (out / "best.ckpt.json").read_bytes() == best
    assert (out / "final.ckpt.json").read_bytes() == final


def test_sweep_serializes_nothing(tmp_path, monkeypatch):
    saves = _count_saves(monkeypatch)
    cfg = write_cfg(tmp_path, dict(FAST_RING, steps=20, eval_every=10))
    assert main(["sweep", "--config", cfg, "--lambdas", "0,0.1",
                 "--out", str(tmp_path / "sweep")]) == 0
    assert saves == []


def test_train_rejects_unknown_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"lamda": 0.1})
    code = main(["train", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == "config error: unknown config keys: lamda\n"


def test_train_determinism_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, FAST_RING)
    main(["train", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["train", "--config", cfg, "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b


def test_train_missing_config_is_io_error(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 4


def test_eval_reproduces_training_eval(tmp_path):
    cfg = write_cfg(tmp_path, FAST_RING)
    out = tmp_path / "run"
    main(["train", "--config", cfg, "--out", str(out)])
    code = main(["eval", str(out / "final.ckpt.json"), "--config", cfg,
                 "--out", str(tmp_path / "re.json")])
    assert code == 0
    assert (tmp_path / "re.json").read_text() == (out / "eval.json").read_text()


@pytest.mark.parametrize("text", [
    '{"steps": 1e400}', '{"task": []}', '{"steps": 2, "lambda": NaN}',
    '{"steps": 2, "seed": -1}', '{"task": "conditional_ring", "steps": 2, "ring": {"n_modes": 6}}',
    '{"steps": 1, "z_dim": 1000000000000000000000}', '{"steps": 1, "batch_size": 100000000000000}',
])
def test_train_rejects_malformed_config(text, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config key ") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["train", "--config", "CFG"], "--seed"),
    (["eval", "CKPT", "--config", "CFG"], "--seed"),
    (["sweep", "--config", "CFG", "--lambdas", "0"], "--seed"),
    (["verify", "CFG"], "--seed"),
    (["interp", "CKPT"], "--seed"),
    (["verify", "CFG", "--pairs", "0"], "--pairs"),
    (["verify", "CFG", "--probes", "0"], "--probes"),
    (["sweep", "--config", "CFG", "--lambdas", "0", "--jobs", "0"], "--jobs"),
    (["sweep", "--config", "CFG", "--lambdas", "0", "--jobs", "-5"], "--jobs"),
    (["interp", "CKPT", "--steps", "1"], "--steps"),
    (["verify", "CFG", "--probes", "10000000000000"], "--probes"),
    (["interp", "CKPT", "--steps", "10000000000000"], "--steps"),
])
def test_flag_out_of_range_exits_before_work(argv, flag, tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_RING)
    out = tmp_path / "out"
    argv = [cfg if a == "CFG" else str(tmp_path / "missing.ckpt") if a == "CKPT" else a
            for a in argv] + ["--out", str(out)]
    if flag == "--seed":
        argv += ["--seed", "-1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    bound = "<=" if int(argv[argv.index(flag) + 1]) > MAX_COUNT else ">="
    assert f"argument {flag}: must be {bound} " in capsys.readouterr().err
    assert not out.exists()


def test_eval_missing_checkpoint(tmp_path):
    cfg = write_cfg(tmp_path, FAST_RING)
    assert main(["eval", str(tmp_path / "missing.ckpt"), "--config", cfg,
                 "--out", str(tmp_path / "r.json")]) == 4


def test_eval_spec_mismatch(tmp_path):
    cfg = write_cfg(tmp_path, FAST_RING)
    out = tmp_path / "run"
    main(["train", "--config", cfg, "--out", str(out)])
    other = write_cfg(tmp_path, dict(FAST_RING, task="conditional_ring", z_dim=4), "c2.json")
    assert main(["eval", str(out / "final.ckpt.json"), "--config", other,
                 "--out", str(tmp_path / "r.json")]) == 2


def test_eval_report_has_exact_fields(tmp_path):
    cfg = write_cfg(tmp_path, FAST_RING)
    out = tmp_path / "run"
    main(["train", "--config", cfg, "--out", str(out)])
    doc = json.loads((out / "eval.json").read_text())
    assert set(doc) == {"modes_captured", "hq_fraction", "pairwise_diversity",
                        "dist_min", "frechet2", "n_samples"}


def test_sweep_summary_rows(tmp_path):
    cfg = write_cfg(tmp_path, dict(FAST_RING, steps=20, eval_every=10))
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", cfg, "--lambdas", "0,0.05,0.1,0.5",
                 "--out", str(out), "--jobs", "2"])
    assert code == 0
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert lines[0] == "lambda,modes,hq_frac,diversity,frechet"
    assert len(lines) == 5
    doc = json.loads((out / "sweep.json").read_text())
    assert [e["lambda"] for e in doc] == [0.0, 0.05, 0.1, 0.5]


@pytest.mark.parametrize("lambdas", ["0,-1", "nan", "0.1,inf"])
def test_sweep_rejects_bad_lambdas(lambdas, tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(FAST_RING, steps=2, eval_every=2))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--lambdas", lambdas, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: bad --lambdas: ")
    assert not out.exists()


def test_verify_passes_on_untrained_generator(tmp_path):
    cfg = write_cfg(tmp_path, FAST_RING)
    out = tmp_path / "verify.json"
    code = main(["verify", cfg, "--out", str(out), "--pairs", "20", "--probes", "200"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"]
    assert doc["gradient_bound"]["violations"] == 0
    assert doc["attraction"]["counterexamples"] == 0


def test_verify_accepts_checkpoint(tmp_path):
    cfg = write_cfg(tmp_path, FAST_RING)
    run = tmp_path / "run"
    main(["train", "--config", cfg, "--out", str(run)])
    code = main(["verify", str(run / "final.ckpt.json"),
                 "--out", str(tmp_path / "v.json"), "--pairs", "10", "--probes", "100"])
    assert code == 0


def test_interp_emits_requested_rows(tmp_path):
    cfg = write_cfg(tmp_path, FAST_RING)
    run = tmp_path / "run"
    main(["train", "--config", cfg, "--out", str(run)])
    out = tmp_path / "interp.csv"
    code = main(["interp", str(run / "final.ckpt.json"), "--out", str(out),
                 "--steps", "9", "--mode", "slerp"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "step,z0,z1,y0,y1,slerp_fallback"
    assert len(lines) == 10


@pytest.mark.parametrize("task", ["conditional_ring", "trajectory"])
def test_verify_and_interp_refuse_conditional_checkpoint(task, tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(FAST_RING, task=task, steps=2, eval_every=2))
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    ckpt = str(run / "final.ckpt.json")
    capsys.readouterr()
    assert main(["verify", ckpt, "--out", str(tmp_path / "v.json"),
                 "--pairs", "2", "--probes", "10"]) == 2
    assert "unconditional" in capsys.readouterr().err
    assert main(["interp", ckpt, "--out", str(tmp_path / "i.csv")]) == 2
    assert "unconditional" in capsys.readouterr().err
    assert not (tmp_path / "v.json").exists() and not (tmp_path / "i.csv").exists()


def trained_checkpoint_doc(tmp_path):
    cfg = write_cfg(tmp_path, dict(FAST_RING, steps=2, eval_every=2))
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    return cfg, json.loads((run / "final.ckpt.json").read_text())


@pytest.mark.parametrize("corruption", ["nan_weight", "negative_dim"])
def test_eval_and_interp_reject_bad_weights(corruption, tmp_path, capsys):
    cfg, doc = trained_checkpoint_doc(tmp_path)
    if corruption == "nan_weight":
        edit_vector(doc, "params_G", "vector", lambda v: np.r_[np.nan, v[1:]])
    else:
        doc["params_G"]["spec"]["input_dim"] = -1
    ckpt = write_cfg(tmp_path, doc, "bad.ckpt.json")
    capsys.readouterr()
    assert main(["eval", ckpt, "--config", cfg, "--out", str(tmp_path / "e.json")]) == 2
    assert capsys.readouterr().err.startswith("checkpoint error: malformed checkpoint")
    assert main(["interp", ckpt, "--out", str(tmp_path / "i.csv")]) == 2
    assert capsys.readouterr().err.startswith("checkpoint error: malformed checkpoint")
    assert not (tmp_path / "e.json").exists() and not (tmp_path / "i.csv").exists()


@pytest.mark.parametrize("key,value,message", [
    ("input_dim", 2.5, "input_dim must be an integer >= 1, got 2.5"),
    ("hidden_dims", [128.9, 128], "hidden_dims must be a list of integers >= 1, got [128.9, 128]"),
    ("init_scale", "7", 'init_scale must be a finite positive number, got "7"'),
    ("output_dim", True, "output_dim must be an integer >= 1, got true"),
])
def test_eval_rejects_mistyped_spec(key, value, message, tmp_path, capsys):
    cfg, doc = trained_checkpoint_doc(tmp_path)
    doc["params_G"]["spec"][key] = value
    ckpt = write_cfg(tmp_path, doc, "bad.ckpt.json")
    capsys.readouterr()
    assert main(["eval", ckpt, "--config", cfg, "--out", str(tmp_path / "e.json")]) == 2
    assert capsys.readouterr().err == f"checkpoint error: malformed checkpoint: NetworkSpec: {message}\n"
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("network,moment,value,what", [
    ("adam_G", "m", float("nan"), "is not finite"),
    ("adam_D", "v", -1.0, "is negative"),
])
def test_eval_rejects_impossible_adam_moments(network, moment, value, what, tmp_path, capsys):
    cfg, doc = trained_checkpoint_doc(tmp_path)
    edit_vector(doc, network, moment, lambda v: np.r_[value, v[1:]])
    ckpt = write_cfg(tmp_path, doc, "bad.ckpt.json")
    capsys.readouterr()
    assert main(["eval", ckpt, "--config", cfg, "--out", str(tmp_path / "e.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"checkpoint error: malformed checkpoint: {network}.{moment} {what}\n"
    assert not (tmp_path / "e.json").exists()


def test_eval_rejects_negative_adam_step_count(tmp_path, capsys):
    cfg, doc = trained_checkpoint_doc(tmp_path)
    doc["adam_G"]["t"] = -1
    ckpt = write_cfg(tmp_path, doc, "bad.ckpt.json")
    capsys.readouterr()
    assert main(["eval", ckpt, "--config", cfg, "--out", str(tmp_path / "e.json")]) == 2
    err = capsys.readouterr().err
    assert err == ("checkpoint error: malformed checkpoint: "
                   "adam_G.t must be an integer >= 0, got -1\n")
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("command", ["eval", "verify", "interp"])
def test_version_1_checkpoint_is_refused(command, tmp_path, capsys):
    cfg, doc = trained_checkpoint_doc(tmp_path)
    ckpt = write_cfg(tmp_path, as_version_1(doc), "v1.ckpt.json")
    out = str(tmp_path / "out")
    argv = {"eval": ["eval", ckpt, "--config", cfg, "--out", out],
            "verify": ["verify", ckpt, "--out", out, "--pairs", "2", "--probes", "10"],
            "interp": ["interp", ckpt, "--out", out]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "checkpoint error: unsupported checkpoint version 1 (expected 2)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("d_input_dim", [1, 5])
def test_verify_and_interp_refuse_a_discriminator_that_does_not_fit(d_input_dim, tmp_path,
                                                                    capsys):
    """D reading 1 value cannot judge G's 2; D reading 5 would leave G's
    2 inputs a 3-dim condition and a -1-dim latent."""
    _, doc = trained_checkpoint_doc(tmp_path)
    refit(doc, "params_D", input_dim=d_input_dim)
    ckpt = write_cfg(tmp_path, doc, "bad.ckpt.json")
    want = (f"checkpoint error: malformed checkpoint: params_D (input_dim {d_input_dim}, "
            "output_dim 1) does not fit params_G (input_dim 2, output_dim 2)\n")
    capsys.readouterr()
    assert main(["verify", ckpt, "--out", str(tmp_path / "v.json"),
                 "--pairs", "2", "--probes", "10"]) == 2
    assert capsys.readouterr().err == want
    assert main(["interp", ckpt, "--out", str(tmp_path / "i.csv")]) == 2
    assert capsys.readouterr().err == want
    assert not (tmp_path / "v.json").exists() and not (tmp_path / "i.csv").exists()


def overflowing_checkpoint(tmp_path, weight=1e308):
    """A finite checkpoint with G's last-layer weights at `weight`: 1e308
    overflows G's output, 1e200 only the squared distances on it."""
    cfg, doc = trained_checkpoint_doc(tmp_path)

    def huge_last_weights(vector):
        NetworkSpec.from_dict(doc["params_G"]["spec"]).param_views(vector)[-2][...] = weight
        return vector

    edit_vector(doc, "params_G", "vector", huge_last_weights)
    return cfg, write_cfg(tmp_path, doc, "huge.ckpt.json")


def test_verify_overflowing_generator_fails_verification(tmp_path, capsys):
    _, ckpt = overflowing_checkpoint(tmp_path)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        assert main(["verify", ckpt, "--out", str(tmp_path / "v.json"),
                     "--pairs", "2", "--probes", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failed: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "v.json").exists()


def test_verify_huge_generator_output_fails_verification(tmp_path, capsys):
    # outputs ~1e201 are finite, but the distances on them overflow
    _, ckpt = overflowing_checkpoint(tmp_path, 1e200)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", ckpt, "--out", str(tmp_path / "v.json"),
                     "--pairs", "2", "--probes", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failed: non-finite ") and len(err.splitlines()) == 1
    assert not (tmp_path / "v.json").exists()


def test_interp_overflowing_generator_is_checkpoint_error(tmp_path, capsys):
    _, ckpt = overflowing_checkpoint(tmp_path)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["interp", ckpt, "--out", str(tmp_path / "i.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error: latent_interpolation: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "i.csv").exists()


@pytest.mark.parametrize("weight", [1e308, 1e200])
def test_eval_overflowing_generator_is_checkpoint_error(weight, tmp_path, capsys):
    cfg, ckpt = overflowing_checkpoint(tmp_path, weight)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval", ckpt, "--config", cfg, "--out", str(tmp_path / "e.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "e.json").exists()


def test_train_overflowing_evaluation_is_divergence(tmp_path, capsys, monkeypatch):
    real_step = training.train_step

    def step_then_overflow(state, cfg):
        state, row = real_step(state, cfg)
        if state.step == 4:
            state.params_G.weights[-1][:] = 1e308  # finite weights, overflowing output
        return state, row

    monkeypatch.setattr(training, "train_step", step_then_overflow)
    cfg = write_cfg(tmp_path, dict(FAST_RING, steps=6, eval_every=2))
    out = tmp_path / "run"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("divergence: divergence at step 4: ") and len(err.splitlines()) == 1
    lines = (out / "metrics.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4"]
    assert lines[2].count(",") == 10 and not lines[2].endswith(",")  # step 2's eval landed
    assert lines[4].endswith(",,,,,")  # step 4 ran, its evaluation did not
    assert not (out / "final.ckpt.json").exists()


def test_seed_override_changes_run(tmp_path):
    cfg = write_cfg(tmp_path, FAST_RING)
    main(["train", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "1"])
    main(["train", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "2"])
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a != b
