import json
import os

import numpy as np
import pytest

from divgan.cli import main
from divgan.config import ConfigError, load_run_config, parse_run_config
from divgan.metrics import EvalReport
from divgan.training import load_checkpoint

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


def test_train_rejects_unknown_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"lamda": 0.1})
    code = main(["train", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "lamda" in capsys.readouterr().err


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


def test_seed_override_changes_run(tmp_path):
    cfg = write_cfg(tmp_path, FAST_RING)
    main(["train", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "1"])
    main(["train", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "2"])
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a != b
