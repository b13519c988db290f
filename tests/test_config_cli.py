import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import as_version_2, as_version_3, edit_header, edit_vector, version_4_document
from divgan import cli, training
from divgan.cli import MAX_COUNT, main
from divgan.config import FIELDS, ConfigError, parse_run_config, read_json, to_document
from divgan.data import RingMixtureSpec, TrajectorySpec
from divgan.losses import DiversityConfig, ObjectiveConfig
from divgan.metrics import EVAL_COLUMNS, EvalReport
from divgan.optim import AdamHyper
from divgan.training import CheckpointError, TrainConfig, load_checkpoint

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
        "lr": 1e-3, "beta1": 0, "beta2": 0.99,
        "ring": {"n_modes": 8, "radius": 3, "std": 0.05},
    }
    keys = {k for k in doc if k != "ring"} | {f"ring.{k}" for k in doc["ring"]}
    assert keys == set(FIELDS)
    want = TrainConfig(
        task=task,
        objective=ObjectiveConfig(
            beta=1.0,
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


# every key, at a value none of the tasks' defaults has
OTHER_VALUES = {
    "task": "trajectory", "z_dim": 3, "batch_size": 32, "steps": 7, "seed": 5,
    "eval_every": 4, "lambda": 0.25, "tau": None, "norm": "l2", "space": "feature",
    "beta": 1.5, "lr": 1e-3, "beta1": 0.0, "beta2": 0.99,
    "ring.n_modes": 12, "ring.radius": 3.0, "ring.std": 0.05,
}


# conditional_ring's 4 labels of 2 modes fix its n_modes at 8
@pytest.mark.parametrize("task,key", [
    (task, key) for task in ("ring", "conditional_ring", "trajectory") for key in FIELDS
    if (task, key) != ("conditional_ring", "ring.n_modes")
])
def test_to_document_is_parse_run_config_inverse(task, key):
    assert set(OTHER_VALUES) == set(FIELDS)
    cfg = parse_run_config({"task": task, **doc_setting(key, OTHER_VALUES[key])})
    out = to_document(cfg)
    assert set(out) == {k for k in FIELDS if "." not in k} | {"ring"}
    assert set(out["ring"]) == {"n_modes", "radius", "std"}
    back = parse_run_config(json.loads(json.dumps(out)))
    assert back == cfg and repr(back) == repr(cfg)  # repr tells 2 from 2.0


def test_to_document_writes_tau_none_as_null():
    text = json.dumps(to_document(parse_run_config({"tau": None})))
    assert '"tau": null' in text


def test_to_document_refuses_a_field_no_key_holds():
    cfg = parse_run_config({"task": "trajectory"})
    with pytest.raises(ValueError, match="no config key"):
        to_document(replace(cfg, traj=replace(cfg.traj, horizon=cfg.traj.horizon + 1)))


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
    (AdamHyper, "lr", math.inf),
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
    cfg = parse_run_config(read_json(path, "config"))
    assert cfg.objective.diversity.weight == 0.5
    assert cfg.objective.diversity.norm == "l2"
    assert cfg.objective.beta == 2.0
    assert cfg.ring.n_modes == 4


def test_config_not_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_run_config(read_json(path, "config"))


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
    for row in training.train(state):
        if row.eval is not None:
            key = (row.eval.modes_captured, row.eval.hq_fraction)
            if best_key is None or key > best_key:
                best_key, best = key, (state.step, training.save_checkpoint(state))
    return best, training.save_checkpoint(state)


@pytest.mark.parametrize("steps,eval_every,saved_steps", [
    (300, 100, [300, 200]),  # the best eval, at step 200, precedes the last
    (100, 100, [100]),  # one eval, at the last step: best is final
])
def test_train_serializes_each_state_once(steps, eval_every, saved_steps, tmp_path,
                                          monkeypatch):
    doc = {"task": "ring", "steps": steps, "eval_every": eval_every, "seed": 2}
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
    """`eval CKPT` evaluates with the config the checkpoint carries, --seed
    override included, on every task."""
    for task in ("ring", "conditional_ring", "trajectory"):
        cfg = write_cfg(tmp_path, dict(FAST_RING, task=task, steps=4, eval_every=2))
        out = tmp_path / task
        assert main(["train", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        assert main(["eval", str(out / "final.ckpt.json"), "--out", str(tmp_path / "re.json")]) == 0
        assert (tmp_path / "re.json").read_bytes() == (out / "eval.json").read_bytes()
    state = load_checkpoint((out / "final.ckpt.json").read_bytes())
    assert main(["eval", str(out / "final.ckpt.json"), "--seed", "5",
                 "--out", str(tmp_path / "re5.json")]) == 0
    want = training.evaluate_generator(state.params_G, replace(state.config, seed=5))
    assert (tmp_path / "re5.json").read_text() == want.to_json() != (out / "eval.json").read_text()


def test_eval_takes_no_config_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--help"])
    assert exc.value.code == 0 and "--config" not in capsys.readouterr().out
    cfg = write_cfg(tmp_path, FAST_RING)
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(tmp_path / "missing.ckpt"), "--config", cfg,
              "--out", str(tmp_path / "e.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


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
    (["eval", "CKPT"], "--seed"),
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
    (["verify", "CFG", "--pairs", "10000000000000"], "--pairs"),
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


class Worked(Exception):
    """Raised in place of a command's work, to show a check let it through."""


@pytest.fixture
def wide_ring(tmp_path, monkeypatch):
    """(config, checkpoint) paths of a z_dim-4096 ring run at init; any check
    or interpolation a command then starts raises Worked."""
    doc = {"task": "ring", "z_dim": 4096}
    ckpt = tmp_path / "wide.ckpt.json"
    ckpt.write_bytes(training.save_checkpoint(training.init_state(parse_run_config(doc))))

    def work(*args, **kwargs):
        raise Worked

    for name in ("bound_suite", "attraction_check", "latent_interpolation"):
        monkeypatch.setattr(cli, name, work)
    return write_cfg(tmp_path, doc), str(ckpt)


@pytest.mark.parametrize("command,flag", [("verify", "--probes"), ("interp", "--steps")])
def test_latent_count_past_2_25_entries_is_a_config_error(command, flag, wide_ring, tmp_path,
                                                          capsys):
    """262144 latents of z_dim 4096 would be 2**30 entries (8 GiB): refused
    before any work, naming the flag; 8192 (2**25 entries) still runs."""
    cfg, ckpt = wide_ring
    targets = [cfg, ckpt] if command == "verify" else [ckpt]
    for target in targets:
        out = tmp_path / "out"
        assert main([command, target, flag, "262144", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {flag} 262144 at z_dim 4096 is 1073741824 latent entries, "
            f"over 2**25; at most 8192 fit\n")
        assert not out.exists()
        with pytest.raises(Worked):
            main([command, target, flag, "8192", "--out", str(out)])


@pytest.mark.parametrize("command", ["train", "sweep", "verify"])
def test_config_that_is_not_utf8_is_config_error(command, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00{}")
    argv = {
        "train": ["train", "--config", str(bad)],
        "sweep": ["sweep", "--config", str(bad), "--lambdas", "0"],
        "verify": ["verify", str(bad)],
    }[command]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    what = "target" if command == "verify" else "config"
    assert err.startswith(f"config error: {what} is not UTF-8: ") and len(err.splitlines()) == 1
    assert not out.exists()


HUGE_INT = "9" * 5000  # past the decoder's default limit of 4300 digits
NEEDS_INT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                     reason="this Python decodes integers of any length")


@pytest.mark.parametrize("text,message", [
    ('{"steps": 2, "lambda": 0, "lambda": 5}', "duplicate key 'lambda'"),
    ('{"steps": 2, "ring": {"n_modes": 8, "n_modes": 6}}', "duplicate key 'n_modes'"),
    pytest.param('{"steps": %s}' % HUGE_INT, "Exceeds the limit", marks=NEEDS_INT_LIMIT),
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
], ids=["duplicate_key", "duplicate_ring_key", "huge_integer", "deep_nesting"])
@pytest.mark.parametrize("command", ["train", "verify"])
def test_json_the_decoder_refuses_is_a_config_error(command, text, message, tmp_path, capsys):
    """A duplicate key is refused, not read as its last value, and a decoder
    limit is reported like any other JSON error."""
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "out"
    argv = ["train", "--config", str(path)] if command == "train" else ["verify", str(path)]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    what = "target" if command == "verify" else "config"
    assert err.startswith(f"config error: {what} is not valid JSON: ") and message in err
    assert len(err.splitlines()) == 1 and not out.exists()


def test_failed_replace_keeps_the_previous_artifact(tmp_path, monkeypatch, capsys):
    """An artifact is written beside its target and moved over it: when the
    move fails, the old file survives byte for byte and no temporary is
    left behind."""
    cfg = write_cfg(tmp_path, dict(FAST_RING, steps=2, eval_every=2))
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    target = run / "eval.json"
    previous = target.read_bytes()
    listing = sorted(os.listdir(run))

    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", failing_replace)
    code = main(["eval", str(run / "final.ckpt.json"), "--seed", "5", "--out", str(target)])
    assert code == 4
    assert capsys.readouterr().err.startswith("io error: ")
    assert target.read_bytes() == previous
    assert sorted(os.listdir(run)) == listing


def _verify_untrained(tmp_path, out):
    cfg = write_cfg(tmp_path, FAST_RING)
    return main(["verify", cfg, "--out", str(out), "--pairs", "2", "--probes", "10"])


def test_out_to_a_device_is_written_in_place(tmp_path, monkeypatch, capsys):
    """`--out /dev/null` writes to the device; it is never replaced by a file."""
    moved = []

    def refused_replace(src, dst):  # were it called, nothing would be moved
        moved.append(dst)
        raise OSError(1, "Operation not permitted")

    monkeypatch.setattr(os, "replace", refused_replace)
    assert _verify_untrained(tmp_path, os.devnull) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert moved == []
    assert stat.S_ISCHR(os.lstat(os.devnull).st_mode)


def test_out_through_a_symlink_writes_the_file_it_names(tmp_path):
    real = tmp_path / "reports" / "verify.json"
    real.parent.mkdir()
    real.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    assert _verify_untrained(tmp_path, link) == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert json.loads(real.read_text())["passed"] is True


def test_replaced_artifact_keeps_its_mode_and_long_names_fit(tmp_path):
    """The new file takes the old one's permission bits, and a target name
    near NAME_MAX (255 bytes on common file systems) still fits beside it."""
    out = tmp_path / ("v" * 245 + ".json")
    out.write_text("old")
    out.chmod(0o600)
    assert _verify_untrained(tmp_path, out) == 0
    assert json.loads(out.read_text())["passed"] is True
    assert stat.S_IMODE(out.stat().st_mode) == 0o600
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["cfg.json", out.name])


def test_csv_artifacts_keep_crlf_rows(tmp_path):
    """summary.csv and the interp CSV are csv.writer text, rows ending in CRLF."""
    cfg = write_cfg(tmp_path, dict(FAST_RING, steps=2, eval_every=2))
    assert main(["sweep", "--config", cfg, "--lambdas", "0", "--out", str(tmp_path / "s")]) == 0
    summary = (tmp_path / "s" / "summary.csv").read_bytes()
    assert summary.startswith(b"lambda,modes_captured,hq_fraction,pairwise_diversity,dist_min,"
                              b"frechet2,n_samples,labels_covered,in_label_frac\r\n0.0,")
    assert summary.count(b"\r\n") == 2 and summary.endswith(b"\r\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    out = tmp_path / "i.csv"
    assert main(["interp", str(tmp_path / "run" / "final.ckpt.json"), "--out", str(out),
                 "--steps", "3"]) == 0
    lines = out.read_bytes().split(b"\r\n")
    assert lines[0] == b"step,z0,z1,y0,y1,slerp_fallback" and len(lines) == 5 and lines[-1] == b""


def test_import_leaves_the_process_pool_unloaded():
    """Only a parallel sweep imports concurrent.futures and multiprocessing."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, divgan.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    assert done.stdout == "[]\n"


def test_eval_missing_checkpoint(tmp_path):
    assert main(["eval", str(tmp_path / "missing.ckpt"), "--out", str(tmp_path / "r.json")]) == 4


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
    assert lines[0] == "lambda," + ",".join(EVAL_COLUMNS)
    assert len(lines) == 5
    doc = json.loads((out / "sweep.json").read_text())
    assert [e["lambda"] for e in doc] == [0.0, 0.05, 0.1, 0.5]


def _eval_cells(report: dict | None) -> dict:
    """The CSV cells a report as JSON gives: each field's repr, and an empty
    cell for a field the JSON leaves out or for no report at all."""
    return {k: repr(report[k]) if report and k in report else "" for k in EVAL_COLUMNS}


@pytest.mark.parametrize("task", ["ring", "conditional_ring", "trajectory"])
def test_metrics_csv_last_row_is_the_eval_json_report(task, tmp_path):
    cfg = write_cfg(tmp_path, dict(FAST_RING, task=task, steps=20, eval_every=10))
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    header, *rows = (out / "metrics.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), rows[-1].split(","), strict=True))
    report = json.loads((out / "eval.json").read_text())
    # the conditional report has every field, the others leave two out
    assert len(report) == (8 if task == "conditional_ring" else 6)
    assert {k: cells[k] for k in EVAL_COLUMNS} == _eval_cells(report)


@pytest.mark.parametrize("extra", [{}, {"lr": 1e150}], ids=["trained", "diverged"])
def test_summary_rows_are_the_sweep_json_reports(extra, tmp_path):
    doc = dict(FAST_RING, task="conditional_ring", steps=20, eval_every=10, **extra)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_cfg(tmp_path, doc), "--lambdas", "0,1",
                 "--out", str(out)]) == 0
    header, *rows = (out / "summary.csv").read_text().splitlines()
    entries = json.loads((out / "sweep.json").read_text())
    assert len(rows) == len(entries) == 2
    for row, entry in zip(rows, entries):
        assert (entry["report"] is None) == bool(extra)
        cells = dict(zip(header.split(","), row.split(","), strict=True))
        assert cells == {"lambda": repr(entry["lambda"]), **_eval_cells(entry["report"])}


def test_sweep_changes_only_lambda(tmp_path):
    """Each run is the document with its lambda and the --seed override."""
    doc = dict(FAST_RING, task="conditional_ring", z_dim=4, tau=0.5, steps=20, eval_every=10)
    doc["lambda"] = 3.0
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_cfg(tmp_path, doc), "--lambdas", "0,0.1",
                 "--seed", "5", "--out", str(out)]) == 0
    entries = json.loads((out / "sweep.json").read_text())
    assert [e["lambda"] for e in entries] == [0.0, 0.1]
    for e in entries:
        cfg = parse_run_config(dict(doc, seed=5, **{"lambda": e["lambda"]}))
        *_, last = training.train(training.init_state(cfg))
        assert e["report"] == json.loads(last.eval.to_json())


@pytest.mark.parametrize("lambdas", ["0,-1", "nan", "0.1,inf"])
def test_sweep_rejects_bad_lambdas(lambdas, tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(FAST_RING, steps=2, eval_every=2))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--lambdas", lambdas, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: bad --lambdas: ")
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True])
def test_sweep_out_that_cannot_be_a_directory_fails_before_the_runs(under, tmp_path,
                                                                    monkeypatch, capsys):
    """An --out that is a regular file, or sits under one, is an io error
    (exit 4) before any run, not after all of them."""
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    cfg = write_cfg(tmp_path, dict(FAST_RING, steps=2, eval_every=2))
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    out = blocker / "sweep" if under else blocker
    assert main(["sweep", "--config", cfg, "--lambdas", "0,1", "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("io error: ")
    assert blocker.read_text() == "kept"


def test_verify_passes_on_untrained_generator(tmp_path):
    cfg = write_cfg(tmp_path, FAST_RING)
    out = tmp_path / "verify.json"
    code = main(["verify", cfg, "--out", str(out), "--pairs", "20", "--probes", "200"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"]
    assert doc["gradient_bound"]["violations"] == 0
    assert doc["attraction"]["counterexamples"] == 0


@pytest.mark.parametrize("flag,seed", [([], 5), (["--seed", "9"], 9)])
def test_verify_config_checks_the_generator_train_starts_from(flag, seed, tmp_path,
                                                              monkeypatch):
    """A config's `seed` (or the --seed override) picks G through init_state,
    as `train` does; the suite's own draws stay seeded from --seed, else 0."""
    doc = dict(FAST_RING, seed=5)
    seen = []
    real_suite = cli.bound_suite

    def spy(params_G, **kwargs):
        seen.append((params_G.vector.copy(), kwargs["rng"].bit_generator.state))
        return real_suite(params_G, **kwargs)

    monkeypatch.setattr(cli, "bound_suite", spy)
    assert main(["verify", write_cfg(tmp_path, doc), "--out", str(tmp_path / "v.json"),
                 "--pairs", "2", "--probes", "10", *flag]) == 0
    (vector, rng_state), = seen
    want = training.init_state(replace(parse_run_config(doc), seed=seed)).params_G
    assert vector.tobytes() == want.vector.tobytes()
    assert rng_state == np.random.default_rng(9 if flag else 0).bit_generator.state


def test_verify_without_an_attracted_scenario_fails_verification(tmp_path, capsys,
                                                                  monkeypatch):
    """A pull that leaves G unchanged never brings G(z1) closer to its target,
    so all eight tries fail: exit 1 with one stderr line and no report."""
    pulls = []

    def no_pull(params_G, *args):
        pulls.append(1)
        return params_G

    monkeypatch.setattr(cli, "pull_toward", no_pull)
    out = tmp_path / "v.json"
    assert main(["verify", write_cfg(tmp_path, FAST_RING), "--out", str(out),
                 "--pairs", "2", "--probes", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("verification failed: could not construct an attracted "
                            "scenario in 8 pulls\n")
    assert captured.out == "" and len(pulls) == 8 and not out.exists()


def test_verify_accepts_checkpoint(tmp_path):
    cfg = write_cfg(tmp_path, FAST_RING)
    run = tmp_path / "run"
    main(["train", "--config", cfg, "--out", str(run)])
    code = main(["verify", str(run / "final.ckpt.json"),
                 "--out", str(tmp_path / "v.json"), "--pairs", "10", "--probes", "100"])
    assert code == 0


def test_verify_reads_and_parses_a_checkpoint_once(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, dict(FAST_RING, steps=2, eval_every=2))
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    ckpt = str(run / "final.ckpt.json")
    opened, parsed = [], []
    real_open, real_loads = open, json.loads

    def spy_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    def spy_loads(*args, **kwargs):  # json.load parses through json.loads too
        parsed.append(args[0])
        return real_loads(*args, **kwargs)

    monkeypatch.setattr("builtins.open", spy_open)
    monkeypatch.setattr(json, "loads", spy_loads)
    assert main(["verify", ckpt, "--out", str(tmp_path / "v.json"),
                 "--pairs", "2", "--probes", "10"]) == 0
    assert opened.count(ckpt) == 1 and len(parsed) == 1


def test_verify_json_error_counts_crlf_as_one_character(tmp_path, capsys):
    bad = tmp_path / "crlf.json"
    bad.write_bytes(b'{\r\n  "steps": 1,\r\n  "seed": \r\n}\r\n')
    with open(bad, encoding="utf-8") as fh:  # a text-mode read sets the position
        with pytest.raises(json.JSONDecodeError) as want:
            json.load(fh)
    assert main(["verify", str(bad), "--out", str(tmp_path / "v.json")]) == 2
    assert capsys.readouterr().err == f"config error: target is not valid JSON: {want.value}\n"


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
    """A conditional generator, from a checkpoint or a config, gets one
    refusal naming its task (exit 2, nothing written)."""
    cfg = write_cfg(tmp_path, dict(FAST_RING, task=task, steps=2, eval_every=2))
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    ckpt = str(run / "final.ckpt.json")
    capsys.readouterr()
    for command, target in (("verify", ckpt), ("verify", cfg), ("interp", ckpt)):
        out = tmp_path / f"{command}.out"
        extra = ["--pairs", "2", "--probes", "10"] if command == "verify" else []
        assert main([command, target, "--out", str(out)] + extra) == 2
        assert capsys.readouterr().err == (
            f"config error: {command} needs the ring task's unconditional generator, but "
            f"this is a {task} generator, which reads a condition beside its latent, and "
            f"{command} has no conditions to give it\n"
        )
        assert not out.exists()


def trained_checkpoint(tmp_path):
    """The final checkpoint's bytes of a 2-step ring run."""
    cfg = write_cfg(tmp_path, dict(FAST_RING, steps=2, eval_every=2))
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    return (run / "final.ckpt.json").read_bytes()


def write_checkpoint(tmp_path, blob, name="bad.ckpt.json"):
    path = tmp_path / name
    path.write_bytes(blob)
    return str(path)


@pytest.mark.parametrize("corruption", ["nan_weight", "negative_dim"])
def test_eval_and_interp_reject_bad_weights(corruption, tmp_path, capsys):
    blob = trained_checkpoint(tmp_path)
    if corruption == "nan_weight":
        blob = edit_vector(blob, "params_G", lambda v: np.r_[np.nan, v[1:]])
    else:
        blob = edit_header(blob, lambda d: d["config"].update(z_dim=-1))
    ckpt = write_checkpoint(tmp_path, blob)
    capsys.readouterr()
    assert main(["eval", ckpt, "--out", str(tmp_path / "e.json")]) == 2
    assert capsys.readouterr().err.startswith("checkpoint error: malformed checkpoint")
    assert main(["interp", ckpt, "--out", str(tmp_path / "i.csv")]) == 2
    assert capsys.readouterr().err.startswith("checkpoint error: malformed checkpoint")
    assert not (tmp_path / "e.json").exists() and not (tmp_path / "i.csv").exists()


def _duplicate_step(blob):
    return blob.replace(b'"step": ', b'"step": 0, "step": ', 1)


@pytest.mark.parametrize("edit,message", [
    (_duplicate_step, "duplicate key 'step'"),
    pytest.param(lambda blob: blob.replace(b'"step": 2', b'"step": ' + HUGE_INT.encode(), 1),
                 "Exceeds the limit", marks=NEEDS_INT_LIMIT),
    (lambda blob: b"[" * 100_000 + blob, "maximum recursion depth exceeded"),
], ids=["duplicate_key", "huge_integer", "deep_nesting"])
def test_checkpoint_the_decoder_refuses_is_malformed(edit, message, tmp_path, capsys):
    ckpt = tmp_path / "bad.ckpt.json"
    ckpt.write_bytes(edit(trained_checkpoint(tmp_path)))
    capsys.readouterr()
    assert main(["eval", str(ckpt), "--out", str(tmp_path / "e.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error: malformed checkpoint: ") and message in err
    assert len(err.splitlines()) == 1 and not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("edit,message", [
    ({"hidden_dims": [128, 128]}, "unknown config keys: hidden_dims"),
    ({"z_dim": 2.5}, "config key 'z_dim': expected an integer, got 2.5"),
    ({"z_dim": True}, "config key 'z_dim': expected an integer, got True"),
    ({"lambda": "7"}, "config key 'lambda': expected a finite number, got '7'"),
])
def test_eval_rejects_a_bad_stored_config(edit, message, tmp_path, capsys):
    ckpt = write_checkpoint(tmp_path, edit_header(trained_checkpoint(tmp_path),
                                                  lambda d: d["config"].update(edit)))
    capsys.readouterr()
    assert main(["eval", ckpt, "--out", str(tmp_path / "e.json")]) == 2
    assert capsys.readouterr().err == f"checkpoint error: malformed checkpoint: {message}\n"
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("network,moment,value,what", [
    ("adam_G", "m", float("nan"), "is not finite"),
    ("adam_D", "v", -1.0, "is negative"),
])
def test_eval_rejects_impossible_adam_moments(network, moment, value, what, tmp_path, capsys):
    ckpt = write_checkpoint(tmp_path, edit_vector(trained_checkpoint(tmp_path),
                                                  f"{network}.{moment}",
                                                  lambda v: np.r_[value, v[1:]]))
    capsys.readouterr()
    assert main(["eval", ckpt, "--out", str(tmp_path / "e.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"checkpoint error: malformed checkpoint: {network}.{moment} {what}\n"
    assert not (tmp_path / "e.json").exists()


def test_eval_rejects_an_adam_step_count(tmp_path, capsys):
    # the run's step is the one count a checkpoint stores
    ckpt = write_checkpoint(tmp_path, edit_header(trained_checkpoint(tmp_path),
                                                  lambda d: d.update(adam_G={"t": 0})))
    capsys.readouterr()
    assert main(["eval", ckpt, "--out", str(tmp_path / "e.json")]) == 2
    err = capsys.readouterr().err
    assert err == "checkpoint error: malformed checkpoint: unknown keys: adam_G\n"
    assert not (tmp_path / "e.json").exists()


def _old_version_refused(command, doc, version, tmp_path, capsys):
    ckpt = write_cfg(tmp_path, doc, f"v{version}.ckpt.json")
    out = str(tmp_path / "out")
    argv = {"eval": ["eval", ckpt, "--out", out],
            "verify": ["verify", ckpt, "--out", out, "--pairs", "2", "--probes", "10"],
            "interp": ["interp", ckpt, "--out", out]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"checkpoint error: unsupported checkpoint version {version} (expected 5)\n")
    assert not (tmp_path / "out").exists()


def trained_version_4_document(tmp_path):
    return version_4_document(load_checkpoint(trained_checkpoint(tmp_path)))


@pytest.mark.parametrize("command", ["eval", "verify", "interp"])
def test_version_2_checkpoint_is_refused(command, tmp_path, capsys):
    doc = as_version_2(trained_version_4_document(tmp_path))
    _old_version_refused(command, doc, 2, tmp_path, capsys)


@pytest.mark.parametrize("command", ["eval", "verify", "interp"])
def test_version_3_checkpoint_is_refused(command, tmp_path, capsys):
    doc = as_version_3(trained_version_4_document(tmp_path))
    _old_version_refused(command, doc, 3, tmp_path, capsys)


@pytest.mark.parametrize("command", ["eval", "verify", "interp"])
def test_version_4_checkpoint_is_refused(command, tmp_path, capsys):
    _old_version_refused(command, trained_version_4_document(tmp_path), 4, tmp_path, capsys)


@pytest.mark.parametrize("command", ["eval", "verify", "interp"])
def test_duplicate_key_is_one_checkpoint_error_on_every_command(command, tmp_path, capsys):
    """verify reads a target that begins as a checkpoint does through
    load_checkpoint, so it refuses a repeated key as eval and interp do."""
    ckpt = write_checkpoint(tmp_path, _duplicate_step(trained_checkpoint(tmp_path)))
    out = str(tmp_path / "out")
    extra = ["--pairs", "2", "--probes", "10"] if command == "verify" else []
    capsys.readouterr()
    assert main([command, ckpt, "--out", out] + extra) == 2
    assert capsys.readouterr().err == (
        "checkpoint error: malformed checkpoint: duplicate key 'step'\n")
    assert not (tmp_path / "out").exists()


def _tail_bytes(blob):
    return len(blob) - blob.index(b"\n") - 1


# each corruption of a version 5 blob, and the message that names it
V5_CORRUPTIONS = {
    "tail_one_byte_short": (
        lambda b: b[:-1],
        lambda b: f"{_tail_bytes(b)} bytes of vectors after the header, not {_tail_bytes(b) + 1}"),
    "tail_one_float_long": (
        lambda b: b + bytes(8),
        lambda b: f"{_tail_bytes(b)} bytes of vectors after the header, not {_tail_bytes(b) - 8}"),
    "no_newline": (lambda b: b[:b.index(b"\n")], lambda b: "no newline after the header"),
    "params_G_in_header": (lambda b: edit_header(b, lambda d: d.update(params_G="")),
                           lambda b: "unknown keys: params_G"),
    "nan_weight": (lambda b: edit_vector(b, "params_D", lambda v: np.r_[v[:-1], np.nan]),
                   lambda b: "NetworkParams: non-finite values in layer 2"),
    "inf_moment": (lambda b: edit_vector(b, "adam_D.m", lambda v: np.r_[v[:-1], np.inf]),
                   lambda b: "adam_D.m is not finite"),
    "negative_second_moment": (
        lambda b: edit_vector(b, "adam_G.v", lambda v: np.r_[v[:-1], -1e-300]),
        lambda b: "adam_G.v is negative"),
}


@pytest.mark.parametrize("corruption", list(V5_CORRUPTIONS))
def test_corrupt_checkpoint_is_refused_by_name(corruption, tmp_path, capsys):
    corrupt, message = V5_CORRUPTIONS[corruption]
    blob = corrupt(trained_checkpoint(tmp_path))
    want = f"malformed checkpoint: {message(blob)}"
    with pytest.raises(CheckpointError, match=f"^{re.escape(want)}$"):
        load_checkpoint(blob)
    ckpt = write_checkpoint(tmp_path, blob)
    capsys.readouterr()
    assert main(["eval", ckpt, "--out", str(tmp_path / "e.json")]) == 2
    assert capsys.readouterr().err == f"checkpoint error: {want}\n"
    assert not (tmp_path / "e.json").exists()


def overflowing_checkpoint(tmp_path, weight=1e308):
    """A finite checkpoint with G's last-layer weights at `weight`: 1e308
    overflows G's output, 1e200 only the squared distances on it."""
    blob = trained_checkpoint(tmp_path)
    g_spec = load_checkpoint(blob).params_G.spec

    def huge_last_weights(vector):
        g_spec.param_views(vector)[-2][...] = weight
        return vector

    return write_checkpoint(tmp_path, edit_vector(blob, "params_G", huge_last_weights),
                            "huge.ckpt.json")


def test_verify_overflowing_generator_fails_verification(tmp_path, capsys):
    ckpt = overflowing_checkpoint(tmp_path)
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
    ckpt = overflowing_checkpoint(tmp_path, 1e200)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", ckpt, "--out", str(tmp_path / "v.json"),
                     "--pairs", "2", "--probes", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failed: non-finite ") and len(err.splitlines()) == 1
    assert not (tmp_path / "v.json").exists()


def test_interp_overflowing_generator_is_checkpoint_error(tmp_path, capsys):
    ckpt = overflowing_checkpoint(tmp_path)
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
    ckpt = overflowing_checkpoint(tmp_path, weight)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval", ckpt, "--out", str(tmp_path / "e.json")]) == 2
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
    assert lines[2].count(",") == 13 and lines[2].endswith(",2500,,")  # step 2's eval landed
    assert lines[4].endswith("," * 8)  # step 4 ran, its evaluation did not
    assert not (out / "final.ckpt.json").exists()


def test_interrupted_train_keeps_the_rows_it_made(tmp_path, monkeypatch):
    real_step = training.train_step

    def interrupt_at_step_4(state, cfg):
        if state.step == 3:
            raise KeyboardInterrupt
        return real_step(state, cfg)

    monkeypatch.setattr(training, "train_step", interrupt_at_step_4)
    out = tmp_path / "run"
    with pytest.raises(KeyboardInterrupt):
        main(["train", "--config", write_cfg(tmp_path, dict(FAST_RING, steps=6, eval_every=2)),
              "--out", str(out)])
    lines = (out / "metrics.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]
    assert sorted(p.name for p in out.iterdir()) == ["metrics.csv"]


def test_seed_override_changes_run(tmp_path):
    cfg = write_cfg(tmp_path, FAST_RING)
    main(["train", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "1"])
    main(["train", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "2"])
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a != b
