"""The three benchmark workloads.

Each workload has four parts:

- `setup(work, seed)` builds the inputs under `work` and returns their
  digests; run.py times it in fresh interpreters, several times per run;
- `prepare(work, seed)` reads those inputs back (untimed);
- `op(ctx)` is one timed operation: `units` units of work (training steps
  or checkpoints) made of `attempts` runs or checkpoints that can fail;
- `check(ctx, outcome)` is the correctness gate (untimed): it returns
  `(failed, digest, info)`, where `digest` must be the same for every
  operation of a run and `info` holds fields that carry no bound.

Every operation of a run uses the run's seed, so its outputs must be
bit-identical to the first operation's.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# library functions are looked up on their modules at call time, so the
# traced run sees this module's calls too
from divgan import cli, metrics, nets, theory, training
from divgan.config import parse_run_config
from divgan.data import one_hot, sample_trajectories
from divgan.metrics import EvalReport

# train_ring: steps per run. Evaluation stays at the default every 1000
# steps, so eval and checkpoint writes keep the share they have in each
# 1000-step block of the 30k-step acceptance runs.
TRAIN_STEPS = 1000
# sweep_traj: two runs in one process. With two worker processes the sweep's
# throughput halved whenever the machine's two cores were not both free, so
# the pool is not measured; 500 steps per run (one eval each) keep enough
# operations in a run for a steady best.
SWEEP_STEPS = 500
SWEEP_LAMBDAS = "0,10"
# analyze_ckpt
ANALYZE_TASKS = ("ring", "conditional_ring", "trajectory")
CKPT_STEPS = 50  # enough for non-zero Adam moments; file size does not depend on it
BOUND_PAIRS = 32
ATTRACTION_PROBES = 2000
INTERP_STEPS = 9


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _write_config(work, doc) -> str:
    blob = json.dumps(doc, indent=2).encode()
    _write(os.path.join(work, "config.json"), blob)
    return sha256(blob)


def _roundtrips(blob: bytes) -> bool:
    return training.save_checkpoint(training.load_checkpoint(blob)) == blob


class TrainRing:
    """`divgan train` on the paper's headline ring config, in-process."""

    name = "train_ring"
    unit = "steps"
    units, attempts = TRAIN_STEPS, 1

    def setup(self, work, seed):
        return {"config": _write_config(work, {
            "task": "ring", "space": "output", "norm": "l1", "lambda": 0.1,
            "tau": 10.0, "z_dim": 2, "batch_size": 128, "steps": TRAIN_STEPS,
            "eval_every": 1000, "seed": seed,
        })}

    def prepare(self, work, seed):
        return {"config": os.path.join(work, "config.json"), "out": os.path.join(work, "run")}

    def op(self, ctx):
        return cli.main(["train", "--config", ctx["config"], "--out", ctx["out"]])

    def check(self, ctx, rc):
        if rc != 0:
            return 1, f"exit {rc}", {}
        report = EvalReport.from_json(_read(os.path.join(ctx["out"], "eval.json")).decode())
        blob = _read(os.path.join(ctx["out"], "final.ckpt.json"))
        ok = _roundtrips(blob) and report.n_samples == 2500
        info = {"modes_captured": report.modes_captured, "hq_fraction": report.hq_fraction}
        return int(not ok), sha256(blob), info


class SweepTraj:
    """`divgan sweep` over lambda in {0, 10} on the trajectory task, one job."""

    name = "sweep_traj"
    unit = "steps"
    attempts = len(SWEEP_LAMBDAS.split(","))
    units = SWEEP_STEPS * attempts

    def setup(self, work, seed):
        return {"config": _write_config(work, {
            "task": "trajectory", "space": "sequence", "z_dim": 8, "batch_size": 128,
            "steps": SWEEP_STEPS, "eval_every": 1000, "seed": seed,
        })}

    def prepare(self, work, seed):
        return {"config": os.path.join(work, "config.json"), "out": os.path.join(work, "sweep")}

    def op(self, ctx):
        return cli.main(["sweep", "--config", ctx["config"], "--lambdas", SWEEP_LAMBDAS,
                         "--jobs", "1", "--out", ctx["out"]])

    def check(self, ctx, rc):
        if rc != 0:
            return self.attempts, f"exit {rc}", {}
        # `divgan sweep` writes no checkpoint; sweep.json holds every
        # entry's eval report at full float precision
        blob = _read(os.path.join(ctx["out"], "sweep.json"))
        entries = json.loads(blob)
        failed, modes, hq = self.attempts - len(entries), [], []
        for entry in entries:
            if entry["error"] is not None or entry["report"] is None:
                failed += 1
                continue
            report = EvalReport(**entry["report"])
            modes.append(report.modes_captured)
            hq.append(report.hq_fraction)
        return failed, sha256(blob), {"modes_captured": modes, "hq_fraction": hq}


class AnalyzeCkpt:
    """The checkpoint read path, through library calls.

    It bypasses `divgan verify` / `divgan interp`: they take z_dim from the
    generator's input width, which is wrong on conditional and trajectory
    checkpoints, and fixing that must not change this workload's work.
    """

    name = "analyze_ckpt"
    unit = "ckpts"
    units = attempts = len(ANALYZE_TASKS)

    def setup(self, work, seed):
        digests = {}
        for task in ANALYZE_TASKS:
            cfg = parse_run_config({"task": task, "seed": seed})
            state = training.init_state(cfg)
            for step in range(CKPT_STEPS + 1):
                state, _ = training.train_step(state, cfg)
                if step >= CKPT_STEPS - 1:  # t, and t1 one train_step later
                    suffix = "t" if step < CKPT_STEPS else "t1"
                    blob = training.save_checkpoint(state)
                    _write(os.path.join(work, f"{task}.{suffix}.ckpt.json"), blob)
                    digests[f"{task}.{suffix}"] = sha256(blob)
        return digests

    def prepare(self, work, seed):
        ctx = []
        for k, task in enumerate(ANALYZE_TASKS):
            cfg = parse_run_config({"task": task, "seed": seed})
            rng = np.random.default_rng([seed, 100 + k])
            if task == "conditional_ring":
                x = one_hot(np.array([int(rng.integers(0, 4))]), 4)[0]
            elif task == "trajectory":
                x = sample_trajectories(cfg.traj, 1, rng).x.reshape(-1)
            else:
                x = None
            t1 = training.load_checkpoint(_read(os.path.join(work, f"{task}.t1.ckpt.json")))
            ctx.append({
                "task": task, "cfg": cfg, "x": x, "seed": [seed, k],
                "params_t1": t1.params_G,
                "src": os.path.join(work, f"{task}.t.ckpt.json"),
                "dst": os.path.join(work, f"{task}.out.ckpt.json"),
            })
        return ctx

    def op(self, ctx):
        outcomes = []
        for c in ctx:
            try:
                outcomes.append(self._analyze(c))
            except (ArithmeticError, ValueError, OSError) as exc:
                outcomes.append({"error": f"{type(exc).__name__}: {exc}"})
        return outcomes

    @staticmethod
    def _analyze(c):
        cfg, x = c["cfg"], c["x"]
        xr = None if x is None else x[None, :]
        rng = np.random.default_rng(c["seed"])
        state = training.load_checkpoint(_read(c["src"]))
        report = training.evaluate_generator(state.params_G, cfg)
        bound = theory.bound_suite(state.params_G, BOUND_PAIRS, rng, z_dim=cfg.z_dim, x=x)
        z1 = rng.standard_normal(cfg.z_dim)
        y_star = nets.generator_forward(c["params_t1"], z1[None, :], xr).data[0]
        attraction = theory.attraction_check(state.params_G, c["params_t1"], z1, y_star,
                                      probes=ATTRACTION_PROBES, rng=rng, x=x).summary()
        interp = metrics.latent_interpolation(state.params_G, rng.standard_normal(cfg.z_dim),
                                      rng.standard_normal(cfg.z_dim), INTERP_STEPS, x=x)
        blob = training.save_checkpoint(state)
        _write(c["dst"], blob)
        return {"report": report, "bound": bound, "attraction": attraction,
                "interp": interp.outputs.tolist(), "saved": blob}

    def check(self, ctx, outcomes):
        failed, results, modes, hq = 0, [], [], []
        for c, out in zip(ctx, outcomes):
            if "error" in out:
                failed += 1
                results.append(out["error"])
                continue
            report = out["report"]
            ok = (out["saved"] == _read(c["src"])  # byte-identical round trip
                  and out["bound"]["passed"] and out["attraction"]["passed"]
                  and np.all(np.isfinite(out["interp"])))
            failed += int(not ok)
            modes.append(report.modes_captured)
            hq.append(report.hq_fraction)
            results.append([vars(report), out["bound"], out["attraction"], out["interp"],
                            sha256(out["saved"])])
        digest = sha256(json.dumps(results, sort_keys=True).encode())
        return failed, digest, {"modes_captured": modes, "hq_fraction": hq}


WORKLOADS = {w.name: w for w in (TrainRing(), SweepTraj(), AnalyzeCkpt())}
