"""Opt-in acceptance gate for the paper's headline claim on conditional_ring:
the diversity term (lambda = 1) keeps label modes that the plain cGAN
(lambda = 0) drops. It trains 20 runs of 12k steps (about 9 minutes on 2
workers), so it is skipped unless DIVGAN_ACCEPTANCE=1; without it only a
2-seed, 2-step smoke of the same code runs:

    DIVGAN_ACCEPTANCE=1 PYTHONPATH=src python -m pytest -q tests/test_acceptance.py

Protocol, fixed before any result was read (re-pick nothing to pass):

- Configs: parse_run_config({"task": "conditional_ring", "seed": s,
  "steps": 12000, "lambda": lam}) for the fresh seeds s = 100..109 (not the
  0..5 screened before) and lam in {0, 1}. A config document takes the task
  defaults: z_dim 8, tau 10, l1, output space, eval every 1000.
- Runs: all 20 configs in one training.sweep(cfgs, jobs=2).
- Score: labels_covered of the final-step evaluation (labels, of 4, whose
  samples reach both of the label's modes).
- Gate: the mean labels_covered at lambda = 1 is greater than at lambda = 0,
  and lambda = 1 covers strictly more labels than lambda = 0 on at least 7 of
  the 10 seeds. A run that diverges counts as 0 labels; its error is kept.
- Reported, not gated: modes_captured, hq_fraction, in_label_frac.
- Results: acceptance/conditional_ring.json, written before any assert, pass
  or fail, with every value, the verdict, the wall time, the BLAS thread
  setting, the numpy version, the git commit and a digest of src/divgan.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from divgan.config import parse_run_config
from divgan.training import sweep

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "acceptance" / "conditional_ring.json"

SEEDS = range(100, 110)
STEPS = 12000
LAMBDAS = (0.0, 1.0)
MIN_WINS = 7
REPORTED = ("modes_captured", "hq_fraction", "in_label_frac")


def _git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "divgan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _run(entry) -> dict:
    if entry.report is None:  # diverged: scores 0 labels
        return {"labels_covered": 0, **dict.fromkeys(REPORTED), "error": entry.error}
    report = entry.report
    return {"labels_covered": report.labels_covered,
            **{k: getattr(report, k) for k in REPORTED}, "error": None}


def _gate(seeds, steps: int, results_path: Path) -> dict:
    """Run the protocol on `seeds` at `steps` steps and write its results
    document to results_path, before any verdict is asserted."""
    seeds = list(seeds)
    start = time.perf_counter()
    cfgs = [parse_run_config({"task": "conditional_ring", "seed": seed, "steps": steps,
                              "lambda": lam}) for seed in seeds for lam in LAMBDAS]
    entries = sweep(cfgs, jobs=2)
    wall = time.perf_counter() - start

    by_seed = {seed: {"seed": seed} for seed in seeds}
    for e in entries:
        by_seed[e.config.seed][f"lambda={e.config.objective.diversity.weight:g}"] = _run(e)
    per_seed = list(by_seed.values())
    off = [s["lambda=0"]["labels_covered"] for s in per_seed]
    on = [s["lambda=1"]["labels_covered"] for s in per_seed]
    wins = sum(b > a for a, b in zip(off, on))
    mean_off, mean_on = float(np.mean(off)), float(np.mean(on))
    status = _git("status", "--porcelain", "--", "src")
    doc = {
        "protocol": {
            "task": "conditional_ring", "seeds": seeds, "steps": steps,
            "lambdas": list(LAMBDAS), "score": "final-step labels_covered (of 4)",
            "gate": f"mean at lambda=1 > mean at lambda=0, and lambda=1 covers strictly "
                    f"more labels on >= {MIN_WINS} of {len(seeds)} seeds; a diverged run "
                    f"counts as 0 labels",
            "reported": list(REPORTED),
        },
        "seeds": per_seed,
        "mean_labels_covered": {"lambda=0": mean_off, "lambda=1": mean_on},
        "seeds_lambda1_more": wins,
        "passed": mean_on > mean_off and wins >= MIN_WINS,
        "wall_s": round(wall, 1),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS",
                                                        "OMP_NUM_THREADS")},
        "numpy": np.__version__,
        "git_commit": _git("rev-parse", "HEAD"),
        "src_modified": None if status is None else bool(status),
        "src_sha256": _source_digest(),
    }
    results_path.parent.mkdir(exist_ok=True)
    results_path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def test_gate_writes_its_results_document(tmp_path):
    """The gate's wiring on 2 seeds of 2 steps; the verdict is not checked."""
    doc = _gate(range(2), 2, tmp_path / "r.json")
    assert json.loads((tmp_path / "r.json").read_text()) == doc
    assert list(doc) == ["protocol", "seeds", "mean_labels_covered", "seeds_lambda1_more",
                         "passed", "wall_s", "blas_threads", "numpy", "git_commit",
                         "src_modified", "src_sha256"]
    assert doc["protocol"]["seeds"] == [0, 1] and doc["protocol"]["steps"] == 2
    assert [list(s) for s in doc["seeds"]] == [["seed", "lambda=0", "lambda=1"]] * 2
    assert [s["seed"] for s in doc["seeds"]] == [0, 1]
    for run in (s[k] for s in doc["seeds"] for k in ("lambda=0", "lambda=1")):
        assert list(run) == ["labels_covered", *REPORTED, "error"]


@pytest.mark.skipif(os.environ.get("DIVGAN_ACCEPTANCE") != "1",
                    reason="acceptance gate: set DIVGAN_ACCEPTANCE=1 to run it")
def test_diversity_term_keeps_label_modes():
    doc = _gate(SEEDS, STEPS, RESULTS)
    mean_off, mean_on = (doc["mean_labels_covered"][k] for k in ("lambda=0", "lambda=1"))
    wins = doc["seeds_lambda1_more"]
    assert mean_on > mean_off, f"mean labels covered: lambda=1 {mean_on}, lambda=0 {mean_off}"
    assert wins >= MIN_WINS, f"lambda=1 covers more labels on {wins} of {len(SEEDS)} seeds"
