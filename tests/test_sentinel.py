"""Claim sentinel: a tier-1 check that the paper's headline claim still holds
on conditional_ring after a change to training. It is the opt-in acceptance
gate (tests/test_acceptance.py) cut to 2 seeds of 1000 steps, about 9 s on 2
workers, so a change that alters training bits learns at once whether the
diversity term still keeps label modes that the plain cGAN drops.

Protocol, fixed before any result was read (re-pick nothing to pass):

- Configs: parse_run_config({"task": "conditional_ring", "seed": s,
  "steps": 1000, "lambda": lam}) for s in {300, 301} (seeds no screen has
  read) and lam in {0, 1}; the task defaults: z_dim 8, tau 10, l1, output
  space, eval every 1000.
- Runs: all 4 configs in one training.sweep(cfgs, jobs=2).
- Score: labels_covered of the final-step evaluation.
- Gate: lambda = 1 covers strictly more labels than lambda = 0 on each seed.
  A diverged run fails the test with its error.
"""

from __future__ import annotations

from divgan.config import parse_run_config
from divgan.training import sweep

SEEDS = (300, 301)
STEPS = 1000
LAMBDAS = (0.0, 1.0)


def test_diversity_term_covers_more_labels_on_each_seed():
    cfgs = [parse_run_config({"task": "conditional_ring", "seed": seed, "steps": STEPS,
                              "lambda": lam}) for seed in SEEDS for lam in LAMBDAS]
    entries = sweep(cfgs, jobs=2)
    errors = [e.error for e in entries if e.error is not None]
    assert not errors, f"diverged: {errors}"
    covered = {(e.config.seed, e.config.objective.diversity.weight): e.report.labels_covered
               for e in entries}
    values = ", ".join(f"seed {s} lambda={lam:g}: {covered[s, lam]}"
                       for s in SEEDS for lam in LAMBDAS)
    assert all(covered[s, 1.0] > covered[s, 0.0] for s in SEEDS), f"labels covered: {values}"
