"""Train on the 8-mode Gaussian ring with and without the diversity
regularizer and compare mode coverage. A short run is enough to see the
gap open up; raise STEPS toward 30000 to reproduce the full protocol.

Run: python demos/02_ring_collapse_and_recovery.py
"""

from divgan.config import parse_run_config
from divgan.training import sweep

STEPS = 4000

cfgs = [parse_run_config({"task": "ring", "steps": STEPS, "eval_every": 1000, "seed": 0,
                          "lambda": weight}) for weight in (0.0, 0.1)]

for entry in sweep(cfgs):
    weight, r = entry.config.objective.diversity.weight, entry.report
    tag = "vanilla " if weight == 0.0 else "diversity-regularized"
    print(f"{tag} (lambda={weight}):")
    print(f"  modes captured      {r.modes_captured} / 8")
    print(f"  high-quality frac   {r.hq_fraction:.3f}")
    print(f"  pairwise diversity  {r.pairwise_diversity:.3f}")
    print(f"  2D Frechet distance {r.frechet2:.4f}")
