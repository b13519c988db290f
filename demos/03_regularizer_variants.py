"""The diversity ratio in its three spaces on a toy pair of latents:
output space (with the tau clip), discriminator-feature space (no clip),
and per-step sequence distances (l1, no clip). One function scores them
all; the config's space decides the norm and the clip, as in training.

Run: python demos/03_regularizer_variants.py
"""

import numpy as np

from divgan.config import TrainConfig
from divgan.losses import DiversityConfig, diversity_ratio
from divgan.nets import discriminator_forward, mlp_init
from divgan.training import task_specs

rng = np.random.default_rng(3)
z1, z2 = rng.standard_normal(2), rng.standard_normal(2)
y1, y2 = rng.standard_normal(2), rng.standard_normal(2)

cfg = DiversityConfig(norm="l1", tau=10.0)
print(f"output-space ratio           {diversity_ratio([y1], [y2], z1, z2, cfg):.4f}")
print(f"same pair, tau=0.1 clip      {diversity_ratio([y1], [y2], z1, z2, DiversityConfig(norm='l1', tau=0.1)):.4f}")
print(f"collapsed generator          {diversity_ratio([y1], [y1], z1, z2, cfg):.4f}")

# feature-space: distances measured in the discriminator's hidden layers
d_params = mlp_init(task_specs(TrainConfig())[1], seed=0)
_, f1 = discriminator_forward(d_params, y1[None, :])
_, f2 = discriminator_forward(d_params, y2[None, :])
feat = diversity_ratio([f.data[0] for f in f1], [f.data[0] for f in f2], z1, z2,
                       DiversityConfig(norm="l1", tau=10.0, space="feature"))
print(f"discriminator-feature ratio  {feat:.4f}")

# sequence: per-step l1 distances averaged over the horizon
seq = DiversityConfig(tau=10.0, space="sequence")
seq1 = [rng.standard_normal(2) for _ in range(10)]
seq2 = [rng.standard_normal(2) for _ in range(10)]
print(f"sequence ratio (T=10)        {diversity_ratio(seq1, seq2, z1, z2, seq):.4f}")
print(f"T=1 equals the l1 output ratio exactly: "
      f"{diversity_ratio([y1], [y2], z1, z2, seq) == diversity_ratio([y1], [y2], z1, z2, DiversityConfig(norm='l1', tau=None))}")
