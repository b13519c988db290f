"""Spherical vs linear interpolation between two latent codes through a
trained (here: briefly trained) generator.

Run: python demos/05_latent_interpolation.py
"""

import numpy as np

from divgan.metrics import latent_interpolation
from divgan.training import TrainConfig, init_state, train

state = init_state(TrainConfig(task="ring", steps=2000, eval_every=1000, seed=1))
for _ in train(state):  # steps state to its config's 2000 steps
    pass
params = state.params_G

rng = np.random.default_rng(5)
z_a, z_b = rng.standard_normal(2), rng.standard_normal(2)

for mode in ("slerp", "linear"):
    res = latent_interpolation(params, z_a, z_b, steps=9, mode=mode)
    print(f"{mode}: latent norms along the path:")
    print("  " + " ".join(f"{np.linalg.norm(z):.3f}" for z in res.latents))
    print(f"  outputs from {res.outputs[0].round(3)} to {res.outputs[-1].round(3)}")
    if res.slerp_fallback:
        print("  (fell back to linear: endpoints were parallel/antipodal)")
