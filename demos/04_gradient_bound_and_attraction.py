"""Numerical verification of the two analysis facts: the averaged-Jacobian
lower bound on the difference quotient, and the co-attraction of latent
neighborhoods under one optimizer step.

Run: python demos/04_gradient_bound_and_attraction.py
"""

import numpy as np

from divgan.nets import NetworkSpec, mlp_init
from divgan.optim import AdamHyper
from divgan.theory import attraction_check, bound_suite, path_gradient_bound, pull_toward

rng = np.random.default_rng(0)
params = mlp_init(NetworkSpec(2, (32, 32), 2, hidden_activation="tanh"), seed=4)

# One pair in detail: the difference quotient never exceeds the averaged
# spectral norm of the Jacobian along the connecting segment.
rep = path_gradient_bound(params, rng.standard_normal(2), rng.standard_normal(2), n_quad=64)
print(f"difference quotient lhs = {rep.lhs:.6f}")
print(f"quadrature rhs          = {rep.rhs:.6f}")
print(f"slack (rhs - lhs)       = {rep.slack:.6f}, holds: {rep.holds}")

# The inequality is parameter-independent: an untrained net passes too.
out = bound_suite(params, n_pairs=100, rng=rng, z_dim=2)
print(f"bound suite: {out['pairs']} pairs, {out['violations']} violations")

# Attraction: pull G(z1) toward a target with one real Adam step, then
# check that every probe satisfying the closeness condition moved too.
z1 = rng.standard_normal(2)
y_star = rng.standard_normal(2) * 2
params_next = pull_toward(params, z1, y_star, AdamHyper())

rep = attraction_check(params, params_next, z1, y_star, probes=10_000, rng=rng)
s = rep.summary()
print(f"epsilon = {s['epsilon']:.3e}")
print(f"probes with the condition: {s['n_condition_holds']} / {s['n_probes']}")
print(f"counterexamples to 'condition implies attraction': {s['counterexamples']}")
print(f"sampled neighborhood-radius estimate: {s['radius_estimate']}")

# A generator wider than its latent (z 8 -> 20, the trajectory task's
# shape): the bound's Jacobians come from a forward (tangent) pass, 8
# products per node where a reverse pass would take 20.
wide = mlp_init(NetworkSpec(8, (32, 32), 20, hidden_activation="tanh"), seed=5)
out = bound_suite(wide, n_pairs=20, rng=rng, z_dim=8)
print(f"wide generator (z 8 -> 20) bound suite: {out['pairs']} pairs, "
      f"{out['violations']} violations, min slack {out['min_slack']:.6f}")
