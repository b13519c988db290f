"""Numerical checks of the analysis behind the regularizer.

Two facts are exercised:

1. The difference quotient ||G(z2) - G(z1)|| / ||z2 - z1|| is bounded above
   by the path integral of the Jacobian operator norm along the segment
   from z1 to z2 (gradient theorem + Cauchy-Schwarz). Checked by composite
   midpoint quadrature of the spectral norm; the inequality must hold for
   any smooth generator, trained or not.

2. If one parameter update pulls G(z1) toward a target y* by eps, then
   every z2 whose before/after difference quotients are small enough
   (Eq.-level condition) is pulled toward the same target by eps/2. The
   implication is checked probe by probe; the ball-radius formula is
   reported as a sampled estimate only, since the infimum over all z is
   not computable.

The Jacobians for fact 1 come from one reverse pass per segment that
carries every output's cotangent at once (`path_jacobians`). It computes
exactly the products and activation derivatives that one engine backward
per output row computes, so it gives `autodiff.jacobian`'s bits.

Norms here are l2 / spectral (matching the analysis), regardless of the
training-side norm choice. A generator whose output is not finite, or
whose distances, difference quotients or Jacobian norms overflow, raises
NumericsError: the finiteness checks are the error path, so the entry
points run with numpy's overflow and invalid-value warnings off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import NumericsError, activation_grad, backward
from .nets import NetworkParams, ParamLeaves, generator_forward, mlp_forward_vars
from .optim import AdamHyper, adam_init, adam_step

__all__ = [
    "BoundCheckReport",
    "AttractionReport",
    "BOUND_RTOL",
    "BOUND_ATOL",
    "path_jacobians",
    "path_gradient_bound",
    "bound_suite",
    "attraction_check",
    "pull_toward",
]

BOUND_RTOL = 1e-6
BOUND_ATOL = 1e-8


@dataclass
class BoundCheckReport:
    lhs: float  # difference quotient between the endpoints
    rhs: float  # quadrature of Jacobian norms along the segment
    slack: float  # rhs - lhs
    n_quadrature: int

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + BOUND_RTOL) + BOUND_ATOL


def _finite(values, what: str):
    """values, or NumericsError if any is not finite (e.g. a norm that overflowed)."""
    if not np.all(np.isfinite(values)):
        raise NumericsError(f"non-finite {what}")
    return values


def _forward(params_G: NetworkParams, zs, x=None) -> tuple[np.ndarray, list]:
    """G(x, z) at every row of zs, all rows sharing the one condition x, and
    G's post-activation hidden layers there, ordered input -> output."""
    if x is not None:
        x = np.repeat(np.asarray(x, dtype=np.float64).reshape(1, -1), zs.shape[0], axis=0)
        zs = np.concatenate([x, zs], axis=1)
    out, hidden = mlp_forward_vars(params_G.flat(), params_G.spec, zs)
    return _finite(out.data, "generator output"), [h.data for h in hidden]


@np.errstate(over="ignore", invalid="ignore")
def path_jacobians(params_G: NetworkParams, z1, z2, n_quad: int, x=None) -> np.ndarray:
    """Jacobians at the composite-midpoint nodes of the segment z1 -> z2,
    shape (n_quad, out_dim, z_dim).

    One reverse pass carries all out_dim one-hot cotangents at once, stacked
    on a leading axis, and gives the bits of `autodiff.jacobian`, which
    replays the graph once per output. A one-hot cotangent times W_last.T is
    a row of W_last.T at every node, exact but for the sign of zeros. Down
    each hidden layer the pass applies the engine's activation derivative
    (`autodiff.activation_grad`) and W.T, and the stacked matmul runs,
    per output, the same C-ordered 2-D product the engine's backward runs.
    The engine adds 0.0 to each node's first gradient, which changes only the
    sign of zeros, so one 0.0 added at the end reproduces it.
    """
    z1 = np.asarray(z1, dtype=np.float64).reshape(-1)
    z2 = np.asarray(z2, dtype=np.float64).reshape(-1)
    ts = (np.arange(n_quad) + 0.5) / n_quad
    gamma = ts[:, None] * z2[None, :] + (1.0 - ts)[:, None] * z1[None, :]
    _, hidden = _forward(params_G, gamma, x)
    weights = params_G.weights
    # (out_dim, n_quad, width): output i's cotangent on the top hidden layer,
    # C-ordered like the engine's gradients so each slice's matmul takes the
    # same BLAS path
    cot = np.repeat(weights[-1].T[:, None, :], n_quad, axis=1)
    for h, W in zip(reversed(hidden), reversed(weights[:-1])):
        cot = (cot * activation_grad(params_G.spec.hidden_activation, h)) @ W.T
    jac = _finite(cot[:, :, cot.shape[2] - z1.size:] + 0.0, "Jacobian in path_gradient_bound")
    # a C-ordered copy: reductions over a transposed view may sum in another order
    return np.ascontiguousarray(jac.transpose(1, 0, 2))


@np.errstate(over="ignore", invalid="ignore")
def path_gradient_bound(params_G: NetworkParams, z1, z2, n_quad: int = 64,
                        x=None) -> BoundCheckReport:
    """Difference quotient vs averaged Jacobian norm along the segment.

    lhs = ||G(x,z2) - G(x,z1)||_2 / ||z2 - z1||_2; rhs integrates the
    Jacobian's spectral norm over the straight line between the latents by
    midpoint quadrature.
    """
    if n_quad < 8:
        raise ValueError("path_gradient_bound: n_quad must be >= 8")
    z1 = np.asarray(z1, dtype=np.float64).reshape(-1)
    z2 = np.asarray(z2, dtype=np.float64).reshape(-1)
    gap = float(np.linalg.norm(z2 - z1))
    if gap == 0.0:
        raise ValueError("path_gradient_bound: z1 and z2 coincide")
    ys, _ = _forward(params_G, np.stack([z1, z2]), x)
    lhs = _finite(float(np.linalg.norm(ys[1] - ys[0]) / gap), "difference quotient")
    jac = path_jacobians(params_G, z1, z2, n_quad, x=x)
    norms = np.linalg.svd(jac, compute_uv=False)[:, 0]
    rhs = _finite(float(np.mean(norms)), "Jacobian norm")
    return BoundCheckReport(lhs=lhs, rhs=rhs, slack=rhs - lhs, n_quadrature=n_quad)


def bound_suite(params_G: NetworkParams, n_pairs: int, rng, z_dim: int | None = None,
                x=None) -> dict:
    """Run the bound on random latent pairs; near-violations get a 4x finer
    quadrature before counting as failures."""
    if n_pairs < 1:
        raise ValueError("bound_suite: n_pairs must be >= 1")
    if z_dim is None:
        z_dim = params_G.spec.input_dim if x is None else params_G.spec.input_dim - np.asarray(x).size
    # piecewise-constant relu Jacobians need a finer grid than smooth tanh
    n_quad = 512 if params_G.spec.hidden_activation == "relu" else 64
    refine = 4 * n_quad
    violations = 0
    min_slack = np.inf
    refined = 0
    for _ in range(n_pairs):
        z1 = rng.standard_normal(z_dim)
        z2 = rng.standard_normal(z_dim)
        rep = path_gradient_bound(params_G, z1, z2, n_quad=n_quad, x=x)
        if not rep.holds:
            refined += 1
            rep = path_gradient_bound(params_G, z1, z2, n_quad=refine, x=x)
            if not rep.holds:
                violations += 1
        min_slack = min(min_slack, rep.slack)
    return {
        "pairs": n_pairs,
        "n_quad": n_quad,
        "violations": violations,
        "refined": refined,
        "min_slack": float(min_slack),
        "passed": violations == 0,
    }


@dataclass
class AttractionReport:
    """Probe-level outcomes for the co-attraction implication.

    condition_holds -> attracted must have zero exceptions; the ball radius
    is a sampled estimate (min over probes, plus a grid refinement in 2D),
    not the exact infimum over all latents.
    """

    epsilon: float
    z2: np.ndarray
    gap: np.ndarray
    ratio_t: np.ndarray
    ratio_t1: np.ndarray
    condition_holds: np.ndarray
    attracted: np.ndarray
    radius_estimate: float
    n_probes: int

    @property
    def counterexamples(self) -> int:
        return int(np.sum(self.condition_holds & ~self.attracted))

    def summary(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "n_probes": self.n_probes,
            "n_condition_holds": int(np.sum(self.condition_holds)),
            "n_attracted": int(np.sum(self.attracted)),
            "counterexamples": self.counterexamples,
            "radius_estimate": None if np.isinf(self.radius_estimate) else self.radius_estimate,
            "passed": self.counterexamples == 0,
        }


def _dists_to(ys: np.ndarray, y_star: np.ndarray) -> np.ndarray:
    return _finite(np.linalg.norm(ys - y_star[None, :], axis=1), "distance to y*")


def _ratios_from(params: NetworkParams, z1: np.ndarray, zs: np.ndarray,
                 gaps: np.ndarray, x=None) -> tuple[np.ndarray, np.ndarray]:
    """Difference quotients of G from z1 to every row of zs, and G at those
    rows, all from one pass of G over [z1; zs]."""
    ys, _ = _forward(params, np.vstack([z1[None, :], zs]), x)
    return _finite(np.linalg.norm(ys[1:] - ys[0][None, :], axis=1) / gaps,
                   "difference quotient"), ys[1:]


@np.errstate(over="ignore", invalid="ignore")
def attraction_check(params_t: NetworkParams, params_t1: NetworkParams, z1,
                     y_star, probes: int, rng, x=None) -> AttractionReport:
    """Check that every probe satisfying the closeness condition is pulled
    toward y* by eps/2 when z1 is pulled by eps.

    Requires eps = ||y* - G_t(z1)|| - ||y* - G_{t+1}(z1)|| > 0. Probes are
    standard Gaussian; for 2D latents, a 61 x 61 grid on [-3, 3]^2
    additionally tightens the sampled radius estimate.
    """
    if probes < 1:
        raise ValueError("attraction_check: probes must be >= 1")
    z1 = np.asarray(z1, dtype=np.float64).reshape(-1)
    y_star = np.asarray(y_star, dtype=np.float64).reshape(-1)
    # own 1-row passes: reusing row 0 of the probe passes below would move
    # eps's bits, since a 1-row product takes BLAS's matrix-vector path
    d1 = _dists_to(_forward(params_t, z1[None, :], x)[0], y_star)[0]
    d1_next = _dists_to(_forward(params_t1, z1[None, :], x)[0], y_star)[0]
    eps = float(d1 - d1_next)
    if eps <= 0:
        raise ValueError(
            f"attraction_check: z1 is not attracted (epsilon = {eps:.3e} <= 0)"
        )

    z2 = rng.standard_normal((probes, z1.size))
    gaps = np.linalg.norm(z2 - z1[None, :], axis=1)
    keep = gaps > 0.0
    z2, gaps = z2[keep], gaps[keep]
    ratio_t, ys_t = _ratios_from(params_t, z1, z2, gaps, x=x)
    ratio_t1, ys_t1 = _ratios_from(params_t1, z1, z2, gaps, x=x)
    condition = (ratio_t + ratio_t1) * gaps <= eps / 2.0
    attracted = _dists_to(ys_t1, y_star) + eps / 2.0 < _dists_to(ys_t, y_star)

    max_ratios = np.maximum(ratio_t, ratio_t1)
    inf_est = float(np.min(max_ratios)) if len(max_ratios) else np.inf
    if z1.size == 2:
        axis = np.linspace(-3.0, 3.0, 61)
        gx, gy = np.meshgrid(axis, axis)
        gz = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)
        ggaps = np.linalg.norm(gz - z1[None, :], axis=1)
        sel = ggaps > 0.0
        gz, ggaps = gz[sel], ggaps[sel]
        gmax = np.maximum(
            _ratios_from(params_t, z1, gz, ggaps, x=x)[0],
            _ratios_from(params_t1, z1, gz, ggaps, x=x)[0],
        )
        if len(gmax):
            inf_est = min(inf_est, float(np.min(gmax)))
    radius = eps / (4.0 * inf_est) if inf_est > 0 else np.inf

    return AttractionReport(
        epsilon=eps,
        z2=z2,
        gap=gaps,
        ratio_t=ratio_t,
        ratio_t1=ratio_t1,
        condition_holds=condition,
        attracted=attracted,
        radius_estimate=float(radius),
        n_probes=len(z2),
    )


@np.errstate(over="ignore", invalid="ignore")
def pull_toward(params_G: NetworkParams, z1, y_star, hyper: AdamHyper) -> NetworkParams:
    """One Adam step from fresh moments minimizing ||y* - G(z1)||_2."""
    leaves = ParamLeaves(params_G)
    out = generator_forward(leaves, np.asarray(z1, dtype=np.float64).reshape(1, -1))
    dist = (out - np.asarray(y_star, dtype=np.float64).reshape(1, -1)).square().sum().sqrt()
    backward(dist)
    vector = params_G.vector
    vector, _ = adam_step(vector, leaves.grad_vector(), adam_init(vector), hyper)
    return NetworkParams.from_vector(params_G.spec, vector)
