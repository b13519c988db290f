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

The Jacobians for fact 1 come from one routine, `path_jacobians`: one
stacked forward over a segment's quadrature nodes (`nets.mlp_forward_vars`,
for G's hidden layers), then one pass in the direction with fewer products.
A forward (tangent) pass carries z_dim tangents per node and runs iff
z_dim < out_dim (the trajectory task's 8 -> 20); it agrees with
`autodiff.jacobian` to rounding, not bit for bit, which moves `rhs` by
~1e-16 relative. Otherwise (the ring tasks) a reverse pass carries out_dim
cotangents, with `autodiff.jacobian`'s bits.

Every pass that needs only G's output is a `nets.generate` call, whose
docstring states how its blocks and stacked slices round: the endpoint
pass of `bound_suite`, stacked (pairs, 2, z_dim), and the eps, probe and
grid passes of `attraction_check`. So `bound_suite`, which runs its pairs
on a leading pair axis (the endpoint pass, then per block of pairs one
`path_jacobians` call, one batch of spectral norms and one node mean per
pair), gives each pair the bits of its own `path_gradient_bound`, the same
core on one pair. The blocks bound memory, never bits, and follow
`nets.ROW_BLOCK`: Jacobian blocks of 4 pairs of 64 nodes on the ring tasks,
one pair in tangent, whose larger blocks would only raise the peak memory.
`attraction_check` holds one block per hidden layer plus a few numbers per
probe, whatever the probe count.

Norms here are l2 / spectral (matching the analysis), regardless of the
training-side norm choice. A spectral norm is the root of the largest
eigenvalue of the node's Gram matrix, formed after an exact power-of-two
rescaling so that squaring entries can neither overflow nor underflow; it
agrees with an SVD's largest singular value to ~1e-16 relative. The
difference quotient's norm is taken after the same rescaling of the output
difference, so a difference whose squares would overflow or underflow
still gives its exact quotient. A generator whose output is not finite, or
whose distances, difference quotients or Jacobian norms overflow, raises
NumericsError: the finiteness checks are the error path, so the entry
points run with numpy's overflow and invalid-value warnings off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nets
from .autodiff import NumericsError, activation_grad, backward
from .nets import (NetworkParams, ParamLeaves, generate, generator_forward, mlp_forward_vars,
                   with_condition)
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


def _holds(lhs, rhs):
    """Whether the quotient lhs stays under the Jacobian bound rhs, up to
    rounding; elementwise on arrays."""
    return lhs <= rhs * (1.0 + BOUND_RTOL) + BOUND_ATOL


@dataclass
class BoundCheckReport:
    lhs: float  # difference quotient between the endpoints
    rhs: float  # quadrature of Jacobian norms along the segment
    slack: float  # rhs - lhs
    n_quadrature: int

    @property
    def holds(self) -> bool:
        return _holds(self.lhs, self.rhs)


def _finite(values, what: str):
    """values, or NumericsError if any is not finite (e.g. a norm that overflowed)."""
    if not np.all(np.isfinite(values)):
        raise NumericsError(f"non-finite {what}")
    return values


@np.errstate(over="ignore", invalid="ignore")
def path_jacobians(params_G: NetworkParams, z1s: np.ndarray, z2s: np.ndarray,
                   n_quad: int, x=None) -> np.ndarray:
    """Jacobians at the composite-midpoint nodes of each segment
    z1s[p] -> z2s[p], shape (pairs, n_quad, out_dim, z_dim), C-ordered, for
    rows z1s and z2s of shape (pairs, z_dim), all sharing the one condition x.

    One stacked forward over all nodes gives G's hidden layers, then one
    pass in the direction with fewer products per node. When z_dim < out_dim
    it is a forward pass carrying z_dim tangents: G's input is [condition,
    latent], so they start as W0's latent rows at every node and per hidden
    layer take the activation derivative and the next W, as one 2-D product
    over all of a pair's nodes. On these shapes it agrees with
    `autodiff.jacobian` to rounding, not bit for bit: a caller gets the
    engine's bits only from the reverse pass.

    Otherwise it is a reverse pass carrying all out_dim one-hot cotangents
    at once, stacked on a leading axis, with the bits of `autodiff.jacobian`,
    which replays the graph once per output. A one-hot cotangent times
    W_last.T is a row of W_last.T at every node, exact but for the sign of
    zeros. Down each hidden layer the pass applies the engine's activation
    derivative (`autodiff.activation_grad`) and W.T, and every product is
    stacked over pairs and outputs, so each slice runs the C-ordered 2-D
    product the engine's backward runs for one pair and output. The engine
    adds 0.0 to each node's first gradient, which changes only the sign of
    zeros, so one 0.0 added at the end reproduces it.
    """
    ts = (np.arange(n_quad) + 0.5) / n_quad
    gamma = ts[:, None] * z2s[:, None, :] + (1.0 - ts)[:, None] * z1s[:, None, :]
    inp = with_condition(None if x is None else np.ravel(x), gamma)
    out, hidden = mlp_forward_vars(params_G.flat(), params_G.spec, inp)
    _finite(out.data, "generator output")
    act, weights = params_G.spec.hidden_activation, params_G.weights
    pairs, z_dim = z1s.shape
    if z_dim < weights[-1].shape[1]:
        # (pairs, n_quad, z_dim, width): node k's tangents on the current layer
        tan = np.broadcast_to(weights[0][-z_dim:], (pairs, n_quad, z_dim, weights[0].shape[1]))
        for h, W in zip(hidden, weights[1:]):
            tan = tan * activation_grad(act, h.data)[:, :, None, :]
            tan = (tan.reshape(pairs, -1, len(W)) @ W).reshape(pairs, n_quad, z_dim, W.shape[1])
        jac = tan.transpose(0, 1, 3, 2)
    else:
        # (pairs, out_dim, n_quad, width): output i's cotangent on the top
        # hidden layer, C-ordered like the engine's gradients so each slice's
        # matmul takes the same BLAS path
        cot = np.empty((pairs, weights[-1].shape[1], n_quad, weights[-1].shape[0]))
        cot[...] = weights[-1].T[:, None, :]
        for h, W in zip(reversed(hidden), reversed(weights[:-1])):
            # cot is fresh (the fill, then each product), so the derivative
            # is multiplied into it in place
            cot *= activation_grad(act, h.data)[:, None]
            cot = cot @ W.T
        jac = (cot[..., cot.shape[-1] - z_dim:] + 0.0).transpose(0, 2, 1, 3)
    # a C-ordered copy: reductions over a transposed view may sum in another order
    return np.ascontiguousarray(_finite(jac, "Jacobian in path_gradient_bound"))


def _spectral_norms(jac: np.ndarray) -> np.ndarray:
    """Largest singular value of each finite matrix jac[k], shape (n, rows, cols).

    It is the square root of the largest eigenvalue of the Gram matrix on the
    smaller side (J J^T when rows <= cols, else J^T J), which costs a fraction
    of an SVD that would also compute every smaller singular value. Squaring
    entries could overflow or underflow, so each J is first scaled by 2**-e,
    where e is frexp's exponent of its largest |entry|: that entry lands in
    [0.5, 1), so the Gram matrix's largest entry lies between 0.25 and
    max(rows, cols). A power of two only moves exponents, so the scaling is
    exact (bar entries under 2**-1022 of the largest, far below the norm's
    last bit), and so is scaling the root back by 2**e. An all-zero J gives
    0.0.
    """
    _, exp = np.frexp(np.max(np.abs(jac), axis=(1, 2)))
    scaled = np.ldexp(jac, -exp[:, None, None])
    flipped = scaled.transpose(0, 2, 1)
    gram = scaled @ flipped if jac.shape[1] <= jac.shape[2] else flipped @ scaled
    top = np.linalg.eigvalsh(gram)[:, -1]  # ascending; rounding may make it < 0
    return np.ldexp(np.sqrt(np.maximum(top, 0.0)), exp)


@np.errstate(over="ignore", invalid="ignore")
def _bounds(params_G: NetworkParams, z1s: np.ndarray, z2s: np.ndarray, n_quad: int,
            x=None) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of `path_gradient_bound` for each pair of rows z1s[p],
    z2s[p], each of shape (pairs,): every pair's endpoints in one stacked
    pass of G, then the nodes, Jacobians, norms and node means of a block of
    pairs at a time."""
    gaps = np.array([np.linalg.norm(d) for d in z2s - z1s])
    if np.any(gaps == 0.0):
        raise ValueError("path_gradient_bound: z1 and z2 coincide")
    ys = generate(params_G, np.stack([z1s, z2s], axis=1), None if x is None else np.ravel(x))
    ys = _finite(ys, "generator output")
    diff = ys[:, 1] - ys[:, 0]
    # scaled exactly, as in _spectral_norms, so the squares stay in range
    _, exp = np.frexp(np.max(np.abs(diff), axis=1))
    lhs = np.ldexp([np.linalg.norm(d) for d in np.ldexp(diff, -exp[:, None])], exp)
    lhs = _finite(lhs / gaps, "difference quotient")
    # pairs per `path_jacobians` call: each node carries min(z_dim, out_dim)
    # tangents or cotangents, whichever pass runs
    block = max(1, nets.ROW_BLOCK // (n_quad * min(z1s.shape[1], ys.shape[-1])))
    rhs = np.empty(len(z1s))
    for s in range(0, len(z1s), block):
        jac = path_jacobians(params_G, z1s[s:s + block], z2s[s:s + block], n_quad, x=x)
        norms = _spectral_norms(jac.reshape((-1,) + jac.shape[2:]))
        rhs[s:s + block] = norms.reshape(-1, n_quad).mean(axis=1)
    return lhs, _finite(rhs, "Jacobian norm")


def path_gradient_bound(params_G: NetworkParams, z1, z2, n_quad: int = 64,
                        x=None) -> BoundCheckReport:
    """Difference quotient vs averaged Jacobian norm along the segment.

    lhs = ||G(x,z2) - G(x,z1)||_2 / ||z2 - z1||_2; rhs integrates the
    Jacobian's spectral norm over the straight line between the latents by
    midpoint quadrature, each node's norm taken from its exactly rescaled
    Gram matrix (`_spectral_norms`), of the Jacobians from
    `path_jacobians`. It is `bound_suite`'s core on one pair.
    """
    if n_quad < 8:
        raise ValueError("path_gradient_bound: n_quad must be >= 8")
    z1 = np.asarray(z1, dtype=np.float64).reshape(1, -1)
    z2 = np.asarray(z2, dtype=np.float64).reshape(1, -1)
    (lhs,), (rhs,) = _bounds(params_G, z1, z2, n_quad, x=x)
    lhs, rhs = float(lhs), float(rhs)
    return BoundCheckReport(lhs=lhs, rhs=rhs, slack=rhs - lhs, n_quadrature=n_quad)


def bound_suite(params_G: NetworkParams, n_pairs: int, rng, z_dim: int, x=None) -> dict:
    """Run the bound on random latent pairs; near-violations get a 4x finer
    quadrature before counting as failures.

    Each pair is z1 then z2 from rng, drawn `nets.ROW_BLOCK` // 2 pairs at
    a time (one `generate` block of endpoints; the stream of drawing them
    one by one) and checked by `_bounds`, as `path_gradient_bound` checks
    one pair; the pairs that fail go through `_bounds` again at the finer
    quadrature.
    """
    if n_pairs < 1:
        raise ValueError("bound_suite: n_pairs must be >= 1")
    # piecewise-constant relu Jacobians need a finer grid than smooth tanh
    n_quad = 512 if params_G.spec.hidden_activation == "relu" else 64
    violations = refined = 0
    min_slack = np.inf
    chunk = max(1, nets.ROW_BLOCK // 2)
    for start in range(0, n_pairs, chunk):
        zs = rng.standard_normal((min(chunk, n_pairs - start), 2, z_dim))
        lhs, rhs = _bounds(params_G, zs[:, 0], zs[:, 1], n_quad, x=x)
        redo = ~_holds(lhs, rhs)
        if redo.any():
            lhs[redo], rhs[redo] = _bounds(params_G, zs[redo, 0], zs[redo, 1], 4 * n_quad, x=x)
        refined += int(np.sum(redo))
        violations += int(np.sum(~_holds(lhs, rhs)))
        min_slack = min(min_slack, float(np.min(rhs - lhs)))
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
    rows, all from one blocked pass of G over [z1; zs] (`nets.generate`)
    with the one (c,) condition x, if any."""
    ys = _finite(generate(params, np.vstack([z1[None, :], zs]), x), "generator output")
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
    x = None if x is None else np.ravel(x)
    # 1-row passes of their own, not row 0 of the probe passes below, whose
    # bits may differ (see `nets.generate`)
    d1, d1_next = (_dists_to(_finite(generate(p, z1[None, :], x), "generator output"), y_star)[0]
                   for p in (params_t, params_t1))
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
    vector, _ = adam_step(vector, leaves.grad_vector(), adam_init(vector), 1, hyper)
    return NetworkParams(params_G.spec, vector)
