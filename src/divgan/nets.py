"""MLP generators and discriminators on top of the autodiff engine.

Both networks are plain fully connected stacks with tanh or relu hidden
layers and a linear output. The discriminator exposes its post-activation
hidden layers so the feature-space regularizer can measure sample
distances there. Conditioning, when present, is input concatenation of the
condition with the latent code (generator) or the candidate output
(discriminator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import NumericsError, ShapeMismatch, Var, affine, concat, lift

__all__ = [
    "NetworkSpec",
    "NetworkParams",
    "NonFiniteParams",
    "ParamLeaves",
    "mlp_init",
    "mlp_forward_vars",
    "with_condition",
    "generator_forward",
    "generate",
    "discriminator_forward",
    "ROW_BLOCK",
]

# Rows per block of `generate`: a 128-wide float64 hidden block is 512 KiB,
# a quarter of a core's 2 MiB L2. Theory's blocked passes derive their sizes
# from it, read at call time: `bound_suite` draws max(1, ROW_BLOCK // 2)
# pairs at a time, so their stacked endpoints are one block, and each
# `path_jacobians` call takes max(1, ROW_BLOCK // (n_quad * min(z_dim,
# out_dim))) pairs, since a node carries min(z_dim, out_dim) tangents or
# cotangents, whichever pass runs.
ROW_BLOCK = 512


@dataclass(frozen=True)
class NetworkSpec:
    """A fully connected network's shape, as `training.task_specs` builds it
    from a checked config. The output layer is linear; the hidden activation
    is checked by `autodiff.affine` at the first forward."""

    input_dim: int
    hidden_dims: tuple
    output_dim: int
    hidden_activation: str = "tanh"

    @property
    def layer_dims(self):
        return (self.input_dim,) + self.hidden_dims + (self.output_dim,)

    @property
    def param_shapes(self) -> list:
        """Shapes of the parameter arrays in order: W0, b0, W1, b1, ..."""
        dims = self.layer_dims
        return [s for fan_in, fan_out in zip(dims[:-1], dims[1:])
                for s in ((fan_in, fan_out), (fan_out,))]

    @property
    def n_params(self) -> int:
        """Length of a vector in the parameter layout."""
        return sum(math.prod(s) for s in self.param_shapes)

    def param_views(self, vector: np.ndarray) -> list:
        """Views [W0, b0, W1, b1, ...] into a vector in the parameter layout:
        the arrays in that order, each row-major."""
        out, end = [], 0
        for shape in self.param_shapes:
            start, end = end, end + math.prod(shape)
            out.append(vector[start:end].reshape(shape))
        return out


class NonFiniteParams(NumericsError, ValueError):
    """Weights or biases hold NaN or inf.

    A NumericsError, so a training step that produces them reports a
    divergence; a ValueError, because as input the values are invalid.
    """


class NetworkParams:
    """One network's parameters as one contiguous float64 vector.

    `weights[i]` (fan_in, fan_out) and `biases[i]` (fan_out,) are views into
    `vector`, laid out W0, b0, W1, b1, ... with each array row-major, so an
    in-place edit of a view is an edit of the vector and of the forward.
    Finiteness is checked once, on the whole vector; the error names the
    first layer holding a non-finite value.
    """

    def __init__(self, spec: NetworkSpec, vector):
        """Params over `vector` itself, not a copy: a flat float64 array of
        every parameter in the layout above."""
        vector = np.asarray(vector, dtype=np.float64)
        size = spec.n_params
        if vector.shape != (size,):
            raise ShapeMismatch(
                f"NetworkParams: spec wants a vector of {size} values, got shape {vector.shape}"
            )
        views = spec.param_views(vector)
        if not np.isfinite(vector).all():
            layer = next(i for i, a in enumerate(views) if not np.isfinite(a).all()) // 2
            raise NonFiniteParams(f"NetworkParams: non-finite values in layer {layer}")
        self.spec = spec
        self.vector = vector
        self.weights = views[0::2]
        self.biases = views[1::2]

    def flat(self) -> list:
        """The views as one list [W0, b0, W1, b1, ...]."""
        return [a for pair in zip(self.weights, self.biases) for a in pair]


class ParamLeaves:
    """A NetworkParams as gradient leaves, one fresh `Var` per array. The
    forwards take it in place of the params, which they run as constants;
    after `backward`, `grad_vector()` holds the parameter gradients."""

    def __init__(self, params: NetworkParams):
        self.spec = params.spec
        self._vars = [Var(p) for p in params.flat()]

    def flat(self) -> list:
        return self._vars

    def grad_vector(self) -> np.ndarray:
        """The gradients in `NetworkParams.vector`'s layout."""
        return np.concatenate([v.grad.ravel() for v in self._vars])


def mlp_init(spec: NetworkSpec, seed: int) -> NetworkParams:
    """Scaled-Gaussian weights (std 1/sqrt(fan_in)), zero biases."""
    rng = np.random.default_rng(seed)
    vector = np.zeros(spec.n_params)
    for fan_in, w in zip(spec.layer_dims, spec.param_views(vector)[0::2]):
        w[...] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=w.shape)
    return NetworkParams(spec, vector)


def mlp_forward_vars(param_vars, spec: NetworkSpec, inp) -> tuple[Var, list[Var]]:
    """Forward pass on a (batch, input_dim) input over the parameters
    [W0, b0, W1, b1, ...]. Arrays enter as constants and `Var` leaves get
    gradients; with constant parameters and input no graph is built.
    Constant parameters also take a stacked (..., batch, input_dim) input,
    each slice with the bits of its own pass (see `autodiff.affine`).

    Hidden layers apply the spec's tanh or relu, fused into their `affine`
    node; the output is linear. Returns (output, hidden) where hidden holds
    the post-activation hidden layers ordered input -> output.
    """
    h = lift(inp)
    if h.ndim < 2 or h.shape[-1] != spec.input_dim:
        raise ShapeMismatch(
            f"mlp_forward_vars: input shape {h.shape}, spec wants (..., batch, {spec.input_dim})"
        )
    hidden = []
    n_layers = len(param_vars) // 2
    for i in range(n_layers):
        activation = spec.hidden_activation if i < n_layers - 1 else None
        h = affine(h, param_vars[2 * i], param_vars[2 * i + 1], activation)
        if activation is not None:
            hidden.append(h)
    return h, hidden


def with_condition(x, main) -> Var:
    """A network's input: condition x, if any, ahead of main's features.

    main is (batch, dim), or stacked (..., rows, dim) for constant
    parameters. x is None, a (batch, c) condition per row of a (batch, dim)
    main, or one constant (c,) condition shared by every row of main."""
    main = lift(main)
    if main.ndim < 2:
        raise ShapeMismatch(f"forward: expected (..., batch, dim) input, got shape {main.shape}")
    if x is None:
        return main
    x = lift(x)
    if x.ndim == 1 and not x.requires_grad:
        x = lift(np.broadcast_to(x.data, main.shape[:-1] + x.shape))
    elif x.ndim != 2 or main.ndim != 2 or x.shape[0] != main.shape[0]:
        raise ShapeMismatch(f"forward: condition shape {x.shape} vs input shape {main.shape}")
    return concat(x, main)


def generator_forward(params: NetworkParams | ParamLeaves, z, x=None) -> Var:
    """G(x, z) on a batch: the condition (see `with_condition`) ahead of
    the latents."""
    out, _ = mlp_forward_vars(params.flat(), params.spec, with_condition(x, z))
    return out


def generate(params: NetworkParams, z, x=None) -> np.ndarray:
    """G(x, z) as an array, run with constant parameters over z's leading
    axis in blocks of ROW_BLOCK rows, so a pass over any number of rows
    holds one block per hidden layer. z is (rows, z_dim), or stacked
    (rows, k, z_dim); x is None, a (rows, c) condition per row, sliced with
    z, or one (c,) condition shared by every row (see `with_condition`).

    A lone last row joins the block before it, since a 1-row product takes
    numpy's matrix-vector path, which rounds otherwise. The output agrees
    with one unblocked `generator_forward` to rounding, not always bit for
    bit: OpenBLAS does not round by row count alone. With one BLAS thread,
    128-wide hidden products split this way matched the unblocked product at
    every row count tried, but the narrow output products differed at some:
    128 -> 20 at 517 and 3721 rows, 128 -> 2 at 4097 and 262145 rows.
    Each (k, z_dim) slice of a stacked z is its own 2-D product (see
    `autodiff.affine`), so it keeps the bits of a call on that slice alone
    in any block, 1-row slices included; a shared condition joins every row
    as the same values, whatever the block.
    """
    z = np.asarray(z, dtype=np.float64)
    rows = len(z)
    per_row = x is not None and np.ndim(x) == 2
    if per_row and len(x) != rows:
        raise ShapeMismatch(f"generate: condition shape {np.shape(x)} vs input shape {z.shape}")
    out = np.empty(z.shape[:-1] + (params.spec.output_dim,))
    stops = list(range(ROW_BLOCK, rows - 1, ROW_BLOCK)) + [rows]
    for start, stop in zip([0] + stops, stops):
        cond = x[start:stop] if per_row else x
        out[start:stop] = generator_forward(params, z[start:stop], cond).data
    return out


def discriminator_forward(params: NetworkParams | ParamLeaves, y,
                          x=None) -> tuple[Var, list[Var]]:
    """D(x, y) on a batch: (pre-sigmoid logits (batch, 1), hidden features)."""
    return mlp_forward_vars(params.flat(), params.spec, with_condition(x, y))
