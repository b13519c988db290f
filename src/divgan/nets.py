"""MLP generators and discriminators on top of the autodiff engine.

Both networks are plain fully connected stacks with tanh or relu hidden
layers and a linear output. The discriminator exposes its post-activation
hidden layers so the feature-space regularizer can measure sample
distances there. Conditioning, when present, is input concatenation of the
condition with the latent code (generator) or the candidate output
(discriminator).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import NumericsError, ShapeMismatch, Var, affine, concat, lift

__all__ = [
    "HIDDEN_ACTIVATIONS",
    "OUTPUT_ACTIVATIONS",
    "NetworkSpec",
    "NetworkParams",
    "NonFiniteParams",
    "ParamLeaves",
    "mlp_init",
    "mlp_forward_vars",
    "generator_forward",
    "discriminator_forward",
    "default_generator_spec",
    "default_discriminator_spec",
]

HIDDEN_ACTIVATIONS = ("tanh", "relu")
OUTPUT_ACTIVATIONS = ("linear",)


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    hidden_dims: tuple
    output_dim: int
    hidden_activation: str = "tanh"
    output_activation: str = "linear"
    init_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        dims = (self.input_dim, self.output_dim) + self.hidden_dims
        if any(d < 1 for d in dims):
            raise ValueError(f"NetworkSpec: all dims must be >= 1, got {dims}")
        if self.init_scale <= 0:
            raise ValueError("NetworkSpec: init_scale must be positive")
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"NetworkSpec: unknown hidden activation {self.hidden_activation!r}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"NetworkSpec: unknown output activation {self.output_activation!r}")

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

    def param_vector(self, arrays) -> np.ndarray:
        """The arrays [W0, b0, W1, b1, ...] copied into a new vector in the
        parameter layout. ValueError if an array cannot fill its shape."""
        vector = np.empty(self.n_params)
        for view, a in zip(self.param_views(vector), arrays):
            view[...] = np.asarray(a, dtype=np.float64).reshape(view.shape)
        return vector

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden_dims": list(self.hidden_dims),
            "output_dim": self.output_dim,
            "hidden_activation": self.hidden_activation,
            "output_activation": self.output_activation,
            "init_scale": self.init_scale,
        }

    @staticmethod
    def from_dict(d: dict) -> "NetworkSpec":
        """The spec `to_dict` stored, read strictly: dims are JSON integers
        >= 1 and init_scale a finite positive number (bools, strings and
        fractional dims are refused with a ValueError, not rounded)."""
        for key in ("input_dim", "output_dim"):
            if not _is_dim(d[key]):
                raise ValueError(f"NetworkSpec: {key} must be an integer >= 1, "
                                 f"got {json.dumps(d[key])}")
        hidden = d["hidden_dims"]
        if not isinstance(hidden, list) or not all(map(_is_dim, hidden)):
            raise ValueError(f"NetworkSpec: hidden_dims must be a list of integers >= 1, "
                             f"got {json.dumps(hidden)}")
        scale = d["init_scale"]
        number = isinstance(scale, (int, float)) and not isinstance(scale, bool)
        if not number or not 0 < scale < math.inf:
            raise ValueError(f"NetworkSpec: init_scale must be a finite positive number, "
                             f"got {json.dumps(scale)}")
        return NetworkSpec(
            input_dim=d["input_dim"],
            hidden_dims=tuple(hidden),
            output_dim=d["output_dim"],
            hidden_activation=d["hidden_activation"],
            output_activation=d["output_activation"],
            init_scale=float(scale),
        )


def _is_dim(value) -> bool:
    """A stored dim: a JSON integer >= 1, not a bool or a float."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


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

    def __init__(self, spec: NetworkSpec, weights, biases):
        shapes = spec.param_shapes
        n_layers = len(shapes) // 2
        if len(weights) != n_layers or len(biases) != n_layers:
            raise ShapeMismatch(
                f"NetworkParams: spec wants {n_layers} layers, "
                f"got {len(weights)} weight matrices and {len(biases)} biases"
            )
        for i, (w, b) in enumerate(zip(weights, biases)):
            if np.shape(w) != shapes[2 * i] or np.shape(b) != shapes[2 * i + 1]:
                raise ShapeMismatch(
                    f"NetworkParams: layer {i} has W{np.shape(w)}, b{np.shape(b)}, "
                    f"spec wants W{shapes[2 * i]}, b{shapes[2 * i + 1]}"
                )
        self._bind(spec, spec.param_vector([a for pair in zip(weights, biases) for a in pair]))

    @classmethod
    def from_vector(cls, spec: NetworkSpec, vector) -> "NetworkParams":
        """Params over `vector` itself, not a copy: a flat float64 array of
        every parameter in `vector`'s layout."""
        params = cls.__new__(cls)
        params._bind(spec, np.asarray(vector, dtype=np.float64))
        return params

    def _bind(self, spec: NetworkSpec, vector: np.ndarray) -> None:
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
        return self.spec.param_vector([v.grad for v in self._vars])


def mlp_init(spec: NetworkSpec, seed: int) -> NetworkParams:
    """Scaled-Gaussian weights (std init_scale/sqrt(fan_in)), zero biases."""
    rng = np.random.default_rng(seed)
    dims = spec.layer_dims
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        std = spec.init_scale / np.sqrt(fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return NetworkParams(spec, weights, biases)


def mlp_forward_vars(param_vars, spec: NetworkSpec, inp) -> tuple[Var, list[Var]]:
    """Forward pass on a (batch, input_dim) input over the parameters
    [W0, b0, W1, b1, ...]. Arrays enter as constants and `Var` leaves get
    gradients; with constant parameters and input no graph is built.

    Hidden layers apply the spec's tanh or relu, fused into their `affine`
    node; the output is linear. Returns (output, hidden) where hidden holds
    the post-activation hidden layers ordered input -> output.
    """
    h = lift(inp)
    if h.ndim != 2 or h.shape[1] != spec.input_dim:
        raise ShapeMismatch(
            f"mlp_forward_vars: input shape {h.shape}, spec wants (batch, {spec.input_dim})"
        )
    hidden = []
    n_layers = len(param_vars) // 2
    for i in range(n_layers):
        activation = spec.hidden_activation if i < n_layers - 1 else None
        h = affine(h, param_vars[2 * i], param_vars[2 * i + 1], activation)
        if activation is not None:
            hidden.append(h)
    return h, hidden


def _with_condition(x, main) -> Var:
    main = lift(main)
    if main.ndim != 2:
        raise ShapeMismatch(f"forward: expected (batch, dim) input, got shape {main.shape}")
    if x is None:
        return main
    x = lift(x)
    if x.ndim != 2 or x.shape[0] != main.shape[0]:
        raise ShapeMismatch(f"forward: condition shape {x.shape} vs input shape {main.shape}")
    return concat([x, main], axis=1)


def generator_forward(params: NetworkParams | ParamLeaves, z, x=None) -> Var:
    """G(x, z) on a batch: condition (optional) concatenated with latents."""
    out, _ = mlp_forward_vars(params.flat(), params.spec, _with_condition(x, z))
    return out


def discriminator_forward(params: NetworkParams | ParamLeaves, y,
                          x=None) -> tuple[Var, list[Var]]:
    """D(x, y) on a batch: (pre-sigmoid logits (batch, 1), hidden features)."""
    return mlp_forward_vars(params.flat(), params.spec, _with_condition(x, y))


def default_generator_spec(z_dim: int = 2, cond_dim: int = 0, out_dim: int = 2) -> NetworkSpec:
    """Toy-scale default: 2 tanh hidden layers of 128, linear output."""
    return NetworkSpec(
        input_dim=cond_dim + z_dim,
        hidden_dims=(128, 128),
        output_dim=out_dim,
        hidden_activation="tanh",
        output_activation="linear",
    )


def default_discriminator_spec(y_dim: int = 2, cond_dim: int = 0) -> NetworkSpec:
    """Toy-scale default: 2 relu hidden layers of 128, single logit."""
    return NetworkSpec(
        input_dim=cond_dim + y_dim,
        hidden_dims=(128, 128),
        output_dim=1,
        hidden_activation="relu",
        output_activation="linear",
    )
