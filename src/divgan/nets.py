"""MLP generators and discriminators on top of the autodiff engine.

Both networks are plain fully connected stacks. The discriminator exposes
its post-activation hidden layers so the feature-space regularizer can
measure sample distances there. Conditioning, when present, is input
concatenation of the condition with the latent code (generator) or the
candidate output (discriminator).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import NumericsError, ShapeMismatch, Var, concat, lift

__all__ = [
    "HIDDEN_ACTIVATIONS",
    "OUTPUT_ACTIVATIONS",
    "NetworkSpec",
    "NetworkParams",
    "NonFiniteParams",
    "mlp_init",
    "mlp_forward",
    "mlp_forward_vars",
    "generator_forward",
    "discriminator_forward",
    "default_generator_spec",
    "default_discriminator_spec",
]

HIDDEN_ACTIVATIONS = ("tanh", "relu", "leaky_relu")
OUTPUT_ACTIVATIONS = ("linear", "sigmoid", "tanh")

LEAKY_SLOPE = 0.2


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
        return NetworkSpec(
            input_dim=int(d["input_dim"]),
            hidden_dims=tuple(d["hidden_dims"]),
            output_dim=int(d["output_dim"]),
            hidden_activation=d["hidden_activation"],
            output_activation=d["output_activation"],
            init_scale=float(d["init_scale"]),
        )


class NonFiniteParams(NumericsError, ValueError):
    """Weights or biases hold NaN or inf.

    A NumericsError, so a training step that produces them reports a
    divergence; a ValueError, because as input the values are invalid.
    """


class NetworkParams:
    """Per-layer weight matrices and bias vectors for one NetworkSpec."""

    def __init__(self, spec: NetworkSpec, weights, biases):
        dims = spec.layer_dims
        if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
            raise ShapeMismatch(
                f"NetworkParams: spec wants {len(dims) - 1} layers, "
                f"got {len(weights)} weight matrices and {len(biases)} biases"
            )
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
                raise ShapeMismatch(
                    f"NetworkParams: layer {i} has W{w.shape}, b{b.shape}, "
                    f"spec wants W{(dims[i], dims[i + 1])}, b{(dims[i + 1],)}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise NonFiniteParams(f"NetworkParams: non-finite values in layer {i}")
        self.spec = spec
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]

    def flat(self) -> list:
        """Parameters as one list [W0, b0, W1, b1, ...] for the optimizer."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    @staticmethod
    def from_flat(spec: NetworkSpec, flat) -> "NetworkParams":
        return NetworkParams(spec, flat[0::2], flat[1::2])

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.spec, [w.copy() for w in self.weights], [b.copy() for b in self.biases])


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


def _activate(h: Var, kind: str) -> Var:
    if kind == "tanh":
        return h.tanh()
    if kind == "relu":
        return h.relu()
    if kind == "leaky_relu":
        return h.leaky_relu(LEAKY_SLOPE)
    if kind == "sigmoid":
        return h.sigmoid()
    return h  # linear


def mlp_forward(params: NetworkParams, inp) -> tuple[Var, list[Var]]:
    """Forward pass on a (batch, input_dim) array with the parameters held
    constant: gradients reach only the input, and with a constant input no
    graph is built.

    Returns (output, hidden) where hidden holds the post-activation hidden
    layers ordered input -> output.
    """
    return mlp_forward_vars([lift(p) for p in params.flat()], params.spec, inp)


def mlp_forward_vars(param_vars, spec: NetworkSpec, inp) -> tuple[Var, list[Var]]:
    """Forward pass over parameter Vars [W0, b0, W1, b1, ...]; explicit Var
    leaves get gradients (training path)."""
    h = lift(inp)
    if h.ndim != 2 or h.shape[1] != spec.input_dim:
        raise ShapeMismatch(
            f"mlp_forward: input shape {h.shape}, spec wants (batch, {spec.input_dim})"
        )
    hidden = []
    n_layers = len(param_vars) // 2
    for i in range(n_layers):
        h = (h @ param_vars[2 * i]) + param_vars[2 * i + 1]
        if i < n_layers - 1:
            h = _activate(h, spec.hidden_activation)
            hidden.append(h)
        else:
            h = _activate(h, spec.output_activation)
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


def generator_forward(params: NetworkParams, z, x=None) -> Var:
    """G(x, z) on a batch: condition (optional) concatenated with latents."""
    out, _ = mlp_forward(params, _with_condition(x, z))
    return out


def discriminator_forward(params: NetworkParams, y, x=None) -> tuple[Var, list[Var]]:
    """D(x, y) on a batch: (pre-sigmoid logits (batch, 1), hidden features)."""
    return mlp_forward(params, _with_condition(x, y))


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
