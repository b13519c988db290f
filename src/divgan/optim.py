"""Adam with bias correction, as a pure functional update on one parameter
vector."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import NumericsError

__all__ = ["AdamHyper", "AdamState", "adam_init", "adam_step"]


@dataclass(frozen=True)
class AdamHyper:
    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        # chained comparisons: NaN and +-inf fail them
        if not 0 < self.lr < math.inf:
            raise ValueError("AdamHyper: lr must be finite and positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("AdamHyper: betas must lie in [0, 1)")
        # a zero eps turns a zero gradient entry into 0/0
        if not 0 < self.eps < math.inf:
            raise ValueError("AdamHyper: eps must be finite and positive")


@dataclass
class AdamState:
    """First/second moment vectors in the parameter vector's layout."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_init(params: np.ndarray) -> AdamState:
    return AdamState(m=np.zeros_like(params), v=np.zeros_like(params), t=0)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, hyper: AdamHyper):
    """One bias-corrected Adam update; returns (new params, new state).

    Inputs are untouched; the state's step counter advances by exactly 1.
    Non-finite gradients are an error so training loops can surface
    divergence instead of silently poisoning the moments.
    """
    if not params.shape == grads.shape == state.m.shape == state.v.shape:
        raise ValueError(
            f"adam_step: param shape {params.shape}, grad shape {grads.shape}, "
            f"moment shapes {state.m.shape} and {state.v.shape}"
        )
    if not np.all(np.isfinite(grads)):
        raise NumericsError("adam_step: non-finite gradient")

    t = state.t + 1
    c1 = 1.0 - hyper.beta1**t
    c2 = 1.0 - hyper.beta2**t
    m = hyper.beta1 * state.m + (1.0 - hyper.beta1) * grads
    v = hyper.beta2 * state.v + (1.0 - hyper.beta2) * (grads * grads)
    step = hyper.lr * (m / c1) / (np.sqrt(v / c2) + hyper.eps)
    return params - step, AdamState(m=m, v=v, t=t)
