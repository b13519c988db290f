"""Adam with bias correction, as a pure functional update on array lists."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        if not math.isfinite(self.eps):
            raise ValueError("AdamHyper: eps must be finite")


@dataclass
class AdamState:
    """First/second moment buffers mirroring the parameter shapes."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0


def adam_init(params) -> AdamState:
    return AdamState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        t=0,
    )


def adam_step(params, grads, state: AdamState, hyper: AdamHyper):
    """One bias-corrected Adam update; returns (new params, new state).

    Inputs are untouched; the state's step counter advances by exactly 1.
    Non-finite gradients are an error so training loops can surface
    divergence instead of silently poisoning the moments.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError(
            f"adam_step: got {len(params)} params, {len(grads)} grads, "
            f"{len(state.m)} moment buffers"
        )
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"adam_step: param shape {p.shape} != grad shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericsError("adam_step: non-finite gradient")

    t = state.t + 1
    c1 = 1.0 - hyper.beta1**t
    c2 = 1.0 - hyper.beta2**t
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m = hyper.beta1 * m + (1.0 - hyper.beta1) * g
        v = hyper.beta2 * v + (1.0 - hyper.beta2) * (g * g)
        step = hyper.lr * (m / c1) / (np.sqrt(v / c2) + hyper.eps)
        new_params.append(p - step)
        new_m.append(m)
        new_v.append(v)
    return new_params, AdamState(m=new_m, v=new_v, t=t)
