"""Loss terms: adversarial losses, the diversity regularizer,
reconstruction, and the combined generator objective.

The diversity regularizer rewards the generator for mapping distinct
latent codes to distinct outputs: it is the ratio of the output distance
to the latent distance for an independently sampled pair (z1, z2). A
collapsed generator scores 0. The distance is taken in one of three spaces:
G's output (clipped at a margin tau for numerical stability), the
discriminator's hidden layers averaged over layers, or a generated sequence
averaged over its steps. `_space_distance` is the one rule for each space's
norm and clip, shared by the objective and `diversity_ratio`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import NumericsError, ShapeMismatch, Var, lift
from .nets import NetworkParams, ParamLeaves, discriminator_forward, generator_forward

__all__ = [
    "DiversityConfig",
    "ObjectiveConfig",
    "FakePair",
    "GeneratorLoss",
    "DegenerateLatentPair",
    "d_loss",
    "g_adv_loss",
    "diversity_ratio",
    "reconstruction_loss",
    "generate_fakes",
    "generator_total_loss",
    "MIN_Z_GAP",
    "RESAMPLE_ATTEMPTS",
]

NORMS = ("l1", "l2")
SPACES = ("output", "feature", "sequence")

RESAMPLE_ATTEMPTS = 8
MIN_Z_GAP = 1e-8  # latent pairs closer than this are resampled


class DegenerateLatentPair(ValueError):
    """z1 and z2 are too close for the ratio to be meaningful; resample z2."""


@dataclass(frozen=True)
class DiversityConfig:
    weight: float = 0.1  # lambda, importance of the regularizer
    tau: float | None = 10.0  # margin; None disables the clip
    norm: str = "l1"
    space: str = "output"

    def __post_init__(self):
        # chained comparisons: NaN and +-inf fail them
        if not 0 <= self.weight < math.inf:
            raise ValueError("DiversityConfig: weight must be finite and >= 0")
        if self.tau is not None and not 0 < self.tau < math.inf:
            raise ValueError("DiversityConfig: tau must be finite and positive when bounded")
        if self.norm not in NORMS:
            raise ValueError(f"DiversityConfig: unknown norm {self.norm!r}")
        if self.space not in SPACES:
            raise ValueError(f"DiversityConfig: unknown space {self.space!r}")


@dataclass(frozen=True)
class ObjectiveConfig:
    beta: float = 0.0  # reconstruction weight
    diversity: DiversityConfig = field(default_factory=DiversityConfig)

    def __post_init__(self):
        if not 0 <= self.beta < math.inf:
            raise ValueError("ObjectiveConfig: beta must be finite and >= 0")


@dataclass
class FakePair:
    """One generator minibatch and its two fakes: per example, an optional
    condition x, an optional target y (required iff beta > 0), two latents,
    and G(x, z1) and G(x, z2) built once on G's parameter leaves: the
    discriminator update reads y1's values and the generator objective its
    graph."""

    x: np.ndarray | None
    y: np.ndarray | None
    z1: np.ndarray
    z2: np.ndarray  # as used: rows too close to z1 redrawn
    gaps: np.ndarray  # ||z1 - z2|| per row, in the diversity space's norm
    y1: Var
    y2: Var  # built from constants at weight 0: it records no graph
    leaves: ParamLeaves  # the generator's, for reading gradients after backward


@dataclass
class GeneratorLoss:
    total: Var
    parts: dict  # the logged values, under their MetricRow column names


# -- adversarial losses ---------------------------------------------------


def _as_logit_var(logits, what: str) -> Var:
    v = lift(np.asarray(logits, dtype=np.float64) if not isinstance(logits, Var) else logits)
    if v.data.size == 0:
        raise ValueError(f"{what}: empty batch")
    return v


def d_loss(logits_real, logits_fake) -> Var:
    """Discriminator loss -mean[log s(real)] - mean[log(1 - s(fake))],
    computed in logit space so extreme scores stay finite."""
    lr = _as_logit_var(logits_real, "d_loss")
    lf = _as_logit_var(logits_fake, "d_loss")
    return (-lr).softplus().mean() + lf.softplus().mean()


def g_adv_loss(logits_fake) -> Var:
    """Generator adversarial loss on fake logits, the non-saturating
    -mean log s(logit), in logit space like d_loss."""
    return (-_as_logit_var(logits_fake, "g_adv_loss")).softplus().mean()


# -- diversity ratios ------------------------------------------------------


def _row_norms(diff: Var, norm: str) -> Var:
    """Norms over the last axis."""
    if norm == "l1":
        return diff.abs().sum(axis=-1)
    return diff.square().sum(axis=-1).sqrt()


def _batch_ratios(parts1, parts2, gaps: np.ndarray, norm: str,
                  tau: float | None) -> tuple[Var, Var]:
    """Per-example ratios of a batch: the row norms of parts1[k] - parts2[k]
    averaged over the parts, over the latent gaps. A (batch, dim) part is one
    part; a (batch, T, dim) sequence counts as T parts, one per step, whose
    norms are summed in step order (the leading-axis sum of a C-ordered
    (T, batch) copy adds them one by one, as a chain of adds would).

    Returns (term entering the objective, raw ratio); the term is the raw
    ratio clipped at tau, or the raw ratio itself when tau is None.
    """
    acc, count = None, 0
    for a, b in zip(parts1, parts2):
        d = _row_norms(a - b, norm)
        if d.ndim == 2:
            count += d.shape[1]
            d = d.transpose().sum(axis=0)
        else:
            count += 1
        acc = d if acc is None else acc + d
    raw = acc * (1.0 / count) * lift(1.0 / gaps)
    return (raw.clip_max(tau) if tau is not None else raw), raw


def _value(t) -> np.ndarray:
    return t.data if isinstance(t, Var) else np.asarray(t, dtype=np.float64)


def _space_distance(div: DiversityConfig) -> tuple[str, float | None]:
    """(norm, tau) of div's space, on outputs and latents alike: output space
    takes div.norm and div.tau, feature space div.norm with no clip, and
    sequence space l1 with no clip."""
    if div.space == "sequence":
        return "l1", None
    return div.norm, (div.tau if div.space == "output" else None)


def diversity_ratio(parts1, parts2, z1, z2, cfg: DiversityConfig) -> float:
    """One latent pair's ratio in cfg.space, as the objective scores it: the
    distance between parts1 and parts2 averaged over the parts, over the
    latent distance, with the space's norm and clip (`_space_distance`).

    The parts are lists of arrays: one output in output space, one per
    discriminator hidden layer in feature space, one per step in sequence
    space.
    """
    p1, p2 = [_value(a) for a in parts1], [_value(b) for b in parts2]
    z1, z2 = _value(z1), _value(z2)
    if len(p1) != len(p2) or not p1:
        raise ShapeMismatch(f"diversity_ratio: part lists of length {len(p1)} and {len(p2)}")
    for i, (a, b) in enumerate(zip(p1, p2)):
        if a.shape != b.shape:
            raise ShapeMismatch(f"diversity_ratio: part {i} shapes {a.shape} and {b.shape}")
    if z1.shape != z2.shape:
        raise ShapeMismatch(f"diversity_ratio: latent shapes {z1.shape} and {z2.shape}")
    norm, tau = _space_distance(cfg)
    _, gap = _resample_z2(np.reshape(z1, (1, -1)), np.reshape(z2, (1, -1)), None, norm)
    term, _ = _batch_ratios([lift(np.reshape(a, (1, -1))) for a in p1],
                            [lift(np.reshape(b, (1, -1))) for b in p2], gap, norm, tau)
    return float(term.data[0])


def reconstruction_loss(y_hat, y) -> Var:
    """Mean absolute error between prediction and target."""
    vh, vy = lift(y_hat), lift(y)
    if vh.shape != vy.shape:
        raise ShapeMismatch(f"reconstruction_loss: shapes {vh.shape} and {vy.shape}")
    return (vh - vy).abs().mean()


# -- combined generator objective ------------------------------------------


def _resample_z2(z1: np.ndarray, z2: np.ndarray, rng, norm: str) -> tuple[np.ndarray, np.ndarray]:
    """Redraw z2 rows that are too close to z1; error after 8 attempts.

    Returns z2 and the latent gaps ||z1 - z2|| per row."""
    z2 = np.array(z2, dtype=np.float64)
    for _ in range(RESAMPLE_ATTEMPTS):
        gaps = _row_norms(lift(z1 - z2), norm).data
        bad = gaps < MIN_Z_GAP
        if not np.any(bad):
            return z2, gaps
        if rng is None:
            raise DegenerateLatentPair(
                f"latent gap below MIN_Z_GAP {MIN_Z_GAP:.1e} and no rng to resample z2"
            )
        z2[bad] = rng.standard_normal((int(bad.sum()), z2.shape[1]))
    raise DegenerateLatentPair(
        f"z-gap below {MIN_Z_GAP} after {RESAMPLE_ATTEMPTS} resampling attempts"
    )


def generate_fakes(params_G: NetworkParams, cfg: ObjectiveConfig, z1, z2, x=None, y=None,
                   rng=None) -> FakePair:
    """The batch and its two fakes on fresh gradient leaves of params_G, after
    redrawing from rng the z2 rows too close to z1 (`_resample_z2`)."""
    div = cfg.diversity
    z1 = np.asarray(z1, dtype=np.float64)
    z2, gaps = _resample_z2(z1, z2, rng, _space_distance(div)[0])
    leaves = ParamLeaves(params_G)
    y1 = generator_forward(leaves, z1, x)
    # at weight 0 the second fake only feeds the logged ratios
    y2 = generator_forward(leaves if div.weight > 0 else params_G, z2, x)
    return FakePair(x=x, y=y, z1=z1, z2=z2, gaps=gaps, y1=y1, y2=y2, leaves=leaves)


def generator_total_loss(fakes: FakePair, params_D: NetworkParams,
                         cfg: ObjectiveConfig) -> GeneratorLoss:
    """Full generator objective on one batch's fakes:

        adv(D(x, G(x, z1))) + beta * rec(G(x, z1), y) - lambda * mean ratios

    The adversarial and reconstruction terms use the first fake only; the
    second fake exists for the regularizer. Ratios compare G(x, z1) with
    G(x, z2) in the configured space (discriminator features when
    space="feature"). Gradients reach G's parameters through fakes.leaves;
    the latents, the condition and D's parameters enter as constants, so
    backward computes no gradient for them.
    """
    div, x = cfg.diversity, fakes.x
    if cfg.beta > 0 and fakes.y is None:
        raise ValueError("generator_total_loss: beta > 0 requires targets y")
    norm, tau = _space_distance(div)
    y1, y2 = fakes.y1, fakes.y2

    logits1, feats1 = discriminator_forward(params_D, y1, x)
    adv = g_adv_loss(logits1)

    rec = reconstruction_loss(y1, fakes.y) if cfg.beta > 0 else None

    if div.space == "output":
        parts1, parts2 = [y1], [y2]
    elif div.space == "feature":
        parts1, parts2 = feats1, discriminator_forward(params_D, y2, x)[1]
    else:  # the flat (B, 2T) sequences as (B, T, 2): every step is a 2-D point
        parts1, parts2 = [y1.reshape(y1.shape[0], -1, 2)], [y2.reshape(y2.shape[0], -1, 2)]
    term, raw = _batch_ratios(parts1, parts2, fakes.gaps, norm, tau)
    if div.weight > 0:
        l_z = term.mean()
        total = adv - div.weight * l_z
        l_z_val = l_z.item()
    else:
        # baseline objective: the ratios stay off the loss, logging only
        l_z_val = float(term.data.mean())
        total = adv
    if rec is not None:
        total = total + cfg.beta * rec

    parts = {"g_adv": adv.item(), "g_rec": rec.item() if rec is not None else 0.0,
             "l_z": l_z_val, "ratio_mean": float(raw.data.mean())}
    if not np.isfinite(total.data):
        raise NumericsError("generator_total_loss: non-finite loss")
    return GeneratorLoss(total=total, parts=parts)
