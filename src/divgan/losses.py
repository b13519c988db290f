"""Loss terms: adversarial losses, the diversity regularizer and its
feature-space and sequence variants, reconstruction, and the combined
generator objective.

The diversity regularizer rewards the generator for mapping distinct
latent codes to distinct outputs: it is the ratio of the output distance
to the latent distance for an independently sampled pair (z1, z2), clipped
at a margin tau for numerical stability. A collapsed generator scores 0.
The feature-space variant measures the output distance in the
discriminator's hidden layers (no margin); the sequence variant averages
per-step l1 distances over a generated sequence (no margin).
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
    "TrainBatch",
    "GeneratorLoss",
    "DegenerateLatentPair",
    "d_loss",
    "g_adv_loss",
    "diversity_ratio",
    "feature_diversity_ratio",
    "sequence_diversity_ratio",
    "reconstruction_loss",
    "generator_total_loss",
    "MIN_Z_GAP",
    "RESAMPLE_ATTEMPTS",
]

NORMS = ("l1", "l2")
SPACES = ("output", "feature", "sequence")
G_LOSS_FORMS = ("minimax", "non_saturating")

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
    g_loss_form: str = "non_saturating"
    diversity: DiversityConfig = field(default_factory=DiversityConfig)

    def __post_init__(self):
        if not 0 <= self.beta < math.inf:
            raise ValueError("ObjectiveConfig: beta must be finite and >= 0")
        if self.g_loss_form not in G_LOSS_FORMS:
            raise ValueError(f"ObjectiveConfig: unknown g_loss_form {self.g_loss_form!r}")


@dataclass
class TrainBatch:
    """One generator minibatch: per example, an optional condition x, an
    optional target y (required iff beta > 0) and two independent latents."""

    z1: np.ndarray
    z2: np.ndarray
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    seq_len: int = 1  # >1: y and the generator output are flat (B, T*dim) sequences


@dataclass
class GeneratorLoss:
    total: Var
    parts: dict
    param_vars: list  # generator leaves, for reading gradients after backward
    z2_used: np.ndarray | None = None


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


def g_adv_loss(logits_fake, form: str = "non_saturating") -> Var:
    """Generator adversarial loss on fake logits.

    minimax: mean log(1 - s(logit)); non_saturating: -mean log s(logit).
    """
    if form not in G_LOSS_FORMS:
        raise ValueError(f"g_adv_loss: unknown form {form!r}")
    lf = _as_logit_var(logits_fake, "g_adv_loss")
    if form == "minimax":
        return -(lf.softplus().mean())
    return (-lf).softplus().mean()


# -- diversity ratios ------------------------------------------------------


def _row_norms(diff: Var, norm: str) -> Var:
    if norm == "l1":
        return diff.abs().sum(axis=1)
    return diff.square().sum(axis=1).sqrt()


def _batch_ratios(parts1, parts2, gaps: np.ndarray, norm: str,
                  tau: float | None) -> tuple[Var, Var]:
    """Per-example ratios of a batch: the row norms of parts1[k] - parts2[k]
    (each (batch, dim)) averaged over the parts, over the latent gaps.

    Returns (term entering the objective, raw ratio); the term is the raw
    ratio clipped at tau, or the raw ratio itself when tau is None.
    """
    acc = None
    for a, b in zip(parts1, parts2):
        d = _row_norms(a - b, norm)
        acc = d if acc is None else acc + d
    raw = acc * (1.0 / len(parts1)) * lift(1.0 / gaps)
    return (raw.clip_max(tau) if tau is not None else raw), raw


def _value(t) -> np.ndarray:
    return t.data if isinstance(t, Var) else np.asarray(t, dtype=np.float64)


def _pair_ratio(parts1, parts2, z1, z2, norm: str, tau: float | None) -> float:
    """One latent pair through the batch formula, each part a batch of one."""
    gap = _row_norms(lift(np.reshape(_value(z1) - _value(z2), (1, -1))), norm).data
    if gap[0] < MIN_Z_GAP:
        raise DegenerateLatentPair(
            f"latent gap {gap[0]:.3e} below MIN_Z_GAP {MIN_Z_GAP:.3e}; resample z2"
        )
    rows1 = [lift(np.reshape(a, (1, -1))) for a in parts1]
    rows2 = [lift(np.reshape(b, (1, -1))) for b in parts2]
    term, _ = _batch_ratios(rows1, rows2, gap, norm, tau)
    return float(term.data[0])


def diversity_ratio(y1, y2, z1, z2, cfg: DiversityConfig) -> float:
    """min(||y1 - y2|| / ||z1 - z2||, tau) with cfg.norm on both sides."""
    y1, y2, z1, z2 = _value(y1), _value(y2), _value(z1), _value(z2)
    if y1.shape != y2.shape:
        raise ShapeMismatch(f"diversity_ratio: output shapes {y1.shape} and {y2.shape}")
    if z1.shape != z2.shape:
        raise ShapeMismatch(f"diversity_ratio: latent shapes {z1.shape} and {z2.shape}")
    return _pair_ratio([y1], [y2], z1, z2, cfg.norm, cfg.tau)


def feature_diversity_ratio(feats1, feats2, z1, z2, cfg: DiversityConfig) -> float:
    """Layer-averaged discriminator-feature distance over latent distance.

    No margin: the feature-space objective is used unclipped.
    """
    f1 = [_value(f) for f in feats1]
    f2 = [_value(f) for f in feats2]
    if len(f1) != len(f2) or not f1:
        raise ShapeMismatch(
            f"feature_diversity_ratio: feature lists of length {len(f1)} and {len(f2)}"
        )
    for i, (a, b) in enumerate(zip(f1, f2)):
        if a.shape != b.shape:
            raise ShapeMismatch(
                f"feature_diversity_ratio: layer {i} shapes {a.shape} and {b.shape}"
            )
    return _pair_ratio(f1, f2, z1, z2, cfg.norm, None)


def sequence_diversity_ratio(seq1, seq2, z1, z2, cfg: DiversityConfig) -> float:
    """Per-step l1 output distance averaged over the sequence, over the l1
    latent distance. Both norms are fixed to l1; there is no margin."""
    s1 = [_value(s) for s in seq1]
    s2 = [_value(s) for s in seq2]
    if len(s1) != len(s2) or not s1:
        raise ShapeMismatch(
            f"sequence_diversity_ratio: sequences of length {len(s1)} and {len(s2)}"
        )
    return _pair_ratio(s1, s2, z1, z2, "l1", None)


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
                "degenerate z pair in batch and no rng available to resample"
            )
        z2[bad] = rng.standard_normal((int(bad.sum()), z2.shape[1]))
    raise DegenerateLatentPair(
        f"z-gap below {MIN_Z_GAP} after {RESAMPLE_ATTEMPTS} resampling attempts"
    )


def generator_total_loss(batch: TrainBatch, params_G: NetworkParams,
                         params_D: NetworkParams, cfg: ObjectiveConfig,
                         rng=None) -> GeneratorLoss:
    """Full generator objective on one batch:

        adv(D(x, G(x, z1))) + beta * rec(G(x, z1), y) - lambda * mean ratios

    The adversarial and reconstruction terms use the first fake only; the
    second fake exists for the regularizer. Ratios compare G(x, z1) with
    G(x, z2) in the configured space (discriminator features when
    space="feature"). Returns the loss graph plus the generator parameter
    leaves so callers can read gradients after backward(). The latents, the
    condition and D's parameters enter as constants, so backward computes
    no gradient for them.
    """
    div = cfg.diversity
    if cfg.beta > 0 and batch.y is None:
        raise ValueError("generator_total_loss: beta > 0 requires targets y")
    z1 = np.asarray(batch.z1, dtype=np.float64)
    # the sequence variant fixes both norms to l1; only output space clips
    norm = "l1" if div.space == "sequence" else div.norm
    tau = div.tau if div.space == "output" else None
    z2, gaps = _resample_z2(z1, batch.z2, rng, norm)

    leaves = ParamLeaves(params_G)
    y1 = generator_forward(leaves, z1, batch.x)
    y2 = generator_forward(leaves, z2, batch.x)

    logits1, feats1 = discriminator_forward(params_D, y1, batch.x)
    adv = g_adv_loss(logits1, cfg.g_loss_form)

    if cfg.beta > 0:
        rec = reconstruction_loss(y1, batch.y)
    else:
        rec = None

    if div.space == "output":
        parts1, parts2 = [y1], [y2]
    elif div.space == "feature":
        parts1, parts2 = feats1, discriminator_forward(params_D, y2, batch.x)[1]
    else:  # per-step slices of the flattened (B, T*dim) sequences
        step = y1.shape[1] // batch.seq_len
        cuts = [(t * step, (t + 1) * step) for t in range(batch.seq_len)]
        parts1 = [y1.cols(a, b) for a, b in cuts]
        parts2 = [y2.cols(a, b) for a, b in cuts]
    term, raw = _batch_ratios(parts1, parts2, gaps, norm, tau)
    ratio_mean = float(raw.data.mean())
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

    parts = {
        "adv": adv.item(),
        "rec": rec.item() if rec is not None else 0.0,
        "l_z": l_z_val,
        "ratio_mean": ratio_mean,
    }
    if not np.isfinite(total.data):
        raise NumericsError("generator_total_loss: non-finite loss")
    return GeneratorLoss(total=total, parts=parts, param_vars=leaves.flat(), z2_used=z2)
