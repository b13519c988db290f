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

from dataclasses import dataclass, field

import numpy as np

from .autodiff import NumericsError, ShapeMismatch, Var, concat, lift
from .nets import NetworkParams, discriminator_forward, mlp_forward_vars

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
    "RESAMPLE_ATTEMPTS",
]

NORMS = ("l1", "l2")
SPACES = ("output", "feature", "sequence")
G_LOSS_FORMS = ("minimax", "non_saturating")

RESAMPLE_ATTEMPTS = 8


class DegenerateLatentPair(ValueError):
    """z1 and z2 are too close for the ratio to be meaningful; resample z2."""


@dataclass(frozen=True)
class DiversityConfig:
    weight: float = 0.1  # lambda, importance of the regularizer
    tau: float | None = 10.0  # margin; None disables the clip
    norm: str = "l1"
    space: str = "output"
    min_z_gap: float = 1e-8

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("DiversityConfig: weight must be >= 0")
        if self.tau is not None and self.tau <= 0:
            raise ValueError("DiversityConfig: tau must be positive when bounded")
        if self.norm not in NORMS:
            raise ValueError(f"DiversityConfig: unknown norm {self.norm!r}")
        if self.space not in SPACES:
            raise ValueError(f"DiversityConfig: unknown space {self.space!r}")
        if self.min_z_gap <= 0:
            raise ValueError("DiversityConfig: min_z_gap must be positive")


@dataclass(frozen=True)
class ObjectiveConfig:
    beta: float = 0.0  # reconstruction weight
    g_loss_form: str = "non_saturating"
    diversity: DiversityConfig = field(default_factory=DiversityConfig)

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("ObjectiveConfig: beta must be >= 0")
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


# -- norms ----------------------------------------------------------------


def _pair_norm(diff: np.ndarray, norm: str) -> float:
    if norm == "l1":
        return float(np.sum(np.abs(diff)))
    return float(np.sqrt(np.sum(diff * diff)))


def _row_norms_np(diff: np.ndarray, norm: str) -> np.ndarray:
    if norm == "l1":
        return np.sum(np.abs(diff), axis=1)
    return np.sqrt(np.sum(diff * diff, axis=1))


def _row_norms(diff: Var, norm: str) -> Var:
    if norm == "l1":
        return diff.abs().sum(axis=1)
    return diff.square().sum(axis=1).sqrt()


def _value(t) -> np.ndarray:
    return t.data if isinstance(t, Var) else np.asarray(t, dtype=np.float64)


def _check_gap(gap: float, cfg: DiversityConfig) -> float:
    if gap < cfg.min_z_gap:
        raise DegenerateLatentPair(
            f"latent gap {gap:.3e} below min_z_gap {cfg.min_z_gap:.3e}; resample z2"
        )
    return gap


# -- diversity ratios (pairwise contracts) ---------------------------------


def diversity_ratio(y1, y2, z1, z2, cfg: DiversityConfig) -> float:
    """min(||y1 - y2|| / ||z1 - z2||, tau) with cfg.norm on both sides."""
    y1, y2, z1, z2 = _value(y1), _value(y2), _value(z1), _value(z2)
    if y1.shape != y2.shape:
        raise ShapeMismatch(f"diversity_ratio: output shapes {y1.shape} and {y2.shape}")
    if z1.shape != z2.shape:
        raise ShapeMismatch(f"diversity_ratio: latent shapes {z1.shape} and {z2.shape}")
    gap = _check_gap(_pair_norm(z1 - z2, cfg.norm), cfg)
    ratio = _pair_norm(y1 - y2, cfg.norm) / gap
    return min(ratio, cfg.tau) if cfg.tau is not None else ratio


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
    gap = _check_gap(_pair_norm(_value(z1) - _value(z2), cfg.norm), cfg)
    mean_dist = np.mean([_pair_norm(a - b, cfg.norm) for a, b in zip(f1, f2)])
    return float(mean_dist / gap)


def sequence_diversity_ratio(seq1, seq2, z1, z2, cfg: DiversityConfig) -> float:
    """Per-step l1 output distance averaged over the sequence, over the l1
    latent distance. Both norms are fixed to l1; there is no margin."""
    s1 = [_value(s) for s in seq1]
    s2 = [_value(s) for s in seq2]
    if len(s1) != len(s2) or not s1:
        raise ShapeMismatch(
            f"sequence_diversity_ratio: sequences of length {len(s1)} and {len(s2)}"
        )
    l1_cfg = DiversityConfig(weight=cfg.weight, tau=None, norm="l1", space="sequence",
                             min_z_gap=cfg.min_z_gap)
    gap = _check_gap(_pair_norm(_value(z1) - _value(z2), "l1"), l1_cfg)
    mean_dist = np.mean([_pair_norm(a - b, "l1") for a, b in zip(s1, s2)])
    return float(mean_dist / gap)


def reconstruction_loss(y_hat, y) -> Var:
    """Mean absolute error between prediction and target."""
    vh, vy = lift(y_hat), lift(y)
    if vh.shape != vy.shape:
        raise ShapeMismatch(f"reconstruction_loss: shapes {vh.shape} and {vy.shape}")
    return (vh - vy).abs().mean()


# -- combined generator objective ------------------------------------------


def _resample_z2(z1: np.ndarray, z2: np.ndarray, cfg: DiversityConfig, rng,
                 norm: str) -> np.ndarray:
    """Redraw z2 rows that are too close to z1; error after 8 attempts."""
    z2 = np.array(z2, dtype=np.float64)
    for _ in range(RESAMPLE_ATTEMPTS):
        gaps = _row_norms_np(z1 - z2, norm)
        bad = gaps < cfg.min_z_gap
        if not np.any(bad):
            return z2
        if rng is None:
            raise DegenerateLatentPair(
                "degenerate z pair in batch and no rng available to resample"
            )
        z2[bad] = rng.standard_normal((int(bad.sum()), z2.shape[1]))
    raise DegenerateLatentPair(
        f"z-gap below {cfg.min_z_gap} after {RESAMPLE_ATTEMPTS} resampling attempts"
    )


def _batch_ratios(y1: Var, y2: Var, feats1, feats2, gaps: np.ndarray,
                  cfg: DiversityConfig, seq_len: int) -> tuple[Var, Var]:
    """Graph-level per-example ratios: (term entering the objective, raw ratio)."""
    inv_gap = lift(1.0 / gaps)
    if cfg.space == "output":
        raw = _row_norms(y1 - y2, cfg.norm) * inv_gap
        clipped = raw.clip_max(cfg.tau) if cfg.tau is not None else raw
        return clipped, raw
    if cfg.space == "feature":
        acc = None
        for f1, f2 in zip(feats1, feats2):
            term = _row_norms(f1 - f2, cfg.norm)
            acc = term if acc is None else acc + term
        raw = acc * (1.0 / len(feats1)) * inv_gap
        return raw, raw
    # sequence: per-step l1 distances on the flattened (B, T*dim) outputs
    step = y1.shape[1] // seq_len
    acc = None
    for t in range(seq_len):
        term = _row_norms(y1.cols(t * step, (t + 1) * step) - y2.cols(t * step, (t + 1) * step), "l1")
        acc = term if acc is None else acc + term
    raw = acc * (1.0 / seq_len) * inv_gap
    return raw, raw


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
    zgap_norm = "l1" if div.space == "sequence" else div.norm
    z2 = _resample_z2(z1, batch.z2, div, rng, zgap_norm)
    gaps = _row_norms_np(z1 - z2, zgap_norm)

    gvars = [Var(p) for p in params_G.flat()]

    def gen(z):
        inp = z if batch.x is None else concat([batch.x, z], axis=1)
        out, _ = mlp_forward_vars(gvars, params_G.spec, inp)
        return out

    y1 = gen(z1)
    y2 = gen(z2)

    logits1, feats1 = discriminator_forward(params_D, y1, batch.x)
    adv = g_adv_loss(logits1, cfg.g_loss_form)

    if cfg.beta > 0:
        rec = reconstruction_loss(y1, batch.y)
    else:
        rec = None

    feats2 = None
    if div.space == "feature":
        _, feats2 = discriminator_forward(params_D, y2, batch.x)

    if div.weight > 0:
        term, raw = _batch_ratios(y1, y2, feats1, feats2, gaps, div, batch.seq_len)
        l_z = term.mean()
        total = adv - div.weight * l_z
        l_z_val = l_z.item()
        ratio_mean = float(raw.data.mean())
    else:
        # baseline objective: ratios computed off-graph, logging only
        term, raw = _batch_ratios(y1, y2, feats1, feats2, gaps, div, batch.seq_len)
        l_z_val = float(term.data.mean())
        ratio_mean = float(raw.data.mean())
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
    return GeneratorLoss(total=total, parts=parts, param_vars=gvars, z2_used=z2)
