"""Synthetic 2D distributions: the 8-mode Gaussian ring, a labeled variant
where each label owns two adjacent modes, and noisy circular trajectories
for the sequence regularizer.

All samplers take an explicit numpy Generator; parallel callers must use
independent streams (spawn), never a shared generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_SIZE",
    "N_LABELS",
    "MODES_PER_LABEL",
    "RingMixtureSpec",
    "TrajectorySpec",
    "LabeledBatch",
    "sample_ring",
    "sample_conditional_ring",
    "label_of",
    "check_labels",
    "sample_trajectories",
    "nearest_modes",
    "one_hot",
]

# upper bound on each size a TrainConfig sets (z_dim, batch_size, ring.n_modes):
# with all three at the cap, no array built from them in training, evaluation
# (2500 samples) or the theory checks holds more than 2**25 float64 entries
# (256 MiB). The CLI's count flags that size latent arrays with z_dim,
# `verify --probes` and `interp --steps`, are refused past 2**25 // z_dim
# (cli.MAX_COUNT), so attraction's [z1; probes] holds at most one row more.
MAX_SIZE = 4096

# conditional_ring's labels: label k owns the adjacent ring modes 2k and 2k+1,
# so its ring has N_LABELS * MODES_PER_LABEL modes (check_labels)
N_LABELS = 4
MODES_PER_LABEL = 2


@dataclass(frozen=True)
class RingMixtureSpec:
    """Equal-weight mixture of 2D Gaussians centered on a circle."""

    n_modes: int = 8
    radius: float = 2.0
    std: float = 0.02

    def __post_init__(self):
        if not 1 <= self.n_modes <= MAX_SIZE:
            raise ValueError(f"RingMixtureSpec: n_modes must be in [1, {MAX_SIZE}]")
        # chained comparisons: NaN and +-inf fail them
        if not (0 < self.radius < math.inf and 0 < self.std < math.inf):
            raise ValueError("RingMixtureSpec: radius and std must be finite and positive")

    def centers(self) -> np.ndarray:
        angles = 2.0 * np.pi * np.arange(self.n_modes) / self.n_modes
        return self.radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


@dataclass(frozen=True)
class TrajectorySpec:
    """2D points marching around a circle, clockwise or counterclockwise
    with equal probability; the first K points condition the next T."""

    context_len: int = 2
    horizon: int = 10
    circle_radius: float = 1.0
    angle_step: float = 0.35
    noise_std: float = 0.01

    def __post_init__(self):
        if self.context_len < 1 or self.horizon < 1:
            raise ValueError("TrajectorySpec: context_len and horizon must be >= 1")
        if not (0 < self.circle_radius < math.inf and 0 < self.angle_step < math.inf
                and 0 <= self.noise_std < math.inf):
            raise ValueError("TrajectorySpec: radius/step must be finite and positive, "
                             "noise finite and >= 0")


@dataclass
class LabeledBatch:
    """Aligned conditions and targets. x is one-hot labels, flattened
    contexts, or None for the unconditional case."""

    x: np.ndarray | None
    y: np.ndarray
    labels: np.ndarray | None = None  # integer labels where applicable


def sample_ring(spec: RingMixtureSpec, n: int, rng) -> np.ndarray:
    """n points: a uniformly chosen mode center plus isotropic noise."""
    if n < 1:
        raise ValueError("sample_ring: n must be >= 1")
    idx = rng.integers(0, spec.n_modes, size=n)
    return spec.centers()[idx] + rng.normal(0.0, spec.std, size=(n, 2))


def sample_conditional_ring(ring: RingMixtureSpec, n: int, rng) -> LabeledBatch:
    """Uniform labels; each point drawn from one of its label's MODES_PER_LABEL modes."""
    check_labels(ring, "sample_conditional_ring")
    if n < 1:
        raise ValueError("sample_conditional_ring: n must be >= 1")
    labels = rng.integers(0, N_LABELS, size=n)
    offset = rng.integers(0, MODES_PER_LABEL, size=n)
    modes = labels * MODES_PER_LABEL + offset
    y = ring.centers()[modes] + rng.normal(0.0, ring.std, size=(n, 2))
    return LabeledBatch(x=one_hot(labels, N_LABELS), y=y, labels=labels)


def check_labels(ring: RingMixtureSpec, where: str) -> None:
    """ValueError, prefixed by where, unless the labels own exactly ring's modes."""
    if ring.n_modes != N_LABELS * MODES_PER_LABEL:
        raise ValueError(f"{where}: {N_LABELS} labels x {MODES_PER_LABEL} modes "
                         f"!= {ring.n_modes} ring modes")


def label_of(modes):
    """The conditional_ring label that owns each ring mode index."""
    return modes // MODES_PER_LABEL


def sample_trajectories(spec: TrajectorySpec, n: int, rng) -> LabeledBatch:
    """Contexts (n, 2K) in x and futures (n, 2T) in y on a shared circle:
    each row holds its points' (x, y) coordinates in step order."""
    if n < 1:
        raise ValueError("sample_trajectories: n must be >= 1")
    total = spec.context_len + spec.horizon
    start = rng.uniform(0.0, 2.0 * np.pi, size=n)
    direction = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    steps = np.arange(total)
    angles = start[:, None] + direction[:, None] * spec.angle_step * steps[None, :]
    pts = spec.circle_radius * np.stack([np.cos(angles), np.sin(angles)], axis=2)
    if spec.noise_std > 0:
        pts = pts + rng.normal(0.0, spec.noise_std, size=pts.shape)
    contexts = pts[:, : spec.context_len].reshape(n, -1)
    futures = pts[:, spec.context_len :].reshape(n, -1)
    return LabeledBatch(x=contexts, y=futures, labels=(direction > 0).astype(np.int64))


def nearest_modes(points: np.ndarray, spec: RingMixtureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Index and l2 distance of the closest mode center for each of (n, 2)
    points; ties go to the smallest index."""
    points = np.asarray(points, dtype=np.float64)
    d = np.linalg.norm(points[:, None, :] - spec.centers()[None, :, :], axis=2)
    idx = np.argmin(d, axis=1)  # argmin returns the first minimum
    return idx, d[np.arange(len(points)), idx]


def one_hot(labels: np.ndarray, n_labels: int) -> np.ndarray:
    out = np.zeros((len(labels), n_labels))
    out[np.arange(len(labels)), labels] = 1.0
    return out

