"""Synthetic 2D distributions: the 8-mode Gaussian ring, a labeled variant
where each label owns two adjacent modes, and noisy circular trajectories
for the sequence regularizer.

All samplers take an explicit numpy Generator; parallel callers must use
independent streams (spawn), never a shared generator.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MAX_SIZE",
    "RingMixtureSpec",
    "ConditionalRingSpec",
    "TrajectorySpec",
    "LabeledBatch",
    "sample_ring",
    "sample_conditional_ring",
    "sample_trajectories",
    "nearest_modes",
    "one_hot",
    "save_points_csv",
]

# upper bound on each size a TrainConfig sets (z_dim, batch_size, eval_samples,
# ring.n_modes): with all four at the cap, no array built from them in training,
# evaluation or the theory checks holds more than 2**25 float64 entries (256 MiB)
MAX_SIZE = 4096


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
class ConditionalRingSpec:
    """Ring mixture where label k owns the adjacent mode pair {2k, 2k+1}."""

    base: RingMixtureSpec = field(default_factory=RingMixtureSpec)
    n_labels: int = 4
    modes_per_label: int = 2

    def __post_init__(self):
        if self.n_labels * self.modes_per_label != self.base.n_modes:
            raise ValueError(
                f"ConditionalRingSpec: {self.n_labels} labels x {self.modes_per_label} "
                f"modes != {self.base.n_modes} ring modes"
            )

    def label_modes(self, label: int) -> tuple:
        start = label * self.modes_per_label
        return tuple(range(start, start + self.modes_per_label))


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


def sample_conditional_ring(spec: ConditionalRingSpec, n: int, rng) -> LabeledBatch:
    """Uniform labels; each point drawn from one of the label's two modes."""
    if n < 1:
        raise ValueError("sample_conditional_ring: n must be >= 1")
    labels = rng.integers(0, spec.n_labels, size=n)
    offset = rng.integers(0, spec.modes_per_label, size=n)
    modes = labels * spec.modes_per_label + offset
    y = spec.base.centers()[modes] + rng.normal(0.0, spec.base.std, size=(n, 2))
    return LabeledBatch(x=one_hot(labels, spec.n_labels), y=y, labels=labels)


def sample_trajectories(spec: TrajectorySpec, n: int, rng) -> LabeledBatch:
    """Contexts (n, K, 2) in x and futures (n, T, 2) in y on a shared circle."""
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
    contexts = pts[:, : spec.context_len]
    futures = pts[:, spec.context_len :]
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


def save_points_csv(path, y: np.ndarray, labels=None) -> None:
    """Dump sampled points for external plotting (columns: label?, y0, y1)."""
    y = np.asarray(y)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if labels is None:
            writer.writerow(["y0", "y1"])
            for row in y:
                writer.writerow([repr(float(v)) for v in row])
        else:
            writer.writerow(["label", "y0", "y1"])
            for lab, row in zip(labels, y):
                writer.writerow([int(lab)] + [repr(float(v)) for v in row])
