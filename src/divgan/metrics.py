"""Evaluation: mode coverage on the ring, pairwise sample diversity,
closest-sample distance, a closed-form 2D Frechet distance between fitted
Gaussians (raw-coordinate stand-in for feature-space FID), and latent
interpolation. All reported diversity/distance numbers are raw-coordinate
surrogates, not perceptual metrics.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .autodiff import NumericsError
from .data import MODES_PER_LABEL, N_LABELS, RingMixtureSpec, check_labels, label_of, nearest_modes
from .nets import NetworkParams, generate

__all__ = [
    "EvalReport",
    "EVAL_COLUMNS",
    "InterpolationResult",
    "HQ_STD_MULTIPLE",
    "mode_coverage",
    "pairwise_diversity",
    "dist_min",
    "frechet_2d",
    "latent_interpolation",
    "conditional_coverage",
]

# a sample is high quality iff within this many stds of its nearest mode
HQ_STD_MULTIPLE = 3.0


@dataclass
class EvalReport:
    modes_captured: int
    hq_fraction: float
    pairwise_diversity: float
    dist_min: float
    frechet2: float
    n_samples: int
    # per-label coverage (`conditional_coverage`), None off conditional_ring:
    # labels with a high-quality sample in each of their modes, and the
    # share of high-quality samples that land in their own label's modes,
    # None too when no sample is high quality (no evidence either way)
    labels_covered: int | None = None
    in_label_frac: float | None = None

    def __post_init__(self):
        vals = [self.hq_fraction, self.pairwise_diversity, self.dist_min, self.frechet2]
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"EvalReport: non-finite fields {vals}")
        for name in ("hq_fraction", "in_label_frac"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"EvalReport: {name} {value} outside [0, 1]")

    def to_json(self) -> str:
        """The fields as a JSON object; fields that are None are left out."""
        return json.dumps({k: v for k, v in asdict(self).items() if v is not None}, indent=2)

    @staticmethod
    def from_json(text: str) -> "EvalReport":
        """A report from `to_json`'s text, with or without the per-label fields."""
        return EvalReport(**json.loads(text))


# an evaluation's columns in metrics.csv and summary.csv; a row without a
# report, or a field that is None, is an empty cell
EVAL_COLUMNS = tuple(f.name for f in fields(EvalReport))


def mode_coverage(samples, spec: RingMixtureSpec, *, nearest=None) -> tuple[int, float]:
    """(modes with at least one high-quality sample, high-quality fraction).

    High quality means l2 distance to the nearest mode center at most
    3 * spec.std. `nearest` is `data.nearest_modes(samples, spec)` when the
    caller already has it.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or len(samples) == 0:
        raise ValueError(f"mode_coverage: expected nonempty (n, 2) samples, got {samples.shape}")
    idx, dist = nearest_modes(samples, spec) if nearest is None else nearest
    hq = dist <= HQ_STD_MULTIPLE * spec.std
    captured = np.unique(idx[hq])
    return int(len(captured)), float(np.mean(hq))


def _as_sample_matrix(samples) -> np.ndarray:
    """Stack samples (or whole sample sets) and flatten each to a vector."""
    return np.asarray(samples, dtype=np.float64).reshape(len(samples), -1)


def pairwise_diversity(samples) -> float:
    """Mean squared distance (MSE per pair) over all unordered pairs.

    Uses sum_{i<j} ||x_i - x_j||^2 = n * sum_i ||x_i - mean||^2, which is
    O(n d) and, being centered, stays accurate for nearly collapsed samples.
    """
    flat = _as_sample_matrix(samples)
    n, d = flat.shape
    if n < 2:
        raise ValueError("pairwise_diversity: need at least 2 samples")
    centered = flat - flat.mean(axis=0)
    return float(2.0 * np.sum(centered * centered) / ((n - 1) * d))


def dist_min(samples, ground_truth) -> float:
    """Smallest MSE between any sample and the ground-truth target."""
    flat = _as_sample_matrix(samples)
    if len(flat) == 0:
        raise ValueError("dist_min: empty sample set")
    gt = np.asarray(ground_truth, dtype=np.float64).reshape(-1)
    if flat.shape[1] != gt.size:
        raise ValueError(f"dist_min: sample dim {flat.shape[1]} != target dim {gt.size}")
    return float(np.min(np.mean((flat - gt[None, :]) ** 2, axis=1)))


def frechet_2d(set_a, set_b) -> float:
    """Frechet distance between Gaussians fitted to two 2D point sets:

        ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^{1/2})

    using the closed-form trace of a 2x2 matrix square root. Unbiased
    covariance (n-1). A negative residue is rounding and is clamped to 0 if
    it is at most 1e-9 times max(1, ||mu_a - mu_b||^2 + tr S_a + tr S_b),
    the size of the terms it is the difference of; a larger one raises
    NumericsError.
    """
    a = np.asarray(set_a, dtype=np.float64)
    b = np.asarray(set_b, dtype=np.float64)
    for name, s in (("set_a", a), ("set_b", b)):
        if s.ndim != 2 or s.shape[1] != 2 or len(s) < 3:
            raise ValueError(f"frechet_2d: {name} must be (n >= 3, 2), got {s.shape}")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov_a = np.cov(a, rowvar=False, ddof=1)
    cov_b = np.cov(b, rowvar=False, ddof=1)
    # tr((A B)^{1/2}) for 2x2 with nonnegative eigenvalues:
    # sqrt(tr(AB) + 2 sqrt(det A det B))
    det_prod = max(np.linalg.det(cov_a) * np.linalg.det(cov_b), 0.0)
    tr_ab = float(np.trace(cov_a @ cov_b))
    tr_sqrt = np.sqrt(max(tr_ab + 2.0 * np.sqrt(det_prod), 0.0))
    terms = np.sum((mu_a - mu_b) ** 2) + np.trace(cov_a) + np.trace(cov_b)
    value = float(terms - 2.0 * tr_sqrt)
    if value < -1e-9 * max(1.0, float(terms)):
        raise NumericsError(f"frechet_2d: negative distance {value} beyond tolerance")
    return max(value, 0.0)


@dataclass
class InterpolationResult:
    latents: np.ndarray  # (steps, z_dim)
    outputs: np.ndarray  # (steps, out_dim)
    slerp_fallback: bool = False  # degenerate angle forced a linear path


def _slerp_path(z_a: np.ndarray, z_b: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, bool]:
    na, nb = np.linalg.norm(z_a), np.linalg.norm(z_b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("latent_interpolation: slerp needs nonzero endpoints")
    cos = float(np.clip(np.dot(z_a, z_b) / (na * nb), -1.0, 1.0))
    omega = np.arccos(cos)
    if np.sin(omega) < 1e-6:  # parallel or antipodal
        return _linear_path(z_a, z_b, ts), True
    s = np.sin(omega)
    path = (np.sin((1.0 - ts)[:, None] * omega) * z_a[None, :]
            + np.sin(ts[:, None] * omega) * z_b[None, :]) / s
    return path, False


def _linear_path(z_a: np.ndarray, z_b: np.ndarray, ts: np.ndarray) -> np.ndarray:
    return (1.0 - ts)[:, None] * z_a[None, :] + ts[:, None] * z_b[None, :]


@np.errstate(over="ignore", invalid="ignore")
def latent_interpolation(params_G: NetworkParams, z_a, z_b, steps: int,
                         mode: str = "slerp", x=None) -> InterpolationResult:
    """Generator outputs along a latent path from z_a to z_b.

    Endpoints are the exact inputs, so the first and last outputs reproduce
    G(x, z_a) and G(x, z_b). Degenerate slerp (parallel/antipodal endpoints)
    falls back to the linear path and sets the flag. NumericsError if G's
    output is not finite.
    """
    if steps < 2:
        raise ValueError("latent_interpolation: steps must be >= 2")
    if mode not in ("linear", "slerp"):
        raise ValueError(f"latent_interpolation: unknown mode {mode!r}")
    z_a = np.asarray(z_a, dtype=np.float64).reshape(-1)
    z_b = np.asarray(z_b, dtype=np.float64).reshape(-1)
    ts = np.linspace(0.0, 1.0, steps)
    fallback = False
    if mode == "slerp":
        latents, fallback = _slerp_path(z_a, z_b, ts)
    else:
        latents = _linear_path(z_a, z_b, ts)
    latents[0] = z_a
    latents[-1] = z_b
    # blocked passes of stacked 1-row slices: each runs the product of a
    # single-sample generator call, so the endpoints keep its bits
    cond = None if x is None else np.ravel(x)
    outputs = generate(params_G, latents[:, None, :], cond)[:, 0]
    if not np.all(np.isfinite(outputs)):
        raise NumericsError("latent_interpolation: non-finite generator output")
    return InterpolationResult(latents=latents, outputs=outputs, slerp_fallback=fallback)


def conditional_coverage(y: np.ndarray, labels: np.ndarray, ring: RingMixtureSpec,
                         *, nearest=None) -> tuple[list[bool], float | None]:
    """Per-label check that both owned modes got a high-quality sample, plus
    the fraction of high-quality samples landing in their label's modes:
    None when no sample is high quality, which is no evidence, where 0.0
    would read as every sample misplaced. `ring` is conditional_ring's ring
    (`data.label_of` gives each mode's label), and `nearest` is
    `data.nearest_modes(y, ring)` when the caller already has it."""
    check_labels(ring, "conditional_coverage")
    if nearest is None:
        nearest = nearest_modes(np.asarray(y, dtype=np.float64), ring)
    idx, dist = nearest
    hq = dist <= HQ_STD_MULTIPLE * ring.std
    in_owned = label_of(idx) == labels
    # each mode has one owner, so a label's high-quality in-label samples
    # cover it iff they reach MODES_PER_LABEL distinct modes
    reached = np.bincount(label_of(np.unique(idx[hq & in_owned])), minlength=N_LABELS)
    n_hq = int(np.sum(hq))
    frac = float(np.sum(hq & in_owned) / n_hq) if n_hq else None
    return (reached == MODES_PER_LABEL).tolist(), frac
