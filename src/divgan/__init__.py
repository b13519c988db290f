"""divgan: diversity-regularized GANs on 2D synthetic benchmarks.

A self-contained numpy library: a small reverse-mode autodiff engine, MLP
generator/discriminator pairs, adversarial + diversity objectives, ring and
trajectory data, evaluation metrics, a deterministic trainer, and numerical
checks of the gradient-bound and mode-attraction analysis.

On glibc, importing the package fixes the allocator's mmap and trim
thresholds so freed temporaries stay in the process (see `_allocator`).
"""

from . import _allocator

_allocator.keep_freed_memory()

from .autodiff import (
    Var,
    ShapeMismatch,
    NumericsError,
    evaluate_with_gradients,
    finite_diff_gradient,
    jacobian,
)
from .config import TrainConfig
from .data import RingMixtureSpec, TrajectorySpec
from .losses import DiversityConfig, ObjectiveConfig
from .metrics import EvalReport
from .nets import NetworkParams, NetworkSpec
from .optim import AdamHyper, AdamState
from .training import TrainState, train, train_step

__version__ = "0.1.0"

__all__ = [
    "Var",
    "ShapeMismatch",
    "NumericsError",
    "evaluate_with_gradients",
    "finite_diff_gradient",
    "jacobian",
    "RingMixtureSpec",
    "TrajectorySpec",
    "DiversityConfig",
    "ObjectiveConfig",
    "EvalReport",
    "NetworkSpec",
    "NetworkParams",
    "AdamHyper",
    "AdamState",
    "TrainConfig",
    "TrainState",
    "train",
    "train_step",
    "__version__",
]
