"""Alternating GAN training on the synthetic tasks, with deterministic
seeding, periodic evaluation, JSON checkpoints, and lambda sweeps.

Each step runs one discriminator update (real batch vs fresh fakes)
followed by one generator update on the combined objective with a fresh
(z1, z2) pair per example. A run is single-threaded and fully
deterministic given its seed; sweep entries use independent processes.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import NumericsError, ShapeMismatch, backward
from .data import (
    ConditionalRingSpec,
    RingMixtureSpec,
    TrajectorySpec,
    one_hot,
    sample_conditional_ring,
    sample_ring,
    sample_trajectories,
)
from .losses import ObjectiveConfig, TrainBatch, d_loss, generator_total_loss
from .metrics import EvalReport, frechet_2d, mode_coverage, pairwise_diversity
from .metrics import dist_min as metric_dist_min
from .nets import (
    NetworkParams,
    NetworkSpec,
    ParamLeaves,
    default_discriminator_spec,
    default_generator_spec,
    discriminator_forward,
    generator_forward,
    mlp_init,
)
from .optim import AdamHyper, AdamState, adam_init, adam_step

__all__ = [
    "TASKS",
    "CSV_HEADER",
    "CHECKPOINT_VERSION",
    "TrainConfig",
    "TrainState",
    "MetricRow",
    "TrainResult",
    "SweepEntry",
    "DivergenceError",
    "CheckpointError",
    "task_specs",
    "init_state",
    "train_step",
    "train",
    "sweep",
    "evaluate_generator",
    "save_checkpoint",
    "load_checkpoint",
    "rows_to_csv",
]

TASKS = ("ring", "conditional_ring", "trajectory")
CSV_HEADER = "step,d_loss,g_adv,g_rec,l_z,ratio_mean,modes,hq_frac,diversity,dist_min,frechet"
CHECKPOINT_VERSION = 1

# fixed stream tags so init, training, and evaluation draw independent seeds
_STREAM_G_INIT, _STREAM_D_INIT, _STREAM_TRAIN, _STREAM_EVAL = 11, 13, 17, 19


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, step: int, cause: str, rows=None):
        super().__init__(f"divergence at step {step}: {cause}")
        self.step = step
        self.rows = rows or []


class CheckpointError(ValueError):
    """Checkpoint blob is malformed or from an unknown version."""


@dataclass(frozen=True)
class TrainConfig:
    task: str = "ring"
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    ring: RingMixtureSpec = field(default_factory=RingMixtureSpec)
    traj: TrajectorySpec = field(default_factory=TrajectorySpec)
    z_dim: int = 2
    batch_size: int = 128
    steps: int = 30000
    adam: AdamHyper = field(default_factory=AdamHyper)
    seed: int = 0
    eval_every: int = 1000
    eval_samples: int = 2500
    warm_start_discriminator: str | None = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"TrainConfig: unknown task {self.task!r}, expected one of {TASKS}")
        if self.steps < 1:
            raise ValueError("TrainConfig: steps must be >= 1")
        if self.batch_size < 2:
            raise ValueError("TrainConfig: batch_size must be >= 2")
        if self.z_dim < 1 or self.eval_every < 1:
            raise ValueError("TrainConfig: z_dim, eval_every must be >= 1")
        if self.seed < 0:
            raise ValueError("TrainConfig: seed must be >= 0")
        if self.task == "conditional_ring":
            cond_ring_spec(self)  # raises unless the ring's modes split among the labels


def cond_ring_spec(cfg: TrainConfig) -> ConditionalRingSpec:
    return ConditionalRingSpec(base=cfg.ring)


def task_specs(cfg: TrainConfig) -> tuple[NetworkSpec, NetworkSpec]:
    """Generator/discriminator shapes implied by the task."""
    if cfg.task == "ring":
        cond_dim, out_dim = 0, 2
    elif cfg.task == "conditional_ring":
        cond_dim, out_dim = cond_ring_spec(cfg).n_labels, 2
    else:
        t = cfg.traj
        cond_dim, out_dim = t.context_len * 2, t.horizon * 2
    return (default_generator_spec(cfg.z_dim, cond_dim, out_dim),
            default_discriminator_spec(out_dim, cond_dim))


@dataclass
class TrainState:
    params_G: NetworkParams
    params_D: NetworkParams
    adam_G: AdamState
    adam_D: AdamState
    step: int
    rng: np.random.Generator


@dataclass
class MetricRow:
    step: int
    d_loss: float
    g_adv: float
    g_rec: float
    l_z: float
    ratio_mean: float
    modes: int | None = None
    hq_frac: float | None = None
    diversity: float | None = None
    dist_min: float | None = None
    frechet: float | None = None


@dataclass
class TrainResult:
    state: TrainState
    rows: list
    final_checkpoint: bytes
    best_checkpoint: bytes
    eval_report: EvalReport


def _seed_for(seed: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), stream])


def init_state(cfg: TrainConfig) -> TrainState:
    g_spec, d_spec = task_specs(cfg)
    params_G = mlp_init(g_spec, int(_seed_for(cfg.seed, _STREAM_G_INIT).generate_state(1)[0]))
    params_D = mlp_init(d_spec, int(_seed_for(cfg.seed, _STREAM_D_INIT).generate_state(1)[0]))
    if cfg.warm_start_discriminator:
        with open(cfg.warm_start_discriminator, "rb") as fh:
            warm = load_checkpoint(fh.read())
        if warm.params_D.spec != d_spec:
            raise ShapeMismatch(
                f"warm start: checkpoint discriminator spec {warm.params_D.spec} "
                f"does not match task spec {d_spec}"
            )
        params_D = warm.params_D
    return TrainState(
        params_G=params_G,
        params_D=params_D,
        adam_G=adam_init(params_G.flat()),
        adam_D=adam_init(params_D.flat()),
        step=0,
        rng=np.random.default_rng(_seed_for(cfg.seed, _STREAM_TRAIN)),
    )


# -- batches ----------------------------------------------------------------


def _real_batch(cfg: TrainConfig, rng) -> tuple[np.ndarray | None, np.ndarray, int]:
    """(condition x, target y, seq_len) with sequence tasks flattened."""
    if cfg.task == "ring":
        return None, sample_ring(cfg.ring, cfg.batch_size, rng), 1
    if cfg.task == "conditional_ring":
        b = sample_conditional_ring(cond_ring_spec(cfg), cfg.batch_size, rng)
        return b.x, b.y, 1
    b = sample_trajectories(cfg.traj, cfg.batch_size, rng)
    n = cfg.batch_size
    return b.x.reshape(n, -1), b.y.reshape(n, -1), cfg.traj.horizon


# -- one step ----------------------------------------------------------------


def train_step(state: TrainState, cfg: TrainConfig) -> tuple[TrainState, MetricRow]:
    """One discriminator update then one generator update.

    Losses are logged as observed before the respective parameter updates.
    Raises DivergenceError on any non-finite loss or gradient.
    """
    step = state.step + 1
    # float overflow on the way to a detected divergence is expected; the
    # explicit finiteness checks are the error path, not the warnings
    try:
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            x, y_real, _ = _real_batch(cfg, state.rng)
            z = state.rng.standard_normal((cfg.batch_size, cfg.z_dim))
            fake = generator_forward(state.params_G, z, x).data
            leaves = ParamLeaves(state.params_D)
            logits_real, _ = discriminator_forward(leaves, y_real, x)
            logits_fake, _ = discriminator_forward(leaves, fake, x)
            loss_d = d_loss(logits_real, logits_fake)
            d_loss_val = loss_d.item()
            backward(loss_d)
            new_flat, state.adam_D = adam_step(
                state.params_D.flat(), leaves.grads(), state.adam_D, cfg.adam
            )
            state.params_D = NetworkParams.from_flat(leaves.spec, new_flat)

            x, y_target, seq_len = _real_batch(cfg, state.rng)
            z1 = state.rng.standard_normal((cfg.batch_size, cfg.z_dim))
            z2 = state.rng.standard_normal((cfg.batch_size, cfg.z_dim))
            batch = TrainBatch(z1=z1, z2=z2, x=x, y=y_target, seq_len=seq_len)
            res = generator_total_loss(batch, state.params_G, state.params_D,
                                       cfg.objective, rng=state.rng)
            backward(res.total)
            new_flat, state.adam_G = adam_step(
                state.params_G.flat(), [v.grad for v in res.param_vars], state.adam_G, cfg.adam
            )
            state.params_G = NetworkParams.from_flat(state.params_G.spec, new_flat)
    except NumericsError as exc:
        raise DivergenceError(step, str(exc)) from exc

    state.step = step
    row = MetricRow(
        step=step,
        d_loss=d_loss_val,
        g_adv=res.parts["adv"],
        g_rec=res.parts["rec"],
        l_z=res.parts["l_z"],
        ratio_mean=res.parts["ratio_mean"],
    )
    return state, row


# -- evaluation ---------------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def evaluate_generator(params_G: NetworkParams, cfg: TrainConfig) -> EvalReport:
    """Fixed seeded protocol: generate cfg.eval_samples fakes, score them
    against a same-size seeded real draw. NumericsError if G overflows."""
    rng = np.random.default_rng(_seed_for(cfg.seed, _STREAM_EVAL))
    n = cfg.eval_samples
    if cfg.task == "ring":
        z = rng.standard_normal((n, cfg.z_dim))
        fake = generator_forward(params_G, z).data
        real = sample_ring(cfg.ring, n, rng)
        modes, hq = mode_coverage(fake, cfg.ring)
        div = pairwise_diversity(fake)
        dmin = metric_dist_min(fake, real[0])
        fre = frechet_2d(fake, real)
    elif cfg.task == "conditional_ring":
        spec = cond_ring_spec(cfg)
        labels = rng.integers(0, spec.n_labels, size=n)
        x = one_hot(labels, spec.n_labels)
        z = rng.standard_normal((n, cfg.z_dim))
        fake = generator_forward(params_G, z, x).data
        real = sample_conditional_ring(spec, n, rng)
        modes, hq = mode_coverage(fake, cfg.ring)
        divs, dmins = [], []
        for lab in range(spec.n_labels):
            sel = labels == lab
            real_sel = real.y[real.labels == lab]
            if np.sum(sel) >= 2 and len(real_sel) >= 1:
                divs.append(pairwise_diversity(fake[sel]))
                dmins.append(metric_dist_min(fake[sel], real_sel[0]))
        div = float(np.mean(divs)) if divs else 0.0
        dmin = float(np.mean(dmins)) if dmins else 0.0
        fre = frechet_2d(fake, real.y)
    else:
        t = cfg.traj
        real = sample_trajectories(t, n, rng)
        xs = real.x.reshape(n, -1)
        z = rng.standard_normal((n, cfg.z_dim))
        fake = generator_forward(params_G, z, xs).data  # (n, T*2) futures
        pts = fake.reshape(n, t.horizon, 2)
        # direction coverage: sign of the summed cross products along the path
        cross = (pts[:, :-1, 0] * pts[:, 1:, 1] - pts[:, :-1, 1] * pts[:, 1:, 0]).sum(axis=1)
        modes = int(np.any(cross > 0)) + int(np.any(cross < 0))
        radii = np.linalg.norm(pts, axis=2)
        hq = float(np.mean(np.abs(radii - t.circle_radius) <= 3.0 * max(t.noise_std, 1e-12)))
        div = pairwise_diversity(fake)
        dmin = metric_dist_min(fake, real.y.reshape(n, -1)[0])
        fre = frechet_2d(pts.reshape(-1, 2), real.y.reshape(-1, 2))
    # a non-finite sample makes frechet non-finite; so can finite, huge ones
    if not np.all(np.isfinite([hq, div, dmin, fre])):
        raise NumericsError("evaluate_generator: non-finite metrics; G's output overflows")
    return EvalReport(
        modes_captured=int(modes),
        hq_fraction=float(hq),
        pairwise_diversity=float(div),
        dist_min=float(dmin),
        frechet2=float(fre),
        n_samples=n,
    )


# -- full runs ----------------------------------------------------------------


def train(cfg: TrainConfig) -> TrainResult:
    """Run cfg.steps steps with evaluation every eval_every steps.

    Keeps checkpoints for the final state and the best (modes, hq) eval.
    On divergence (in a step, or an overflowing G in an evaluation) the
    partial metric log rides on the raised error.
    """
    state = init_state(cfg)
    rows: list[MetricRow] = []
    best_key, best_blob = None, None
    report = None
    try:
        for _ in range(cfg.steps):
            state, row = train_step(state, cfg)
            rows.append(row)
            if state.step % cfg.eval_every == 0 or state.step == cfg.steps:
                report = evaluate_generator(state.params_G, cfg)
                row.modes = report.modes_captured
                row.hq_frac = report.hq_fraction
                row.diversity = report.pairwise_diversity
                row.dist_min = report.dist_min
                row.frechet = report.frechet2
                key = (report.modes_captured, report.hq_fraction)
                if best_key is None or key > best_key:
                    best_key = key
                    best_blob = save_checkpoint(state)
    except DivergenceError as exc:
        exc.rows = rows
        raise
    except NumericsError as exc:  # from evaluate_generator; train_step converts its own
        raise DivergenceError(state.step, str(exc), rows) from exc
    final_blob = save_checkpoint(state)
    if best_blob is None:
        best_blob = final_blob
    return TrainResult(
        state=state,
        rows=rows,
        final_checkpoint=final_blob,
        best_checkpoint=best_blob,
        eval_report=report,
    )


@dataclass
class SweepEntry:
    weight: float  # the lambda that produced this entry
    report: EvalReport | None
    error: str | None = None


def with_weight(cfg: TrainConfig, weight: float) -> TrainConfig:
    div = replace(cfg.objective.diversity, weight=weight)
    return replace(cfg, objective=replace(cfg.objective, diversity=div))


def _sweep_one(args) -> SweepEntry:
    cfg, weight = args
    try:
        result = train(with_weight(cfg, weight))
        return SweepEntry(weight=weight, report=result.eval_report)
    except DivergenceError as exc:
        return SweepEntry(weight=weight, report=None, error=str(exc))


def sweep(base_cfg: TrainConfig, lambdas, jobs: int = 1) -> list[SweepEntry]:
    """Independent runs differing only in the regularizer weight (shared
    seed); per-run divergence is recorded and the sweep continues."""
    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("sweep: empty lambda list")
    tasks = [(base_cfg, float(lam)) for lam in lambdas]
    workers = min(jobs, len(tasks))  # the pool starts every worker it may use
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_one, tasks))
    return [_sweep_one(t) for t in tasks]


# -- checkpoints ---------------------------------------------------------------


def _params_payload(params: NetworkParams) -> dict:
    return {
        "spec": params.spec.to_dict(),
        "values": [a.reshape(-1).tolist() for a in params.flat()],
    }


def _arrays(values, spec: NetworkSpec) -> list:
    """Flat value lists back into arrays shaped like spec's [W0, b0, W1, ...]."""
    dims = spec.layer_dims
    shapes = []
    for i in range(len(dims) - 1):
        shapes.append((dims[i], dims[i + 1]))
        shapes.append((dims[i + 1],))
    if len(values) != len(shapes):
        raise CheckpointError(
            f"malformed checkpoint: {len(values)} arrays, spec wants {len(shapes)}"
        )
    # a list that cannot fill its shape raises ValueError: load_checkpoint's
    # "malformed checkpoint"
    return [np.asarray(v, dtype=np.float64).reshape(s) for v, s in zip(values, shapes)]


def _params_restore(payload: dict) -> NetworkParams:
    spec = NetworkSpec.from_dict(payload["spec"])
    return NetworkParams.from_flat(spec, _arrays(payload["values"], spec))


def _adam_payload(state: AdamState) -> dict:
    return {
        "m": [a.reshape(-1).tolist() for a in state.m],
        "v": [a.reshape(-1).tolist() for a in state.v],
        "t": state.t,
    }


def _adam_restore(payload: dict, spec: NetworkSpec) -> AdamState:
    return AdamState(m=_arrays(payload["m"], spec), v=_arrays(payload["v"], spec),
                     t=int(payload["t"]))


def save_checkpoint(state: TrainState) -> bytes:
    """Versioned JSON blob; load_checkpoint(save_checkpoint(s)) is exact."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "spec_G": state.params_G.spec.to_dict(),
        "spec_D": state.params_D.spec.to_dict(),
        "params_G": _params_payload(state.params_G),
        "params_D": _params_payload(state.params_D),
        "adam_G": _adam_payload(state.adam_G),
        "adam_D": _adam_payload(state.adam_D),
        "step": state.step,
        "rng_state": state.rng.bit_generator.state,
    }
    return json.dumps(doc).encode("utf-8")


def load_checkpoint(blob) -> TrainState:
    if isinstance(blob, str):
        blob = blob.encode("utf-8")
    try:
        doc = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    if not isinstance(doc, dict) or "version" not in doc:
        raise CheckpointError("malformed checkpoint: missing version")
    if doc["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {doc['version']} (expected {CHECKPOINT_VERSION})"
        )
    try:
        params_G = _params_restore(doc["params_G"])
        params_D = _params_restore(doc["params_D"])
        rng = np.random.default_rng(0)
        rng.bit_generator.state = doc["rng_state"]
        return TrainState(
            params_G=params_G,
            params_D=params_D,
            adam_G=_adam_restore(doc["adam_G"], params_G.spec),
            adam_D=_adam_restore(doc["adam_D"], params_D.spec),
            step=int(doc["step"]),
            rng=rng,
        )
    except CheckpointError:
        raise
    # missing keys, wrong types, bad shapes or specs, non-finite weights
    # (NonFiniteParams is a ValueError), a foreign rng state, overflowing ints
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc


# -- CSV metric log -------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in rows:
        writer.writerow([_fmt(getattr(r, k)) for k in CSV_HEADER.split(",")])
    return buf.getvalue()
