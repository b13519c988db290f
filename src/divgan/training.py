"""Alternating GAN training on the synthetic tasks, with deterministic
seeding, periodic evaluation, JSON checkpoints, and lambda sweeps.

Each step runs one discriminator update (real batch vs fresh fakes)
followed by one generator update on the combined objective with a fresh
(z1, z2) pair per example. A run is single-threaded and fully
deterministic given its seed; sweep entries use independent processes.
"""

from __future__ import annotations

import base64
import copy
import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import NumericsError, backward
from .data import (
    MAX_SIZE,
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
CHECKPOINT_VERSION = 2

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

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"TrainConfig: unknown task {self.task!r}, expected one of {TASKS}")
        if self.steps < 1:
            raise ValueError("TrainConfig: steps must be >= 1")
        if not 2 <= self.batch_size <= MAX_SIZE:
            raise ValueError(f"TrainConfig: batch_size must be in [2, {MAX_SIZE}]")
        if not 1 <= self.z_dim <= MAX_SIZE:
            raise ValueError(f"TrainConfig: z_dim must be in [1, {MAX_SIZE}]")
        if self.eval_every < 1:
            raise ValueError("TrainConfig: eval_every must be >= 1")
        if not 3 <= self.eval_samples <= MAX_SIZE:  # frechet_2d fits a covariance
            raise ValueError(f"TrainConfig: eval_samples must be in [3, {MAX_SIZE}]")
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
    adam_G: AdamState  # moments: one vector each, in params_G.vector's layout
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
    state: TrainState  # after the last step
    rows: list
    best_state: TrainState  # as it was at the best (modes, hq) eval
    eval_report: EvalReport


def _seed_for(seed: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), stream])


def init_state(cfg: TrainConfig) -> TrainState:
    g_spec, d_spec = task_specs(cfg)
    params_G = mlp_init(g_spec, int(_seed_for(cfg.seed, _STREAM_G_INIT).generate_state(1)[0]))
    params_D = mlp_init(d_spec, int(_seed_for(cfg.seed, _STREAM_D_INIT).generate_state(1)[0]))
    return TrainState(
        params_G=params_G,
        params_D=params_D,
        adam_G=adam_init(params_G.vector),
        adam_D=adam_init(params_D.vector),
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
            if not np.isfinite(d_loss_val):  # D's gradients can stay finite
                raise NumericsError("d_loss: non-finite discriminator loss")
            backward(loss_d)
            vector, state.adam_D = adam_step(
                state.params_D.vector, leaves.grad_vector(), state.adam_D, cfg.adam
            )
            state.params_D = NetworkParams.from_vector(leaves.spec, vector)

            x, y_target, seq_len = _real_batch(cfg, state.rng)
            z1 = state.rng.standard_normal((cfg.batch_size, cfg.z_dim))
            z2 = state.rng.standard_normal((cfg.batch_size, cfg.z_dim))
            batch = TrainBatch(z1=z1, z2=z2, x=x, y=y_target, seq_len=seq_len)
            res = generator_total_loss(batch, state.params_G, state.params_D,
                                       cfg.objective, rng=state.rng)
            backward(res.total)
            vector, state.adam_G = adam_step(
                state.params_G.vector, res.leaves.grad_vector(), state.adam_G, cfg.adam
            )
            state.params_G = NetworkParams.from_vector(state.params_G.spec, vector)
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

    Returns the final state and a snapshot of the state at the best
    (modes, hq) eval; the last step is always evaluated, so there is one.
    Nothing is serialized. On divergence (in a step, or an overflowing G in
    an evaluation) the partial metric log rides on the raised error.
    """
    state = init_state(cfg)
    rows: list[MetricRow] = []
    best_key, best_state = None, None
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
                    # steps replace the params and moments rather than
                    # editing them, so only the rng needs a copy
                    best_key = key
                    best_state = replace(state, rng=copy.deepcopy(state.rng))
    except DivergenceError as exc:
        exc.rows = rows
        raise
    except NumericsError as exc:  # from evaluate_generator; train_step converts its own
        raise DivergenceError(state.step, str(exc), rows) from exc
    return TrainResult(state=state, rows=rows, best_state=best_state, eval_report=report)


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
#
# A version 2 checkpoint stores each vector in a network's parameter layout
# (the parameters and both Adam moments) as one base64 string of its
# little-endian float64 bytes.


def _encode(vector: np.ndarray) -> str:
    return base64.b64encode(vector.astype("<f8", copy=False).tobytes()).decode("ascii")


def _decode(payload, spec: NetworkSpec) -> np.ndarray:
    """A stored vector as a new, native float64 vector in spec's layout. A
    payload of the wrong JSON type or bad base64 (binascii.Error) raises
    TypeError or ValueError, which load_checkpoint reports as malformed."""
    raw = base64.b64decode(payload, validate=True)
    if len(raw) != 8 * spec.n_params:
        raise CheckpointError(f"malformed checkpoint: {len(raw)} bytes, not {8 * spec.n_params}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)  # a writable copy


def _params_payload(params: NetworkParams) -> dict:
    return {"spec": params.spec.to_dict(), "vector": _encode(params.vector)}


def _params_restore(payload: dict) -> NetworkParams:
    spec = NetworkSpec.from_dict(payload["spec"])
    return NetworkParams.from_vector(spec, _decode(payload["vector"], spec))


def _adam_payload(state: AdamState) -> dict:
    return {"m": _encode(state.m), "v": _encode(state.v), "t": state.t}


def _count(value, what: str) -> int:
    """A stored count: a JSON integer >= 0, not a bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise CheckpointError(
            f"malformed checkpoint: {what} must be an integer >= 0, got {json.dumps(value)}"
        )
    return value


def _adam_restore(doc: dict, name: str, spec: NetworkSpec) -> AdamState:
    payload = doc[name]
    m, v = _decode(payload["m"], spec), _decode(payload["v"], spec)
    for moment, a in (("m", m), ("v", v)):
        if not np.isfinite(a).all():
            raise CheckpointError(f"malformed checkpoint: {name}.{moment} is not finite")
    if (v < 0).any():  # a running mean of squared gradients
        raise CheckpointError(f"malformed checkpoint: {name}.v is negative")
    return AdamState(m=m, v=v, t=_count(payload["t"], f"{name}.t"))


def _check_fit(spec_G: NetworkSpec, spec_D: NetworkSpec) -> None:
    """D reads a condition of cond >= 0 values beside G's output and writes
    one logit; G reads the same condition beside a latent of >= 1 values."""
    cond = spec_D.input_dim - spec_G.output_dim
    if spec_D.output_dim != 1 or cond < 0 or spec_G.input_dim - cond < 1:
        raise CheckpointError(
            f"malformed checkpoint: params_D (input_dim {spec_D.input_dim}, output_dim "
            f"{spec_D.output_dim}) does not fit params_G (input_dim {spec_G.input_dim}, "
            f"output_dim {spec_G.output_dim})"
        )


def save_checkpoint(state: TrainState) -> bytes:
    """Versioned JSON blob; load_checkpoint(save_checkpoint(s)) is exact."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "params_G": _params_payload(state.params_G),
        "params_D": _params_payload(state.params_D),
        "adam_G": _adam_payload(state.adam_G),
        "adam_D": _adam_payload(state.adam_D),
        "step": state.step,
        "rng_state": state.rng.bit_generator.state,
    }
    return json.dumps(doc).encode("utf-8")


def load_checkpoint(blob) -> TrainState:
    """A version 2 blob back as the state it was saved from."""
    if isinstance(blob, str):
        blob = blob.encode("utf-8")
    try:
        doc = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    if not isinstance(doc, dict) or "version" not in doc:
        raise CheckpointError("malformed checkpoint: missing version")
    if doc["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {json.dumps(doc['version'])} "
                              f"(expected {CHECKPOINT_VERSION})")
    try:
        params_G = _params_restore(doc["params_G"])
        params_D = _params_restore(doc["params_D"])
        _check_fit(params_G.spec, params_D.spec)
        rng = np.random.default_rng(0)
        rng.bit_generator.state = doc["rng_state"]
        return TrainState(
            params_G=params_G,
            params_D=params_D,
            adam_G=_adam_restore(doc, "adam_G", params_G.spec),
            adam_D=_adam_restore(doc, "adam_D", params_D.spec),
            step=_count(doc["step"], "step"),
            rng=rng,
        )
    except CheckpointError:
        raise
    # missing keys, wrong types, bad base64, shapes or specs, non-finite
    # weights (NonFiniteParams is a ValueError), a foreign rng state,
    # overflowing ints in a spec
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
