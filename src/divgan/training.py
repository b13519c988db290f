"""Alternating GAN training on the synthetic tasks, with deterministic
seeding, periodic evaluation, checkpoints, and sweeps over configs.

Each step draws one real batch and one (z1, z2) pair per example, builds
the two fakes G(x, z1) and G(x, z2) once, and runs one discriminator update
(the real batch vs G(x, z1)) followed by one generator update on the
combined objective over the same fakes. A run is fully deterministic given
its seed; a parallel sweep runs each entry in a worker process of one BLAS
thread.
"""

from __future__ import annotations

import csv
import ctypes
import io
import json
import os
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import NumericsError, backward
from .config import TrainConfig, parse_run_config, to_document, unique_keys
from .data import (
    N_LABELS,
    nearest_modes,
    one_hot,
    sample_conditional_ring,
    sample_ring,
    sample_trajectories,
)
from .losses import (
    FakePair,
    ObjectiveConfig,
    d_loss,
    generate_fakes,
    generator_total_loss,
)
from .metrics import (
    EVAL_COLUMNS,
    HQ_STD_MULTIPLE,
    EvalReport,
    conditional_coverage,
    frechet_2d,
    mode_coverage,
    pairwise_diversity,
)
from .metrics import dist_min as metric_dist_min
from .nets import (
    NetworkParams,
    NetworkSpec,
    ParamLeaves,
    discriminator_forward,
    generate,
    mlp_init,
)
from .optim import AdamState, adam_init, adam_step

__all__ = [
    "CSV_HEADER",
    "CHECKPOINT_VERSION",
    "CHECKPOINT_START",
    "EVAL_SAMPLES",
    "TrainState",
    "MetricRow",
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

CHECKPOINT_VERSION = 5
CHECKPOINT_START = b'{"version": '  # the first bytes of every save_checkpoint blob
EVAL_SAMPLES = 2500  # fakes per evaluation, and real points they are scored against

# fixed stream tags so init, training, and evaluation draw independent seeds
_STREAM_G_INIT, _STREAM_D_INIT, _STREAM_TRAIN, _STREAM_EVAL = 11, 13, 17, 19


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, step: int, cause: str):
        super().__init__(f"divergence at step {step}: {cause}")
        self.step = step


class CheckpointError(ValueError):
    """Checkpoint blob is malformed or from an unknown version."""


def task_specs(cfg: TrainConfig) -> tuple[NetworkSpec, NetworkSpec]:
    """The generator's and discriminator's shapes for cfg's task: two hidden
    layers of 128 each, tanh in G and relu in D, and D's single logit."""
    if cfg.task == "ring":
        cond_dim, out_dim = 0, 2
    elif cfg.task == "conditional_ring":
        cond_dim, out_dim = N_LABELS, 2
    else:
        t = cfg.traj
        cond_dim, out_dim = t.context_len * 2, t.horizon * 2
    return (NetworkSpec(cond_dim + cfg.z_dim, (128, 128), out_dim, "tanh"),
            NetworkSpec(cond_dim + out_dim, (128, 128), 1, "relu"))


@dataclass
class TrainState:
    config: TrainConfig  # the run's; task_specs(config) gives both networks' specs
    params_G: NetworkParams
    params_D: NetworkParams
    adam_G: AdamState  # moments: one vector each, in params_G.vector's layout
    adam_D: AdamState
    step: int  # updates made so far; the run's one count, which Adam's bias correction reads
    rng: np.random.Generator


@dataclass
class MetricRow:
    step: int
    d_loss: float
    g_adv: float
    g_rec: float
    l_z: float
    ratio_mean: float
    eval: EvalReport | None = None  # the evaluation made after this step, if one was


_LOG_COLUMNS = tuple(f.name for f in fields(MetricRow) if f.name != "eval")
CSV_HEADER = ",".join(_LOG_COLUMNS + EVAL_COLUMNS)  # metrics.csv's columns


def _seed_for(seed: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), stream])


def init_state(cfg: TrainConfig) -> TrainState:
    g_spec, d_spec = task_specs(cfg)
    params_G = mlp_init(g_spec, int(_seed_for(cfg.seed, _STREAM_G_INIT).generate_state(1)[0]))
    params_D = mlp_init(d_spec, int(_seed_for(cfg.seed, _STREAM_D_INIT).generate_state(1)[0]))
    return TrainState(
        config=cfg,
        params_G=params_G,
        params_D=params_D,
        adam_G=adam_init(params_G.vector),
        adam_D=adam_init(params_D.vector),
        step=0,
        rng=np.random.default_rng(_seed_for(cfg.seed, _STREAM_TRAIN)),
    )


# -- batches ----------------------------------------------------------------


def _real_batch(cfg: TrainConfig, rng) -> tuple[np.ndarray | None, np.ndarray]:
    """(condition x, target y) of one real batch."""
    if cfg.task == "ring":
        return None, sample_ring(cfg.ring, cfg.batch_size, rng)
    if cfg.task == "conditional_ring":
        b = sample_conditional_ring(cfg.ring, cfg.batch_size, rng)
    else:
        b = sample_trajectories(cfg.traj, cfg.batch_size, rng)
    return b.x, b.y


# -- one step ----------------------------------------------------------------
#
# A step builds its one pair of fakes on G's parameter leaves before D's
# update and keeps them for G's: D reads G(x, z1)'s values, G's objective its
# graph, and reconstruction pairs it with the same real y (pix2pix's
# pairing). Each update's graph is differentiated inside a helper that hands
# back only the gradient vector and the logged values, so D's graph is freed
# before D's Adam update; the fakes, and with them G's graph, are dropped
# before G's.


def _fakes(state: TrainState) -> FakePair:
    """The step's real batch and its two fakes, in the step's draw order."""
    cfg = state.config
    x, y = _real_batch(cfg, state.rng)
    z1 = state.rng.standard_normal((cfg.batch_size, cfg.z_dim))
    z2 = state.rng.standard_normal((cfg.batch_size, cfg.z_dim))
    return generate_fakes(state.params_G, cfg.objective, z1, z2, x, y, rng=state.rng)


def _d_gradient(params_D: NetworkParams, fakes: FakePair) -> tuple[np.ndarray, float]:
    """D's gradient vector and loss: the real batch against G(x, z1)'s
    values, which enter D's graph as constants."""
    leaves = ParamLeaves(params_D)
    logits_real, _ = discriminator_forward(leaves, fakes.y, fakes.x)
    logits_fake, _ = discriminator_forward(leaves, fakes.y1.data, fakes.x)
    loss_d = d_loss(logits_real, logits_fake)
    d_loss_val = loss_d.item()
    if not np.isfinite(d_loss_val):  # D's gradients can stay finite
        raise NumericsError("d_loss: non-finite discriminator loss")
    backward(loss_d)
    return leaves.grad_vector(), d_loss_val


def _g_gradient(fakes: FakePair, params_D: NetworkParams,
                objective: ObjectiveConfig) -> tuple[np.ndarray, dict]:
    """G's gradient vector and the logged parts of its objective."""
    res = generator_total_loss(fakes, params_D, objective)
    backward(res.total)
    return fakes.leaves.grad_vector(), res.parts


def train_step(state: TrainState, cfg: TrainConfig) -> tuple[TrainState, MetricRow]:
    """One discriminator update then one generator update, on one batch and
    one pair of fakes.

    The state steps with the config it was made from: cfg must equal
    state.config (ValueError otherwise), and is kept only for callers that
    pass it. d_loss is logged before D's update, the generator's parts with
    the updated D. Raises DivergenceError on any non-finite loss or gradient.
    """
    if cfg is not state.config and cfg != state.config:
        raise ValueError("train_step: cfg differs from state.config; "
                         "a state steps with the config it was made from")
    adam = state.config.adam
    step = state.step + 1
    # float overflow on the way to a detected divergence is expected; the
    # explicit finiteness checks are the error path, not the warnings
    try:
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            fakes = _fakes(state)
            grad, d_loss_val = _d_gradient(state.params_D, fakes)
            vector, state.adam_D = adam_step(state.params_D.vector, grad, state.adam_D, step, adam)
            state.params_D = NetworkParams(state.params_D.spec, vector)
            del grad  # nothing in the G step reads D's gradient

            grad, parts = _g_gradient(fakes, state.params_D, state.config.objective)
            del fakes  # G's graph: its leaves and both fakes
            vector, state.adam_G = adam_step(state.params_G.vector, grad, state.adam_G, step, adam)
            state.params_G = NetworkParams(state.params_G.spec, vector)
    except NumericsError as exc:
        raise DivergenceError(step, str(exc)) from exc

    state.step = step
    return state, MetricRow(step=step, d_loss=d_loss_val, **parts)


# -- evaluation ---------------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def evaluate_generator(params_G: NetworkParams, cfg: TrainConfig) -> EvalReport:
    """Fixed seeded protocol: generate EVAL_SAMPLES fakes, score them
    against a same-size seeded real draw; on conditional_ring, also per
    label. NumericsError if G overflows."""
    rng = np.random.default_rng(_seed_for(cfg.seed, _STREAM_EVAL))
    n = EVAL_SAMPLES
    labels_covered = in_label_frac = None
    if cfg.task == "ring":
        z = rng.standard_normal((n, cfg.z_dim))
        fake = generate(params_G, z)
        real = sample_ring(cfg.ring, n, rng)
        modes, hq = mode_coverage(fake, cfg.ring)
        div = pairwise_diversity(fake)
        dmin = metric_dist_min(fake, real[0])
        fre = frechet_2d(fake, real)
    elif cfg.task == "conditional_ring":
        labels = rng.integers(0, N_LABELS, size=n)
        x = one_hot(labels, N_LABELS)
        z = rng.standard_normal((n, cfg.z_dim))
        fake = generate(params_G, z, x)
        real = sample_conditional_ring(cfg.ring, n, rng)
        nearest = nearest_modes(fake, cfg.ring)
        modes, hq = mode_coverage(fake, cfg.ring, nearest=nearest)
        per_label, in_label_frac = conditional_coverage(fake, labels, cfg.ring, nearest=nearest)
        labels_covered = sum(per_label)
        # each label has >= 2 of the n fakes and >= 1 of the n real points
        # but for a chance near 1e-300, where the metrics raise ValueError
        div = float(np.mean([pairwise_diversity(fake[labels == lab])
                             for lab in range(N_LABELS)]))
        dmin = float(np.mean([metric_dist_min(fake[labels == lab], real.y[real.labels == lab][0])
                              for lab in range(N_LABELS)]))
        fre = frechet_2d(fake, real.y)
    else:
        t = cfg.traj
        real = sample_trajectories(t, n, rng)
        z = rng.standard_normal((n, cfg.z_dim))
        fake = generate(params_G, z, real.x)  # (n, 2T) futures
        pts = fake.reshape(n, t.horizon, 2)
        # direction coverage: sign of the summed cross products along the path
        cross = (pts[:, :-1, 0] * pts[:, 1:, 1] - pts[:, :-1, 1] * pts[:, 1:, 0]).sum(axis=1)
        modes = int(np.any(cross > 0)) + int(np.any(cross < 0))
        radii = np.linalg.norm(pts, axis=2)
        band = HQ_STD_MULTIPLE * max(t.noise_std, 1e-12)
        hq = float(np.mean(np.abs(radii - t.circle_radius) <= band))
        div = pairwise_diversity(fake)
        dmin = metric_dist_min(fake, real.y[0])
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
        labels_covered=labels_covered,
        in_label_frac=in_label_frac,
    )


# -- full runs ----------------------------------------------------------------


def train(state: TrainState) -> Iterator[MetricRow]:
    """Step state in place until state.step == state.config.steps, yielding
    each step's MetricRow; an evaluated step's row (every eval_every steps,
    and the last) carries its EvalReport in `eval`. No row is kept, and a
    checkpoint's state resumes its run row for row. A non-finite step raises
    DivergenceError; so does an overflowing evaluation, after its row."""
    cfg = state.config
    while state.step < cfg.steps:
        _, row = train_step(state, cfg)
        if state.step % cfg.eval_every == 0 or state.step == cfg.steps:
            try:
                row.eval = evaluate_generator(state.params_G, cfg)
            except NumericsError as exc:  # train_step converts its own
                yield row
                raise DivergenceError(state.step, str(exc)) from exc
        yield row


@dataclass
class SweepEntry:
    config: TrainConfig  # the config that ran
    report: EvalReport | None
    error: str | None = None


def _sweep_one(task) -> SweepEntry:
    cfg, _ = task  # the position only names the run, in perfbench's traces
    try:
        for row in train(init_state(cfg)):
            pass
    except DivergenceError as exc:
        return SweepEntry(config=cfg, report=None, error=str(exc))
    return SweepEntry(config=cfg, report=row.eval)  # the last step is evaluated


def _openblas():
    """numpy's bundled OpenBLAS by ctypes: the openblas library mapped into
    this process, else one in the wheel's `numpy.libs`, next to numpy; None
    where neither loads."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh
                            if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        paths = []
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    if os.path.isdir(libs):
        paths += sorted(os.path.join(libs, f) for f in os.listdir(libs) if "openblas" in f)
    for path in paths:
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


# OpenBLAS's thread-count setter under each name a numpy build may export:
# the scipy-openblas wheels', then a system OpenBLAS's 64-bit-integer and
# plain builds'
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                 "openblas_set_num_threads")


def _one_blas_thread() -> None:
    """A sweep worker's initializer: one OpenBLAS thread, since the pool is
    the parallelism. A forked worker would keep the parent's count, by
    default one per core, so two workers on two cores would run four
    threads. Does nothing where the library has no setter."""
    lib = _openblas()
    setter = next((f for f in (getattr(lib, name, None) for name in _BLAS_SETTERS)
                   if f is not None), None)
    if setter is not None:
        setter.argtypes = (ctypes.c_int,)
        setter(1)


def sweep(cfgs, jobs: int = 1) -> list[SweepEntry]:
    """One independent run per config, entries in input order; a run's
    divergence is recorded and the sweep continues. Runs in a pool of up to
    `jobs` worker processes, each with one BLAS thread (`_one_blas_thread`);
    with one job or one config they run here, at this process's setting."""
    tasks = [(cfg, i) for i, cfg in enumerate(cfgs)]
    if not tasks:
        raise ValueError("sweep: empty config list")
    workers = min(jobs, len(tasks))  # the pool starts every worker it may use
    if workers > 1:
        # imported here: concurrent.futures and multiprocessing cost every
        # `import divgan` 20-30 ms, and only a parallel sweep needs them
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            return list(pool.map(_sweep_one, tasks))
    return [_sweep_one(t) for t in tasks]


# -- checkpoints ---------------------------------------------------------------
#
# A version 5 checkpoint is one header line, then the run's vectors. The
# header is json.dumps of the run's config document, its one step count and
# its rng state, and no other key, then a newline; json.dumps escapes every
# control and non-ASCII character, so the header is ASCII with no newline
# of its own. The tail is the six vectors as raw little-endian float64, in
# the fixed order G's and D's parameters, then G's Adam moments m and v, then
# D's. The config gives both networks' layouts (task_specs), and with them
# the tail's exact length.


def save_checkpoint(state: TrainState) -> bytes:
    """Versioned blob; load_checkpoint(save_checkpoint(s)) is exact.
    ValueError if state.config sets a field no config document holds."""
    header = {  # version first, so the blob begins with CHECKPOINT_START
        "version": CHECKPOINT_VERSION,
        "config": to_document(state.config),
        "step": state.step,
        "rng_state": state.rng.bit_generator.state,
    }
    vectors = (state.params_G.vector, state.params_D.vector,
               state.adam_G.m, state.adam_G.v, state.adam_D.m, state.adam_D.v)
    return b"".join([json.dumps(header).encode("ascii"), b"\n",
                     *(v.astype("<f8", copy=False).tobytes() for v in vectors)])


def _only_keys(doc: dict, keys, where: str = "") -> None:
    """CheckpointError naming each key of doc that keys does not list."""
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise CheckpointError(f"malformed checkpoint:{where} unknown keys: {', '.join(unknown)}")


def _moments(name: str, m: np.ndarray, v: np.ndarray) -> AdamState:
    """The Adam state `name` over its stored moments, or CheckpointError."""
    for moment, a in (("m", m), ("v", v)):
        if not np.isfinite(a).all():
            raise CheckpointError(f"malformed checkpoint: {name}.{moment} is not finite")
    if (v < 0).any():  # a running mean of squared gradients
        raise CheckpointError(f"malformed checkpoint: {name}.v is negative")
    return AdamState(m=m, v=v)


def load_checkpoint(blob: bytes) -> TrainState:
    """A version 5 blob back as the state it was saved from, each vector a
    native, writable array of its own; CheckpointError if it is malformed or
    of another version."""
    # versions 2-4 are one JSON document with no newline, so theirs is read too
    head, newline, tail = blob.partition(b"\n")
    try:
        doc = json.loads(head.decode("utf-8"), object_pairs_hook=unique_keys)
    # not UTF-8 or not JSON, a duplicate key, or a decoder limit (read_json)
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    if not isinstance(doc, dict) or "version" not in doc:
        raise CheckpointError("malformed checkpoint: missing version")
    # the JSON integer 5: 5.0 and a bool could compare equal to it
    if type(doc["version"]) is not int or doc["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {json.dumps(doc['version'])} "
                              f"(expected {CHECKPOINT_VERSION})")
    _only_keys(doc, ("version", "config", "step", "rng_state"))
    if not newline:
        raise CheckpointError("malformed checkpoint: no newline after the header")
    try:
        cfg = parse_run_config(doc["config"])
        g_spec, d_spec = task_specs(cfg)
        rng = np.random.default_rng(0)
        rng.bit_generator.state = doc["rng_state"]
        # both levels are objects, since the setter took them; it reads only the keys it knows
        _only_keys(doc["rng_state"], ("bit_generator", "state", "has_uint32", "uinteger"),
                   " rng_state:")
        _only_keys(doc["rng_state"]["state"], ("state", "inc"), " rng_state.state:")
        step = doc["step"]  # a JSON integer >= 0, not a bool, float or string
        if isinstance(step, bool) or not isinstance(step, int) or step < 0:
            raise CheckpointError(
                f"malformed checkpoint: step must be an integer >= 0, got {json.dumps(step)}")
        n_g, n_d = g_spec.n_params, d_spec.n_params
        sizes = (n_g, n_d, n_g, n_g, n_d, n_d)  # in the tail's order
        if len(tail) != 8 * sum(sizes):
            raise CheckpointError(f"malformed checkpoint: {len(tail)} bytes of vectors after "
                                  f"the header, not {8 * sum(sizes)}")
        # astype copies each: native, writable, and no view of the blob
        vectors = [v.astype(np.float64)
                   for v in np.split(np.frombuffer(tail, "<f8"), np.cumsum(sizes[:-1]))]
        return TrainState(
            config=cfg,
            params_G=NetworkParams(g_spec, vectors[0]),
            params_D=NetworkParams(d_spec, vectors[1]),
            adam_G=_moments("adam_G", *vectors[2:4]),
            adam_D=_moments("adam_D", *vectors[4:6]),
            step=step,
            rng=rng,
        )
    except CheckpointError:
        raise
    # missing keys, wrong types, a bad config (ConfigError is a ValueError),
    # non-finite weights (NonFiniteParams is a ValueError), a foreign or
    # overflowing rng state
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc


# -- CSV metric log -------------------------------------------------------------


def rows_to_csv(rows) -> str:
    """metrics.csv's text: each row's log columns, then its eval's (empty
    without one); csv.writer writes None as an empty field and a row's Python
    ints and floats as their repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    writer.writerows([*(getattr(r, k) for k in _LOG_COLUMNS),
                      *(getattr(r.eval, k, None) for k in EVAL_COLUMNS)] for r in rows)
    return buf.getvalue()
