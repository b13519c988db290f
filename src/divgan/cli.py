"""Command-line entry point.

Commands: train, eval, sweep, verify, interp. The JSON config file is the
source of truth, and a checkpoint carries the config of the run that saved
it; flags select the command, paths, and a seed override.
Commands raise; `main` maps the error to a stderr line and an exit code:

    0  success
    1  verification failed: a check did not hold or found no attracted
       scenario, or a non-finite value (G output, a distance on it,
       Jacobian, gradient, weights) stopped it ("verification failed: ...")
    2  config error ("config error: ..."), a flag out of range (argparse's
       usage message, before any work), or an unreadable, malformed or
       non-finite checkpoint, one of another version, one whose stored config
       is invalid or does not fit its vectors, or one whose G overflows
       ("checkpoint error: ...")
    3  training divergence, in a step or an evaluation ("divergence: ...";
       metrics.csv is still written)
    4  I/O error ("io error: ...")
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import io
import itertools
import json
import os
import stat
import sys
from dataclasses import replace

import numpy as np

from .autodiff import NumericsError
from .config import ConfigError, parse_run_config, read_json
from .metrics import EVAL_COLUMNS, latent_interpolation
from .optim import AdamHyper
from .theory import attraction_check, bound_suite, pull_toward
from .training import (
    CHECKPOINT_START,
    CheckpointError,
    DivergenceError,
    evaluate_generator,
    init_state,
    load_checkpoint,
    rows_to_csv,
    save_checkpoint,
    sweep,
    train,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4

# error class -> (stderr prefix, exit code); the first class the error is an
# instance of decides, and commands raise instead of catching
_ERRORS = {
    ConfigError: ("config error", EXIT_CONFIG),
    CheckpointError: ("checkpoint error", EXIT_CONFIG),
    DivergenceError: ("divergence", EXIT_DIVERGED),
    NumericsError: ("verification failed", EXIT_VERIFY_FAILED),
    OSError: ("io error", EXIT_IO),
}


def _write(path, data) -> None:
    """Write `data` (bytes, or str as UTF-8) to `path`.

    A missing target, or a regular file with one link, is replaced all at
    once: the data goes into a new file in the same directory, which takes
    the old file's permission bits, and os.replace moves it over the target.
    A failure or a crash leaves the old file, or none, but never part of
    one; on an error the new file is removed. Any other target (a symlink,
    a device such as /dev/null, a FIFO, a hard-linked file) is opened and
    written in place, as open() would, so it stays what it is."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        old = os.lstat(path)
    except FileNotFoundError:
        old = None
    if old is not None and not (stat.S_ISREG(old.st_mode) and old.st_nlink == 1):
        with open(path, "wb") as fh:
            fh.write(data)
        return
    # a short name of its own, so a target name near NAME_MAX still fits
    tmp = os.path.join(os.path.dirname(path), f".divgan-{os.getpid()}-{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            if old is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(old.st_mode))
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _csv(rows) -> str:
    """CSV text of `rows` in csv.writer's default dialect, rows ending in CRLF."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _seeded(cfg, args):
    """cfg with the --seed override applied, if one was given."""
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _load_config(args):
    """The --config document and its run config, with --seed applied."""
    if not args.config:
        raise ConfigError("missing --config")
    doc = read_json(args.config, "config")
    return doc, _seeded(parse_run_config(doc), args)


def cmd_train(args) -> int:
    _, cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    state, rows, best_key = init_state(cfg), [], None  # best_key: the best eval's (modes, hq)
    try:
        for row in train(state):
            rows.append(row)
            if row.eval is not None:
                key = (row.eval.modes_captured, row.eval.hq_fraction)
                if best_key is None or key > best_key:
                    # a step replaces params and moments, so only the rng needs a copy
                    best_key, best = key, replace(state, rng=copy.deepcopy(state.rng))
    finally:  # a diverged or interrupted run keeps the rows it made
        _write(os.path.join(args.out, "metrics.csv"), rows_to_csv(rows))
    final = save_checkpoint(state)
    _write(os.path.join(args.out, "final.ckpt.json"), final)
    _write(os.path.join(args.out, "best.ckpt.json"),
           final if best.step == state.step else save_checkpoint(best))
    _write(os.path.join(args.out, "eval.json"), rows[-1].eval.to_json())
    return EXIT_OK


def cmd_eval(args) -> int:
    with open(args.checkpoint, "rb") as fh:
        state = load_checkpoint(fh.read())
    try:
        report = evaluate_generator(state.params_G, _seeded(state.config, args))
    except NumericsError as exc:  # finite weights, overflowing output
        raise CheckpointError(str(exc)) from exc
    _write(args.out, report.to_json())
    return EXIT_OK


def cmd_sweep(args) -> int:
    base, _ = _load_config(args)
    try:  # the lambda key's own check: finite and >= 0
        cfgs = [_seeded(parse_run_config({**base, "lambda": float(s)}), args)
                for s in args.lambdas.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --lambdas: {exc}") from exc
    if not cfgs:
        raise ConfigError("--lambdas must name at least one value")
    os.makedirs(args.out, exist_ok=True)  # a bad --out fails before the runs, not after
    entries = sweep(cfgs, jobs=args.jobs)
    summary = [["lambda", *EVAL_COLUMNS]]
    summary += [[e.config.objective.diversity.weight,
                 *(getattr(e.report, k, None) for k in EVAL_COLUMNS)] for e in entries]
    _write(os.path.join(args.out, "summary.csv"), _csv(summary))
    doc = [
        {
            "lambda": e.config.objective.diversity.weight,
            "report": None if e.report is None else json.loads(e.report.to_json()),
            "error": e.error,
        }
        for e in entries
    ]
    _write(os.path.join(args.out, "sweep.json"), json.dumps(doc, indent=2))
    return EXIT_OK


def _unconditional_z_dim(cfg, command: str, flag: str, count: int) -> int:
    """Latent size of a run's generator, which must be the ring task's
    unconditional one: `command` has no conditions to give it. `count`
    latents, as `flag` asks, must fit in 2**25 entries (see MAX_COUNT)."""
    if cfg.task != "ring":
        raise ConfigError(
            f"{command} needs the ring task's unconditional generator, but this is a "
            f"{cfg.task} generator, which reads a condition beside its latent, and "
            f"{command} has no conditions to give it"
        )
    if count * cfg.z_dim > 2**25:
        raise ConfigError(f"{flag} {count} at z_dim {cfg.z_dim} is {count * cfg.z_dim} latent "
                          f"entries, over 2**25; at most {2**25 // cfg.z_dim} fit")
    return cfg.z_dim


def cmd_verify(args) -> int:
    """Gradient-bound suite on random pairs plus one attraction scenario, on
    a checkpoint's G or on the G that `train` starts from for a config. A
    target beginning with CHECKPOINT_START is read as a checkpoint, any other
    as a config. The suite's draws are seeded from --seed (default 0)."""
    with open(args.target, "rb") as fh:
        blob = fh.read()
    seed = args.seed if args.seed is not None else 0
    if blob.startswith(CHECKPOINT_START):
        state = load_checkpoint(blob)
    else:
        state = init_state(_seeded(parse_run_config(read_json(args.target, "target")), args))
    z_dim = _unconditional_z_dim(state.config, "verify", "--probes", args.probes)
    params_G = state.params_G

    rng = np.random.default_rng(seed)
    bound = bound_suite(params_G, n_pairs=args.pairs, rng=rng, z_dim=z_dim)

    attraction = None
    for _ in range(8):  # rare: a step that fails to decrease the distance
        z1 = rng.standard_normal(z_dim)
        y_star = rng.standard_normal(params_G.spec.output_dim)
        params_t1 = pull_toward(params_G, z1, y_star, AdamHyper())
        try:
            attraction = attraction_check(params_G, params_t1, z1, y_star,
                                          probes=args.probes, rng=rng).summary()
            break
        except ValueError:
            continue
    if attraction is None:
        raise NumericsError("could not construct an attracted scenario in 8 pulls")

    passed = bound["passed"] and attraction["passed"]
    report = {"gradient_bound": bound, "attraction": attraction, "passed": passed}
    _write(args.out, json.dumps(report, indent=2))
    print(json.dumps(report, indent=2))
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def cmd_interp(args) -> int:
    with open(args.checkpoint, "rb") as fh:
        state = load_checkpoint(fh.read())
    z_dim = _unconditional_z_dim(state.config, "interp", "--steps", args.steps)
    params_G = state.params_G
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    z_a = rng.standard_normal(z_dim)
    z_b = rng.standard_normal(z_dim)
    try:
        res = latent_interpolation(params_G, z_a, z_b, steps=args.steps, mode=args.mode)
    except NumericsError as exc:  # finite weights, overflowing output
        raise CheckpointError(str(exc)) from exc
    zcols = [f"z{i}" for i in range(z_dim)]
    ycols = [f"y{i}" for i in range(params_G.spec.output_dim)]
    header = ["step"] + zcols + ycols + ["slerp_fallback"]
    # made as the writer reads them, not held as one list of rows
    rows = ([i] + [repr(float(v)) for v in res.latents[i]]
            + [repr(float(v)) for v in res.outputs[i]] + [int(res.slerp_fallback)]
            for i in range(args.steps))
    _write(args.out, _csv(itertools.chain([header], rows)))
    return EXIT_OK


# upper bound on --pairs, --probes and --steps, which bounds time: the pairs,
# probes and path steps pass through G in blocks sized from nets.ROW_BLOCK,
# so the block sizes, not the cap, bound G's memory. The probes and the
# path's latents are held whole, so `_unconditional_z_dim` also refuses a
# --probes or --steps count whose count * z_dim latent entries exceed 2**25
# (256 MiB; see data.MAX_SIZE)
MAX_COUNT = 2**18


def _int_in_range(least: int, most: int | None = None):
    """argparse type: an integer >= least (and <= most, if given), so a bad
    flag exits 2 naming it."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be <= {most}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="divgan")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags every command takes
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", required=True)
    shared.add_argument("--seed", type=_int_in_range(0), default=None)

    p = sub.add_parser("train", parents=[shared], help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[shared],
                       help="evaluate a checkpoint with its run's protocol")
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", parents=[shared],
                       help="independent runs over a list of lambda values")
    p.add_argument("--config", required=True)
    p.add_argument("--lambdas", required=True)
    p.add_argument("--jobs", type=_int_in_range(1), default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", parents=[shared],
                       help="numerical checks of the gradient bound and attraction")
    p.add_argument("target", help="run config JSON or checkpoint")
    p.add_argument("--pairs", type=_int_in_range(1, MAX_COUNT), default=100)
    p.add_argument("--probes", type=_int_in_range(1, MAX_COUNT), default=2000)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("interp", parents=[shared],
                       help="latent interpolation through a checkpointed generator")
    p.add_argument("checkpoint")
    p.add_argument("--steps", type=_int_in_range(2, MAX_COUNT), default=9)
    p.add_argument("--mode", choices=("linear", "slerp"), default="slerp")
    p.set_defaults(func=cmd_interp)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_ERRORS) as exc:
        prefix, code = next(v for cls, v in _ERRORS.items() if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
