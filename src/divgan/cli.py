"""Command-line entry point.

Commands: train, eval, sweep, verify, interp. The JSON config file is the
source of truth; flags select the command, paths, and a seed override.
Commands raise; `main` maps the error to a stderr line and an exit code:

    0  success
    1  verification failed: a check did not hold, or a non-finite value
       (G output, a distance on it, Jacobian, gradient, weights) stopped it
       ("verification failed: ...")
    2  config error ("config error: ..."), a flag out of range (argparse's
       usage message, before any work), or an unreadable, malformed or
       non-finite checkpoint, one of another version, one whose D does not
       fit its G, or one whose G overflows ("checkpoint error: ...")
    3  training divergence, in a step or an evaluation ("divergence: ...";
       metrics.csv is still written)
    4  I/O error ("io error: ...")
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .autodiff import NumericsError
from .config import ConfigError, load_run_config
from .metrics import latent_interpolation
from .nets import mlp_init
from .optim import AdamHyper
from .theory import attraction_check, bound_suite, pull_toward
from .training import (
    CheckpointError,
    DivergenceError,
    evaluate_generator,
    load_checkpoint,
    rows_to_csv,
    save_checkpoint,
    sweep,
    task_specs,
    train,
    with_weight,
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
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(data)


def _load_config(args):
    if not args.config:
        raise ConfigError("missing --config")
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def cmd_train(args) -> int:
    cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    try:
        result = train(cfg)
    except DivergenceError as exc:
        _write(os.path.join(args.out, "metrics.csv"), rows_to_csv(exc.rows))
        raise
    _write(os.path.join(args.out, "metrics.csv"), rows_to_csv(result.rows))
    final = save_checkpoint(result.state)
    if result.best_state.step == result.state.step:  # the best eval was the last
        best = final
    else:
        best = save_checkpoint(result.best_state)
    _write(os.path.join(args.out, "final.ckpt.json"), final)
    _write(os.path.join(args.out, "best.ckpt.json"), best)
    _write(os.path.join(args.out, "eval.json"), result.eval_report.to_json())
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    with open(args.checkpoint, "rb") as fh:
        state = load_checkpoint(fh.read())
    g_spec, d_spec = task_specs(cfg)
    if state.params_G.spec != g_spec or state.params_D.spec != d_spec:
        raise ConfigError(
            f"checkpoint specs do not match the config's task "
            f"(checkpoint G {state.params_G.spec.layer_dims}, config G {g_spec.layer_dims})"
        )
    try:
        report = evaluate_generator(state.params_G, cfg)
    except NumericsError as exc:  # finite weights, overflowing output
        raise CheckpointError(str(exc)) from exc
    _write(args.out, report.to_json())
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    try:
        lambdas = [float(s) for s in args.lambdas.split(",") if s.strip() != ""]
        for lam in lambdas:
            with_weight(cfg, lam)  # the weight's range check: finite and >= 0
    except ValueError as exc:
        raise ConfigError(f"bad --lambdas: {exc}") from exc
    if not lambdas:
        raise ConfigError("--lambdas must name at least one value")
    entries = sweep(cfg, lambdas, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "modes", "hq_frac", "diversity", "frechet"])
        for e in entries:
            if e.report is None:
                writer.writerow([e.weight, "", "", "", ""])
            else:
                writer.writerow([
                    e.weight, e.report.modes_captured, e.report.hq_fraction,
                    e.report.pairwise_diversity, e.report.frechet2,
                ])
    doc = [
        {
            "lambda": e.weight,
            "report": None if e.report is None else json.loads(e.report.to_json()),
            "error": e.error,
        }
        for e in entries
    ]
    _write(os.path.join(args.out, "sweep.json"), json.dumps(doc, indent=2))
    return EXIT_OK


def _checkpoint_z_dim(state, command: str) -> int:
    """Latent size of a checkpoint's generator, which must be unconditional.

    A checkpoint does not record the condition width: it is what the
    discriminator reads beyond the generator's output, and the latent is
    the rest of the generator's input (load_checkpoint has checked that
    the first is >= 0 and the second >= 1).
    """
    cond_dim = state.params_D.spec.input_dim - state.params_G.spec.output_dim
    z_dim = state.params_G.spec.input_dim - cond_dim
    if cond_dim > 0:
        raise ConfigError(
            f"{command} needs an unconditional generator, but this checkpoint's "
            f"generator reads a {cond_dim}-dim condition beside its {z_dim}-dim "
            f"latent, and the checkpoint does not say which conditions to use"
        )
    return z_dim


def cmd_verify(args) -> int:
    """Gradient-bound suite on random pairs plus one attraction scenario."""
    with open(args.target, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"target is not valid JSON: {exc}") from exc
    seed = args.seed if args.seed is not None else 0
    if isinstance(doc, dict) and "version" in doc:
        with open(args.target, "rb") as fh:
            state = load_checkpoint(fh.read())
        z_dim = _checkpoint_z_dim(state, "verify")
        params_G = state.params_G
    else:
        cfg = load_run_config(args.target)
        if cfg.task != "ring":
            raise ConfigError("verify expects an unconditional (ring) generator")
        g_spec, _ = task_specs(cfg)
        params_G = mlp_init(g_spec, seed)
        z_dim = cfg.z_dim

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
        print("verify: could not construct an attracted scenario", file=sys.stderr)
        return EXIT_VERIFY_FAILED

    passed = bound["passed"] and attraction["passed"]
    report = {"gradient_bound": bound, "attraction": attraction, "passed": passed}
    _write(args.out, json.dumps(report, indent=2))
    print(json.dumps(report, indent=2))
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def cmd_interp(args) -> int:
    with open(args.checkpoint, "rb") as fh:
        state = load_checkpoint(fh.read())
    z_dim = _checkpoint_z_dim(state, "interp")
    params_G = state.params_G
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    z_a = rng.standard_normal(z_dim)
    z_b = rng.standard_normal(z_dim)
    try:
        res = latent_interpolation(params_G, z_a, z_b, steps=args.steps, mode=args.mode)
    except NumericsError as exc:  # finite weights, overflowing output
        raise CheckpointError(str(exc)) from exc
    except ValueError as exc:  # its argument checks
        raise ConfigError(str(exc)) from exc
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        zcols = [f"z{i}" for i in range(z_dim)]
        ycols = [f"y{i}" for i in range(params_G.spec.output_dim)]
        writer.writerow(["step"] + zcols + ycols + ["slerp_fallback"])
        for i in range(args.steps):
            writer.writerow(
                [i] + [repr(float(v)) for v in res.latents[i]]
                + [repr(float(v)) for v in res.outputs[i]]
                + [int(res.slerp_fallback)]
            )
    return EXIT_OK


# upper bound on --probes and --steps: a 128-wide layer over that many rows
# holds 2**25 float64 entries, the budget divgan.data.MAX_SIZE keeps configs to
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
                       help="evaluate a checkpoint with the config's protocol")
    p.add_argument("checkpoint")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", parents=[shared],
                       help="independent runs over a list of lambda values")
    p.add_argument("--config", required=True)
    p.add_argument("--lambdas", required=True)
    p.add_argument("--jobs", type=_int_in_range(1), default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", parents=[shared],
                       help="numerical checks of the gradient bound and attraction")
    p.add_argument("target", help="run config or checkpoint JSON")
    p.add_argument("--pairs", type=_int_in_range(1), default=100)
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
