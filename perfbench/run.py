"""divgan benchmark: runs one workload and checks its outputs.

    python3 perfbench/run.py --workload train_ring --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; the library is imported from `src/`.
Workloads: train_ring, sweep_traj, analyze_ckpt (see README.md). The
workload's set-up runs in a fresh interpreter once before measuring and,
in untraced runs, again between operations, SETUP_REPS times in all.
Operations repeat until --seconds have passed. With --trace 0 every
operation is untraced and the end-to-end metrics are reported, scaled to
the speed of a reference kernel (calibrate.py) so that the slow phases of
a shared machine cancel out. With
--trace 1 operations alternate untraced and traced, the per-layer metrics
come from the traced ones, and traced and untraced outputs must be
bit-identical.

Stdout carries readable lines first; the last line is one JSON object
with the keys correct, attempted, failed and metrics. Exit code: 0 if
the outputs are correct, 1 if not, 2 if the library is missing.
"""

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

T_START = time.perf_counter()

# one BLAS thread per process, set before numpy loads; set-up children inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from calibrate import PASS_REF_S, SETUP_PASSES, Sampler, kernel_seconds  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5
SETUP_TIMEOUT_S = 120

LAYERS = ("cli", "training", "autodiff", "optim", "nets", "losses", "data", "metrics", "theory")
# per-layer metric -> (unit, span names it sums, statistic)
SPAN_METRICS = {
    "autodiff.backward.calls": ("count", ["autodiff.backward"], "calls"),
    "autodiff.backward.self_ms": ("ms", ["autodiff.backward"], "self"),
    "optim.adam_step.calls": ("count", ["optim.adam_step"], "calls"),
    "optim.adam_step.self_ms": ("ms", ["optim.adam_step"], "self"),
    "training.train_step.self_ms": ("ms", ["training.train_step"], "self"),
    "training.train_step.ms_p50": ("ms", ["training.train_step"], "p50"),
    "training.train_step.ms_p99": ("ms", ["training.train_step"], "p99"),
    "nets.mlp_forward_vars.self_ms": ("ms", ["nets.mlp_forward_vars"], "self"),
    "nets.generator_forward.self_ms": ("ms", ["nets.generator_forward"], "self"),
    "nets.discriminator_forward.self_ms": ("ms", ["nets.discriminator_forward"], "self"),
    "losses.generator_total_loss.self_ms": ("ms", ["losses.generator_total_loss"], "self"),
    "losses.d_loss.self_ms": ("ms", ["losses.d_loss"], "self"),
    "data.sample.calls": ("count", ["data.sample_ring", "data.sample_conditional_ring",
                                    "data.sample_trajectories"], "calls"),
    "data.sample.self_ms": ("ms", ["data.sample_ring", "data.sample_conditional_ring",
                                   "data.sample_trajectories"], "self"),
    "metrics.pairwise_diversity.self_ms": ("ms", ["metrics.pairwise_diversity"], "self"),
    "metrics.latent_interpolation.self_ms": ("ms", ["metrics.latent_interpolation"], "self"),
    "metrics.other.self_ms": ("ms", ["metrics.mode_coverage", "metrics.dist_min",
                                     "metrics.frechet_2d", "metrics.conditional_coverage"], "self"),
    "training.save_checkpoint.self_ms": ("ms", ["training.save_checkpoint"], "self"),
    "training.load_checkpoint.self_ms": ("ms", ["training.load_checkpoint"], "self"),
    "training.evaluate_generator.self_ms": ("ms", ["training.evaluate_generator"], "self"),
    "training.save_checkpoint.calls": ("count", ["training.save_checkpoint"], "calls"),
    "training.save_checkpoint.bytes": ("B", ["training.save_checkpoint"], "bytes"),
    "cli.main.self_ms": ("ms", ["cli.main"], "self"),
    "theory.bound_suite.self_ms": ("ms", ["theory.bound_suite"], "self"),
    "theory.attraction_check.self_ms": ("ms", ["theory.attraction_check"], "self"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-dir", help=argparse.SUPPRESS)  # one set-up repetition
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None where it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout, read from .git; None outside a git repository."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = ROOT / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
    }


class SetupFailed(RuntimeError):
    pass


class Setups:
    """Times set-ups of the workload, each in a fresh interpreter, so every
    repetition pays for the imports too. Repetitions after the first are
    spread over the measured window, where they see the same slow and fast
    phases of a shared machine as the operations do. All must build
    identical inputs."""

    def __init__(self, args, work, reps):
        self.args, self.work, self.reps = args, work, reps
        self.walls, self.scaled, self.digests = [], [], set()
        self.last = 0.0

    def run(self) -> Path:
        d = self.work / f"setup{len(self.walls)}"
        d.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--setup-dir", str(d)]
        cal = kernel_seconds()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        wall = time.perf_counter() - t0
        cal = (cal + kernel_seconds()) / 2
        self.last = time.perf_counter()
        self.walls.append(wall)
        self.scaled.append(wall * SETUP_PASSES * PASS_REF_S / cal)
        if proc.returncode != 0:
            raise SetupFailed(proc.stderr)
        self.digests.add(proc.stdout.strip().splitlines()[-1])
        if len(self.digests) != 1:
            raise SetupFailed("set-up repetitions built different inputs")
        return d

    def between_ops(self, seconds) -> None:
        if len(self.walls) < self.reps and time.perf_counter() - self.last >= seconds / self.reps:
            shutil.rmtree(self.run())

    def finish(self) -> None:
        while len(self.walls) < self.reps:
            shutil.rmtree(self.run())


def measure(wl, ctx, seconds, tracer, between_ops):
    """Operations until `seconds` pass; with a tracer, every second one is
    traced. The first operation warms up: it is checked like the others
    but its time is not used, because it pays for first calls (the CLI's
    first file writes, the allocator's first large blocks) that later
    operations, like later evaluations of a long run, do not.

    Untraced runs sample the machine's speed during every operation
    (calibrate.Sampler) and scale the operation's rate to reference speed.
    Traced runs do not sample, so the spans hold only the library's time,
    and report raw rates."""
    ops = []
    sampler = Sampler() if tracer is None else contextlib.nullcontext()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(ops) < (3 if tracer else 2):
        traced = tracer is not None and len(ops) % 2 == 1
        op = tracer.wrap("bench.op", wl.op) if traced else wl.op
        if traced:
            tracer.install()
        error = None
        with sampler:
            t0 = time.perf_counter()
            try:
                outcome = op(ctx)
            except Exception as exc:  # a crashed operation counts as failed
                error = exc
            wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        if tracer is None:
            wall -= sampler.paused_s
            slowdown = sampler.slowdown
        else:
            slowdown = 1.0
        if error is not None:
            failed, digest, info = wl.attempts, f"raised {error!r}", {}
        else:
            try:
                failed, digest, info = wl.check(ctx, outcome)
            except Exception as exc:  # malformed output fails the gate
                failed, digest, info = wl.attempts, f"check raised {exc!r}", {}
        ops.append({"traced": traced, "wall": wall, "rate": wl.units / wall,
                    "scaled_rate": wl.units / wall * slowdown, "slowdown": slowdown,
                    "failed": failed, "digest": digest, "info": info})
        between_ops(seconds)
    return ops


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def layer_metrics(spans, units):
    """Per-layer metrics per unit of work from the traced operations' spans."""
    self_ns = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
    out = {}
    for metric, (unit, names, stat) in SPAN_METRICS.items():
        group = [s for n in names for s in by_name.get(n, ())]
        if stat == "calls":
            value = len(group) / units
        elif stat == "self":
            value = sum(self_ns[s[0]] for s in group) / 1e6 / units
        elif stat == "bytes":
            value = sum(s[6]["bytes"] for s in group) / units
        else:
            durs = [(s[4] - s[3]) / 1e6 for s in group]
            pct = statistics.quantiles(durs, n=100) if len(durs) > 1 else [0.0] * 99
            value = pct[49 if stat == "p50" else 98]
        out[metric] = (value, unit)
    notes = [s[6] for s in by_name.get("theory.bound_suite", ())]
    pairs = sum(n["pairs"] for n in notes)
    out["theory.bound_suite.refined_frac"] = (
        sum(n["refined"] for n in notes) / pairs if pairs else 0.0, "ratio")
    # one job: the share of the sweep's wall time outside its runs
    sweep_ns = sum(s[4] - s[3] for s in by_name.get("training.sweep", ()))
    run_ns = sum(s[4] - s[3] for s in by_name.get("training.sweep_run", ()))
    out["training.sweep.idle_frac"] = (1.0 - run_ns / sweep_ns if sweep_ns else 0.0, "ratio")
    for layer in LAYERS:
        total = sum(self_ns[s[0]] for s in spans if s[2].startswith(layer + "."))
        out[f"{layer}.self_ms"] = (total / 1e6 / units, "ms")
    return out


def phase_shares(spans):
    """Shares of train_step time by the spans directly under it (inclusive),
    for comparison with the phase table in ROADMAP.md."""
    steps = {s[0]: s for s in spans if s[2] == "training.train_step"}
    total = sum(s[4] - s[3] for s in steps.values())
    if not total:
        return {}
    shares = defaultdict(float)
    for s in spans:
        if s[1] in steps:
            shares[s[2]] += (s[4] - s[3]) / total
    self_ns = self_times(list(steps.values()) + [s for s in spans if s[1] in steps])
    shares["training.train_step (self)"] = sum(self_ns[i] for i in steps) / total
    return {k: round(v, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "divgan" / "__init__.py").is_file():
        print(f"perfbench: no divgan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.setup_dir:
        print(json.dumps(wl.setup(args.setup_dir, args.seed), sort_keys=True))
        return 0

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # setup_s is not reported from a traced run, which needs the inputs only
    setups = Setups(args, work, reps=1 if args.trace else SETUP_REPS)
    kernel_seconds()  # the first passes pay for first calls
    try:
        ctx = wl.prepare(str(setups.run()), args.seed)
        tracer = Tracer(str(work)) if args.trace else None
        ops = measure(wl, ctx, args.seconds, tracer, setups.between_ops)
        setups.finish()
    except (SetupFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1

    digests = {op["digest"] for op in ops}
    attempted = len(ops) * wl.attempts
    failed = sum(op["failed"] for op in ops)
    correct = failed == 0 and len(digests) == 1
    # throughput is the median operation's, each scaled to the reference
    # kernel's speed (calibrate.py): slow phases of a shared machine can
    # outlast a run, and scaling cancels them where no statistic of raw
    # times within the run can
    timed = ops[1:]
    untraced = [op["scaled_rate"] for op in timed if not op["traced"]]
    traced = [op["scaled_rate"] for op in timed if op["traced"]]

    if args.trace:
        units = sum(wl.units for op in ops if op["traced"])
        metrics = layer_metrics(tracer.spans, units)
        metrics["trace_overhead_frac"] = (
            1.0 - statistics.median(traced) / statistics.median(untraced), "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(setups.scaled), "s"),
            "ops_per_s": (statistics.median(untraced), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    print("env", json.dumps(environment()))
    print(f"{wl.name} seed={args.seed} trace={args.trace}: {len(ops)} operations "
          f"({sum(op['traced'] for op in ops)} traced), {time.perf_counter() - T_START:.1f} s")
    if not args.trace:
        rate_name = f"{wl.unit}_per_s"
        raw = [op["rate"] for op in timed if not op["traced"]]
        print(f"  {'setup_s':<14} {metrics['setup_s'][0]:.4f} s at reference speed "
              f"(median of {SETUP_REPS}; wall {statistics.median(setups.walls):.4f} s)")
        print(f"  {rate_name:<14} {metrics['ops_per_s'][0]:.4f} {wl.unit}/s at reference speed "
              f"(median of {len(untraced)}; wall {statistics.median(raw):.4f}; "
              f"reported as ops_per_s)")
        print(f"  {'peak_rss_mb':<14} {metrics['peak_rss_mb'][0]:.1f} MB")
        print(f"  per operation, scaled: {' '.join(f'{r:.4g}' for r in untraced)} {wl.unit}/s")
        print(f"  per operation, wall:   {' '.join(f'{r:.4g}' for r in raw)} {wl.unit}/s")
        slow = [op["slowdown"] for op in timed]
        print(f"  machine slowdown against the reference kernel, per operation: "
              f"{' '.join(f'{x:.3f}' for x in slow)}")
    else:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:.6g} {unit}")
        shares = phase_shares(tracer.spans)
        if shares:
            print("phases", json.dumps(shares))
    print(f"  {'failed_frac':<14} {failed / attempted:.4f} ratio ({failed} of {attempted})")
    report = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "failed_frac": failed / attempted,
        "digest": sorted(digests),
        "deterministic": len(digests) == 1,
        **ops[0]["info"],
    }
    print("report", json.dumps(report))
    for child in work.iterdir():  # keep only the result and the spans
        if child.is_dir():
            shutil.rmtree(child)
        else:
            child.unlink()
    if tracer is not None:
        tracer.dump()

    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (work / "result.json").write_text(line + "\n")
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
