"""Layer spans for divgan, recorded from outside the library.

`Tracer.install` replaces each traced public function with a timing
wrapper under every name a divgan module binds it to (for example
`divgan.training.backward` and `divgan.theory.backward` both become the
`autodiff.backward` span), and `uninstall` puts the originals back. No code
under `src/` changes.

A span is `(id, parent, name, start_ns, end_ns, run, note)`; `run` names
the sweep entry (`lambda=<weight>`) a span belongs to, or `main`. Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# layer -> public functions wrapped wherever a divgan module binds them.
# nets.mlp_forward is left unwrapped on purpose: the MLP pass a
# generator_forward/discriminator_forward call makes stays in their self time.
TRACED = {
    "cli": ("main",),
    "training": ("train", "train_step", "evaluate_generator", "save_checkpoint",
                 "load_checkpoint", "sweep"),
    "autodiff": ("backward",),
    "optim": ("adam_step",),
    "nets": ("mlp_forward_vars", "generator_forward", "discriminator_forward"),
    "losses": ("generator_total_loss", "d_loss"),
    "data": ("sample_ring", "sample_conditional_ring", "sample_trajectories"),
    "metrics": ("mode_coverage", "pairwise_diversity", "dist_min", "frechet_2d",
                "latent_interpolation", "conditional_coverage"),
    "theory": ("bound_suite", "attraction_check"),
}
# one sweep entry, traced as training.sweep_run with its own run id
SWEEP_RUN = ("training", "_sweep_one")

# facts read off return values, kept in the span's note
NOTES = {
    "training.save_checkpoint": lambda blob: {"bytes": len(blob)},
    "theory.bound_suite": lambda rep: {"refined": rep["refined"], "pairs": rep["pairs"]},
}


class Tracer:
    def __init__(self, trace_dir):
        self.trace_dir = trace_dir
        self.spans = []
        self.stack = [None]
        self.next_id = 1
        self.run = "main"
        self._patched = []

    def wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1]
            self.stack.append(sid)
            result = None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                self.stack.pop()
                info = note(result) if note is not None and result is not None else None
                self.spans.append((sid, parent, name, t0, t1, self.run, info))

        return traced

    def _wrap_sweep_run(self, fn):
        traced = self.wrap("training.sweep_run", fn)

        @functools.wraps(fn)
        def run(task):
            self.run = f"lambda={task[1]}"
            try:
                return traced(task)
            finally:
                self.run = "main"

        return run

    def install(self) -> None:
        wrappers = {}
        for layer, names in TRACED.items():
            mod = sys.modules[f"divgan.{layer}"]
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        run_fn = getattr(sys.modules[f"divgan.{SWEEP_RUN[0]}"], SWEEP_RUN[1])
        wrappers[id(run_fn)] = (run_fn, self._wrap_sweep_run(run_fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "divgan" or modname.startswith("divgan.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched = []

    def dump(self) -> None:
        with open(f"{self.trace_dir}/trace.jsonl", "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times(spans) -> dict:
    """span id -> self ns: its duration minus its children's (one thread, so
    children never overlap)."""
    child_ns = defaultdict(int)
    for s in spans:
        child_ns[s[1]] += s[4] - s[3]
    return {s[0]: s[4] - s[3] - child_ns[s[0]] for s in spans}
