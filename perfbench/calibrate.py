"""Reference kernel that measures how fast this machine runs right now.

On a shared host the same code runs at anything from full to half speed,
in phases that change within a second and can outlast a whole run. The
kernel here is fixed work whose time tracks those phases: small matrix
products driven from Python (like the autodiff graph and the MLPs), JSON
text (like checkpoints) and a pairwise-distance matrix (like evaluation).
Its inputs are fixed, and nothing in it comes from the library under test,
so a change to the library cannot move it.

`Sampler` runs two short passes of the kernel every `INTERVAL_S` of wall
time while an operation runs, so its samples see the same phases as the
operation. Only the second pass is timed: the first refills the caches the
operation took over, so the sample does not depend on how much memory the
library's code touches. run.py takes the time the samples paused the
operation out of the operation's time and scales the rest by the mean
slowdown of the samples against `PASS_REF_S`. `kernel_seconds` times many
passes in a row, for the set-ups, which run in a child process and cannot
be sampled.
"""

from __future__ import annotations

import json
import signal
import time

import numpy as np

# one pass on an idle 2-core x86-64 VM (Intel Xeon, OpenBLAS 0.3.31, one
# thread); scaled times read as times at that speed
PASS_REF_S = 0.006
INTERVAL_S = 0.15
SETUP_PASSES = 30

_rng = np.random.default_rng(12345)
# every array stays under glibc's 128 KiB mmap threshold and the pairwise
# temporaries are preallocated, so a pass's time does not depend on how the
# library's own large allocations have left the allocator
_W = [_rng.standard_normal((2, 96)) * 0.3, _rng.standard_normal((96, 96)) * 0.1,
      _rng.standard_normal((96, 2)) * 0.1]
_X = _rng.standard_normal((64, 2))
_DOC = {"w": _rng.standard_normal(1500).tolist(), "b": _rng.standard_normal(150).tolist()}
_P = _rng.standard_normal((80, 2))
_D3 = np.empty((80, 80, 2))
_D2 = np.empty((80, 80))


def _mlp_grad():
    hs = [_X]
    for w in _W[:-1]:
        hs.append(np.tanh(hs[-1] @ w))
    g = hs[-1] @ _W[-1] - 1.0
    total = 0.0
    for i in range(len(_W) - 1, -1, -1):
        total += float((hs[i].T @ g).sum())
        g = g @ _W[i].T
        if i:
            g = g * (1.0 - hs[i] ** 2)
    return total


def _json_roundtrip():
    return len(json.loads(json.dumps(_DOC))["w"])


def _pairwise():
    np.subtract(_P[:, None, :], _P[None, :, :], out=_D3)
    np.square(_D3, out=_D3)
    _D3.sum(-1, out=_D2)
    return float(np.sqrt(_D2, out=_D2).mean())


def _pass():
    for _ in range(20):
        _mlp_grad()
    _json_roundtrip()
    for _ in range(8):
        _pairwise()


def kernel_seconds() -> float:
    """Wall time of SETUP_PASSES passes in a row."""
    t0 = time.perf_counter()
    for _ in range(SETUP_PASSES):
        _pass()
    return time.perf_counter() - t0


class Sampler:
    """While active, runs two passes from a SIGALRM handler every INTERVAL_S
    and times the second.

    The handler runs between two bytecodes of whatever Python code is
    executing, so the library's own code is not changed. `paused_s` is the
    wall time the handler took from the measured code; `slowdown` is the
    mean pass time over PASS_REF_S (above 1: slower than the reference).
    """

    def __init__(self):
        self.passes, self.pass_s, self.paused_s = 0, 0.0, 0.0

    def _sample(self):
        _pass()
        t0 = time.perf_counter()
        _pass()
        self.passes += 1
        self.pass_s += time.perf_counter() - t0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._sample()
        self.paused_s += time.perf_counter() - t0

    def __enter__(self):
        self.passes, self.pass_s, self.paused_s = 0, 0.0, 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if self.passes == 0:  # an operation shorter than one interval
            self._sample()
        return False

    @property
    def slowdown(self) -> float:
        return self.pass_s / self.passes / PASS_REF_S
