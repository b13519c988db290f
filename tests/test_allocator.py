import gc
import resource

import pytest

from divgan import _allocator
from divgan.config import parse_run_config
from divgan.training import init_state, train_step


@pytest.mark.skipif(not _allocator._is_glibc(), reason="the thresholds are set on glibc only")
def test_training_steps_do_not_fault_in_fresh_memory():
    """With the thresholds set at import, a steady ring step reuses freed
    heap: 100 steps after 20 warm-up steps cost under 100 minor page faults
    (~5,000 when glibc maps and unmaps the ~130 KiB vectors each step)."""
    # an earlier test's cyclic garbage goes now: a sweep that forked leaves
    # the objects it refers to on copy-on-write pages, and a collection in
    # the measured steps that frees it faults on each page it decrefs
    gc.collect()
    cfg = parse_run_config({"task": "ring", "seed": 3})
    state = init_state(cfg)
    for _ in range(20):
        state, _ = train_step(state, cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(100):
        state, _ = train_step(state, cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 100
    assert _allocator.keep_freed_memory()  # mallopt took both values


def test_missing_mallopt_is_a_silent_no_op(monkeypatch):
    class NoMallopt:
        """A C library without mallopt: ctypes raises AttributeError."""

        def __init__(self, name):
            pass

        def __getattr__(self, name):
            raise AttributeError(name)

    monkeypatch.setattr(_allocator, "_is_glibc", lambda: True)
    monkeypatch.setattr(_allocator.ctypes, "CDLL", NoMallopt)
    assert _allocator.keep_freed_memory() is False


def test_off_glibc_nothing_is_called(monkeypatch):
    def unreachable(name):
        raise AssertionError("the C library was opened off glibc")

    monkeypatch.setattr(_allocator, "_is_glibc", lambda: False)
    monkeypatch.setattr(_allocator.ctypes, "CDLL", unreachable)
    assert _allocator.keep_freed_memory() is False
