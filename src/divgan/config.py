"""Strict JSON run configs, the source of truth for a run (flags only pick
the command, paths and a seed override). `FIELDS` is the one table of keys:
each names the `TrainConfig` field it sets and its JSON type, checked exactly
(a bool is not a number, a float not an integer). A key the document leaves
out keeps its task's value in `TASK_DEFAULTS`, else the dataclass default.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace

from .training import TrainConfig

__all__ = ["ConfigError", "FIELDS", "TASK_DEFAULTS", "parse_run_config", "load_run_config"]

# JSON key -> (field path, JSON type); floats take integers, type(None) is null
FIELDS = {
    "task": ("task", str),
    "z_dim": ("z_dim", int),
    "batch_size": ("batch_size", int),
    "steps": ("steps", int),
    "seed": ("seed", int),
    "eval_every": ("eval_every", int),
    "warm_start_discriminator": ("warm_start_discriminator", (str, type(None))),
    "lambda": ("objective.diversity.weight", float),
    "tau": ("objective.diversity.tau", (float, type(None))),
    "norm": ("objective.diversity.norm", str),
    "space": ("objective.diversity.space", str),
    "beta": ("objective.beta", float),
    "g_loss_form": ("objective.g_loss_form", str),
    "lr": ("adam.lr", float),
    "beta1": ("adam.beta1", float),
    "beta2": ("adam.beta2", float),
    "ring.n_modes": ("ring.n_modes", int),
    "ring.radius": ("ring.radius", float),
    "ring.std": ("ring.std", float),
}

# the task's keys that differ from the dataclass defaults
TASK_DEFAULTS = {
    "conditional_ring": {"lambda": 1.0, "z_dim": 8},
    "trajectory": {"lambda": 10.0, "z_dim": 8, "space": "sequence"},
}

_JSON_NAMES = {int: "an integer", float: "a finite number", str: "a string", type(None): "null"}


class ConfigError(ValueError):
    """Config file failed validation; the message names the offending keys."""


def _typed(key: str, value):
    """`value` as its field stores it, or ConfigError naming `key`."""
    kinds = FIELDS[key][1] if isinstance(FIELDS[key][1], tuple) else (FIELDS[key][1],)
    if type(value) is int and float in kinds and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) not in kinds or (type(value) is float and not math.isfinite(value)):
        wanted = " or ".join(_JSON_NAMES[k] for k in kinds)
        raise ConfigError(f"config key {key!r}: expected {wanted}, got {value!r}")
    return value


def _set(obj, path: str, value):
    """`obj` with the field at the dotted `path` replaced."""
    head, _, rest = path.partition(".")
    return replace(obj, **{head: _set(getattr(obj, head), rest, value) if rest else value})


def parse_run_config(doc: dict) -> TrainConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    ring = doc.get("ring", {})
    if not isinstance(ring, dict):
        raise ConfigError("config key 'ring' must be an object")
    keys = {k: v for k, v in doc.items() if k != "ring"}
    keys.update((f"ring.{k}", v) for k, v in ring.items())
    unknown = sorted({k for k in doc if "." in k} | {k for k in keys if k not in FIELDS})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    task = _typed("task", keys.get("task", TrainConfig.task))
    cfg = TrainConfig()
    for key, value in [*TASK_DEFAULTS.get(task, {}).items(), *keys.items()]:
        value = _typed(key, value)
        try:
            cfg = _set(cfg, FIELDS[key][0], value)
        except ValueError as exc:  # the dataclasses' range checks
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    return cfg


def load_run_config(path) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_run_config(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
