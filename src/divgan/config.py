"""Run configs: `TrainConfig` and its strict JSON document, the source of
truth for a run (flags only pick the command, paths and a seed override) and
what a checkpoint stores. `FIELDS` is the one table of keys: each names the
`TrainConfig` field it sets and its JSON type, checked exactly (a bool is not
a number, a float not an integer). A key the document leaves out keeps its
task's value in `TASK_DEFAULTS`, else the dataclass default.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace

from .data import MAX_SIZE, RingMixtureSpec, TrajectorySpec, check_labels
from .losses import ObjectiveConfig
from .optim import AdamHyper

__all__ = ["TASKS", "TrainConfig", "ConfigError", "FIELDS", "TASK_DEFAULTS",
           "parse_run_config", "to_document", "read_json", "unique_keys"]

TASKS = ("ring", "conditional_ring", "trajectory")


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
        if self.seed < 0:
            raise ValueError("TrainConfig: seed must be >= 0")
        if self.task == "conditional_ring":
            check_labels(self.ring, "TrainConfig")


# JSON key -> (field path, JSON type); floats take integers, type(None) is null
FIELDS = {
    "task": ("task", str),
    "z_dim": ("z_dim", int),
    "batch_size": ("batch_size", int),
    "steps": ("steps", int),
    "seed": ("seed", int),
    "eval_every": ("eval_every", int),
    "lambda": ("objective.diversity.weight", float),
    "tau": ("objective.diversity.tau", (float, type(None))),
    "norm": ("objective.diversity.norm", str),
    "space": ("objective.diversity.space", str),
    "beta": ("objective.beta", float),
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


def to_document(cfg: TrainConfig) -> dict:
    """The config document that `parse_run_config` reads back as cfg: every
    key in `FIELDS`, the ring's under "ring", and a tau of None as null.
    ValueError if cfg sets a field no key holds (a non-default trajectory
    spec), since the document could not say it."""
    doc = {}
    for key, (path, _) in FIELDS.items():
        value = cfg
        for name in path.split("."):
            value = getattr(value, name)
        head, _, sub = key.partition(".")
        if sub:
            doc.setdefault(head, {})[sub] = value
        else:
            doc[key] = value
    if parse_run_config(doc) != cfg:
        raise ValueError("to_document: the config sets a field no config key holds")
    return doc


def unique_keys(pairs) -> dict:
    """json's object_pairs_hook for config and checkpoint documents: the
    object as a dict, or ValueError naming a key it repeats, where json alone
    would keep the key's last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def read_json(path, what: str):
    """The JSON document in the UTF-8 file at `path`, read in text mode (so a
    JSON error position counts a CRLF as one character), or ConfigError
    naming `what`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique_keys)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{what} is not UTF-8: {exc}") from exc
        # a syntax error, a duplicate key, or a decoder limit: an integer
        # past sys.get_int_max_str_digits() or nesting past the recursion limit
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
