"""Run configuration: nested defaults, dotted-key overrides, digests."""
from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import fields
from pathlib import Path

from .heads import HeadConfig
from .mar import DecodeConfig, MarConfig
from .metrics import MEDIAN, kernel_factor


class ConfigError(ValueError):
    """Unknown key or malformed override; message names the offender."""


def _key_map(cls, left_out: tuple[str, ...] = (), **renamed: str) -> dict[str, str]:
    """Config key -> field of the dataclass ``cls``, for every field not
    ``left_out``: each key is its field's name unless ``renamed`` gives it as
    ``key=field``."""
    keys = {field: key for key, field in renamed.items()}
    return {keys.get(f.name, f.name): f.name for f in fields(cls) if f.name not in left_out}


# the head, mar and decode sections, one key map each; their defaults are
# the dataclasses' field defaults
HEAD_KEYS = _key_map(HeadConfig, ("time_feat_dim",), method="kind", m="m_samples")
MAR_KEYS = _key_map(MarConfig, m="m_samples")
DECODE_KEYS = _key_map(DecodeConfig, ("seed", "head_steps"))


def _defaults_of(cls, keys: dict[str, str]) -> dict:
    defaults = {f.name: f.default for f in fields(cls)}
    return {key: defaults[name] for key, name in keys.items()}


def _fields_of(section: dict, keys: dict[str, str]) -> dict:
    return {name: section[key] for key, name in keys.items()}


DEFAULTS: dict = {
    "seed": 1,
    "data": {
        "noise_sigma": 0.03,
        "pool": 16384,
        "per_class": 384,
        "jitter": 0.02,
    },
    "head": _defaults_of(HeadConfig, HEAD_KEYS),
    "train": {
        "steps": 1400,
        "batch": 128,
        "lr": 1e-3,
        "warmup": 200,
        "weight_decay": 0.0,
    },
    "mar": _defaults_of(MarConfig, MAR_KEYS),
    "mar_train": {
        "steps": 700,
        "batch": 32,
        "lr": 1e-3,
        "warmup": 100,
        "weight_decay": 0.0,
        "lambda": 0.0,
        "frozen_backbone": False,
        "init_from_teacher": False,
    },
    "decode": {**_defaults_of(DecodeConfig, DECODE_KEYS), "n_seq": 48},
    "metrics": {
        "bandwidth": MEDIAN,
    },
    "compare": {
        "seeds": [1, 2, 3, 4, 5],
        "sample_n": 2048,
        "multi_steps": [4, 100],
        "steps_by_method": {
            "energy": 1400, "diffusion": 1400, "flow": 1400,
            "shortcut": 1700, "meanflow": 2100,
        },
    },
    "sweep": {
        "seeds": [1, 2, 3, 4, 5],
        "eval_per_class": 40,
    },
}


def _walk_assign(tree: dict, defaults: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node, ref = tree, defaults
    for key in parts[:-1]:
        if not isinstance(ref, dict) or key not in ref:
            raise ConfigError(f"unknown config key {dotted!r}")
        node = node.setdefault(key, {})
        ref = ref[key]
    leaf = parts[-1]
    if not isinstance(ref, dict) or leaf not in ref:
        raise ConfigError(f"unknown config key {dotted!r}")
    if isinstance(ref[leaf], dict) and not isinstance(value, dict):
        raise ConfigError(f"config key {dotted!r} expects a table")
    node[leaf] = value


def _merge_checked(base: dict, update: dict, prefix: str = "") -> None:
    for key, value in update.items():
        dotted = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key {dotted!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            _merge_checked(base[key], value, dotted + ".")
        else:
            base[key] = value


_KINDS = {bool: "true or false", int: "an integer", float: "a number",
          str: "a string", list: "a list"}
# an integer value is a count (>= 1) but for these
_ANY_INT = {"seed", "compare.seeds", "sweep.seeds"}
_NON_NEGATIVE = {"train.warmup", "mar_train.warmup"}
# float key -> (whether a finite value is in range, the range in words)
_FLOAT_RANGES = {
    "data.noise_sigma": (lambda v: v >= 0, ">= 0"),
    "data.jitter": (lambda v: v >= 0, ">= 0"),
    "train.lr": (lambda v: v > 0, "> 0"),
    "train.weight_decay": (lambda v: v >= 0, ">= 0"),
    "mar_train.lr": (lambda v: v > 0, "> 0"),
    "mar_train.weight_decay": (lambda v: v >= 0, ">= 0"),
    "mar_train.lambda": (lambda v: v >= 0, ">= 0"),
    "decode.cfg_scale": (lambda v: True, ""),
}


def _has_type_of(value, default) -> bool:
    """Whether ``value`` may stand where ``default`` does: the same type, an
    int for a float too, never a bool for a number, and for a list the type of
    its first item in every item."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_has_type_of(v, default[0]) for v in value)
    if isinstance(default, bool) or isinstance(value, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _below(value, default, low: int) -> bool:
    """Whether an integer ``value`` (or an item of an integer list) is below
    ``low``; the value has the type of its default."""
    if isinstance(default, list):
        return any(_below(v, default[0], low) for v in value)
    return type(default) is int and value < low


def _check_types(cfg: dict, defaults: dict, prefix: str = "") -> None:
    """Every value of ``cfg`` has the type of its default (``metrics.bandwidth``
    takes ``"median"`` or a number); a table has exactly its default's keys.
    An integer is >= 1, any integer for a seed, >= 0 for a warmup."""
    for key, default in defaults.items():
        dotted, value = prefix + key, cfg[key]
        if isinstance(default, dict):
            if not isinstance(value, dict) or set(value) != set(default):
                raise ConfigError(f"config key {dotted!r} expects a table with the keys "
                                  f"{sorted(default)}, got {value!r}")
            _check_types(value, default, dotted + ".")
        elif dotted == "metrics.bandwidth":
            if value != MEDIAN and not _has_type_of(value, 1.0):
                raise ConfigError(f"config key {dotted!r} must be 'median' or a number, "
                                  f"got {value!r}")
        elif not _has_type_of(value, default):
            raise ConfigError(f"config key {dotted!r} must be {_KINDS[type(default)]} "
                              f"like its default {default!r}, got {value!r}")
        elif dotted not in _ANY_INT:
            low = 0 if dotted in _NON_NEGATIVE else 1
            if _below(value, default, low):
                what = "integers" if isinstance(value, list) else "an integer"
                raise ConfigError(f"config key {dotted!r} must be {what} >= {low}, "
                                  f"got {value!r}")


def head_config_from(cfg: dict, kind: str | None = None) -> HeadConfig:
    """The toy head of ``cfg["head"]``, of ``kind`` or else ``head.method``."""
    h = _fields_of(cfg["head"], HEAD_KEYS)
    return HeadConfig(**{**h, "kind": kind or h["kind"]})


def mar_config_from(cfg: dict, head_kind: str | None = None) -> MarConfig:
    """The MAR model of ``cfg["mar"]``, its head of ``head_kind`` or else ``mar.head_kind``."""
    m_ = _fields_of(cfg["mar"], MAR_KEYS)
    return MarConfig(**{**m_, "head_kind": head_kind or m_["head_kind"]})


def decode_config_from(cfg: dict, seed: int, head: HeadConfig,
                       head_steps: int | None = None) -> DecodeConfig:
    """The decode ``cfg["decode"]`` asks of a model with ``head`` from ``seed``:
    unless given, one head step for an energy head, the chain length for others."""
    if head_steps is None:
        head_steps = 1 if head.kind == "energy" else head.t_diff
    return DecodeConfig(**_fields_of(cfg["decode"], DECODE_KEYS), seed=seed,
                        head_steps=head_steps)


def check_config(cfg: dict) -> None:
    """Every value of ``cfg`` has the type of its default, every float of
    :data:`_FLOAT_RANGES` is finite and in range, a numeric ``metrics.bandwidth``
    has a finite kernel factor, and the head, MAR and decode configs of ``cfg``
    pass their dataclasses' rules (which raise their own ValueError)."""
    _check_types(cfg, DEFAULTS)
    for key, (in_range, words) in _FLOAT_RANGES.items():
        section, name = key.split(".")
        value = cfg[section][name]
        try:
            finite = math.isfinite(value)
        except OverflowError:   # an integer past float range
            finite = False
        if not finite:
            raise ConfigError(f"{key} must be a finite number, got {value!r}")
        if not in_range(value):
            raise ConfigError(f"{key} must be a number {words}, got {value!r}")
    bandwidth = cfg["metrics"]["bandwidth"]
    if bandwidth != MEDIAN:
        try:
            kernel_factor(bandwidth)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"metrics.bandwidth: {exc}") from None
    head_config_from(cfg)
    decode_config_from(cfg, cfg["seed"], mar_config_from(cfg).head_config())


def parse_override(text: str) -> tuple[str, object]:
    """'a.b=value' with the value parsed as JSON, falling back to a string."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like key.path=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def resolve_config(overrides: list[str] | None = None,
                   config_file: str | None = None) -> dict:
    """Defaults <- file <- overrides, checked by :func:`check_config`;
    unknown keys are rejected."""
    cfg = copy.deepcopy(DEFAULTS)
    if config_file:
        try:
            loaded = json.loads(Path(config_file).read_bytes().decode("utf-8"))
        except ValueError as exc:   # not UTF-8, or not JSON
            raise ConfigError(f"{config_file}: not a JSON config file: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"{config_file}: top level must be an object")
        _merge_checked(cfg, loaded)
    for text in overrides or []:
        key, value = parse_override(text)
        _walk_assign(cfg, DEFAULTS, key, value)
    check_config(cfg)
    return cfg


def config_digest(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def write_run_config(out_dir, cfg: dict) -> str:
    """Persists the resolved config + digest into a run directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digest = config_digest(cfg)
    (out / "config.json").write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n")
    (out / "config.digest").write_text(digest + "\n")
    return digest
