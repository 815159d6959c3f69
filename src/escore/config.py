"""Run configuration: nested defaults, checked override tables, digests."""
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
from .nn import check_table, has_type_of


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


def _merge_checked(base: dict, update: dict, prefix: str = "") -> None:
    """Merges the table ``update`` into ``base`` key by key, storing copies, so
    ``base`` shares no table or list with ``update``; rejects a key ``base``
    lacks and a value nested too deep to copy."""
    for key, value in update.items():
        dotted = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key {dotted!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            _merge_checked(base[key], value, dotted + ".")
            continue
        try:
            base[key] = copy.deepcopy(value)
        except RecursionError:
            raise ConfigError(f"config key {dotted!r}: value nested too deep to copy") from None


# an integer value is a count (>= 1) but for these: key -> its least value, None for any
_LOWS = {"seed": None, "compare.seeds": None, "sweep.seeds": None,
         "train.warmup": 0, "mar_train.warmup": 0}
_DISTINCT = ("compare.seeds", "compare.multi_steps", "sweep.seeds")   # lists without repeats
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


def first_repeat(items: list):
    """The first item of ``items`` that an earlier one equals, or None."""
    return next((v for i, v in enumerate(items) if v in items[:i]), None)


def _check_lists(cfg: dict) -> None:
    """Seeds and step counts each name an item once, and the multi-step grid
    holds counts above the one step every head samples at."""
    for key in _DISTINCT:
        section, name = key.split(".")
        repeat = first_repeat(cfg[section][name])
        if repeat is not None:
            raise ConfigError(f"{key} lists {repeat!r} twice; each item must appear once")
    if 1 in cfg["compare"]["multi_steps"]:
        raise ConfigError("compare.multi_steps must hold step counts above 1 (every head "
                          f"samples at 1 step anyway), got {cfg['compare']['multi_steps']!r}")


def head_config_from(cfg: dict) -> HeadConfig:
    """The toy head of ``cfg["head"]``."""
    return HeadConfig(**_fields_of(cfg["head"], HEAD_KEYS))


def mar_config_from(cfg: dict) -> MarConfig:
    """The MAR model of ``cfg["mar"]``."""
    return MarConfig(**_fields_of(cfg["mar"], MAR_KEYS))


def decode_config_from(cfg: dict, seed: int, head: HeadConfig,
                       head_steps: int | None = None) -> DecodeConfig:
    """The decode ``cfg["decode"]`` asks of a model with ``head`` from ``seed``:
    unless given, one head step for an energy head, the chain length for others."""
    if head_steps is None:
        head_steps = 1 if head.kind == "energy" else head.t_diff
    return DecodeConfig(**_fields_of(cfg["decode"], DECODE_KEYS), seed=seed,
                        head_steps=head_steps)


def check_config(cfg: dict) -> None:
    """``cfg`` passes :func:`nn.check_table` against :data:`DEFAULTS` (the
    least integers of :data:`_LOWS` aside), every float of
    :data:`_FLOAT_RANGES` is finite and in range, no list of :data:`_DISTINCT`
    repeats an item, ``metrics.bandwidth`` is ``"median"`` or a number with a
    finite kernel factor, and the head, MAR and decode configs of ``cfg`` pass
    their dataclasses' rules (which raise their own ValueError)."""
    try:
        check_table(cfg, DEFAULTS, lows=_LOWS, skip=("metrics.bandwidth",))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    bandwidth = cfg["metrics"]["bandwidth"]
    if bandwidth != MEDIAN:
        if not has_type_of(bandwidth, 1.0):
            raise ConfigError("config key 'metrics.bandwidth' must be 'median' or a number, "
                              f"got {bandwidth!r}")
        try:
            kernel_factor(bandwidth)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"metrics.bandwidth: {exc}") from None
    _check_lists(cfg)
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
    head_config_from(cfg)
    decode_config_from(cfg, cfg["seed"], mar_config_from(cfg).head_config())


def nested(dotted: str, value) -> dict:
    """The table that sets the key ``dotted`` ('a.b') to ``value``: {'a': {'b': value}}."""
    for key in reversed(dotted.split(".")):
        value = {key: value}
    return value


def parse_override(text: str) -> dict:
    """The table of 'a.b=value', the value parsed as JSON, falling back to a string."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like key.path=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except ValueError as exc:   # an integer past int()'s digit limit
        raise ConfigError(f"override {key.strip()!r}: {exc}") from None
    except RecursionError:
        raise ConfigError(f"override {key.strip()!r}: value nested too deep to parse") from None
    return nested(key.strip(), value)


def overridden(cfg: dict, *tables: dict) -> dict:
    """A copy of ``cfg`` with ``tables`` merged over it in turn, then checked."""
    out = copy.deepcopy(cfg)
    for table in tables:
        _merge_checked(out, table)
    check_config(out)
    return out


def override_tables(overrides: list[str] | None = None,
                    config_file: str | None = None) -> list[dict]:
    """The tables that :func:`resolve_config` merges over the defaults, in
    turn: the ``config_file``'s, then each override's."""
    tables = []
    if config_file:
        try:
            loaded = json.loads(Path(config_file).read_bytes().decode("utf-8"))
        except (ValueError, RecursionError) as exc:   # not UTF-8, not JSON, nested too deep
            raise ConfigError(f"{config_file}: not a JSON config file: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"{config_file}: top level must be an object")
        tables.append(loaded)
    return tables + [parse_override(text) for text in overrides or []]


def resolve_config(overrides: list[str] | None = None,
                   config_file: str | None = None) -> dict:
    """Defaults <- file <- overrides, each a table merged in turn; unknown
    keys are rejected. The file over the defaults must be a config by
    itself, and an error in it names the file."""
    tables = override_tables(overrides, config_file)
    base = DEFAULTS
    if config_file:
        try:
            base = overridden(DEFAULTS, tables.pop(0))
        except (ValueError, RecursionError) as exc:   # a value too deep to print
            raise ConfigError(f"{config_file}: {exc}") from None
    return overridden(base, *tables)


def config_digest(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
