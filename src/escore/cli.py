"""Command-line front end.

Verbs: train-head, sample, eval, compare-swissroll, train-mar, decode,
sweep, gradcheck. Exit codes: 0 success, 1 usage/config error, 2
runtime/numeric failure or a model too large for memory. ESCORE_THREADS
caps the sweep worker pool; results are independent of it, and a value
that is not an integer >= 1 is a usage error. Under glibc, ``main`` keeps
freed buffers in the heap (see ``retain_freed_memory``) unless the
allocator is tuned through the environment.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys

from . import experiments, metrics, verify
from .config import DEFAULTS, ConfigError, override_tables, resolve_config
from .heads import HEAD_KINDS

USAGE_EXIT = 1
RUNTIME_EXIT = 2

# mallopt parameters of glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MALLOC_ENV = ("GLIBC_TUNABLES", "MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_")


@functools.cache
def retain_freed_memory() -> bool:
    """Keeps freed buffers in the heap for reuse; True when applied.

    glibc gives each buffer above 128 KiB its own mmap and trims the heap top
    back to the kernel on free, so every training step faults its numpy
    temporaries in afresh: about 10,000 page faults per toy step, 40 % of a
    train-head call spent in the kernel at a cost that swings with the load
    on the host. Fixed thresholds (mmap only above 32 MiB, the largest glibc
    accepts; trim only above 256 MiB) keep those pages mapped. Peak RSS, set
    by the largest live working set, does not grow. Values are unaffected.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (ValueError, OSError):
        glibc = None
    if not glibc or any(var in os.environ for var in _MALLOC_ENV):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    applied = [mallopt(_M_MMAP_THRESHOLD, 32 << 20), mallopt(_M_TRIM_THRESHOLD, 256 << 20)]
    return all(applied)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.prog + ": error: " + message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _number_or(word: str, value, number=float):
    """Argument type: ``value`` for the text ``word``, else a parsed number."""
    def parse(text: str):
        try:
            return value if text == word else number(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be {word!r} or {number.__name__}, got {text!r}") from None
    return parse


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _bandwidth(text: str):
    """Argument type of ``eval --bandwidth``: 'median' or a finite number > 0
    whose kernel factor -0.5 / bandwidth**2 is finite."""
    value = _number_or("median", "median")(text)
    if value != "median":
        try:
            metrics.kernel_factor(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be 'median' or a finite number > 0 with a finite "
                f"-0.5 / bandwidth**2, got {text!r}") from None
    return value


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file merged over defaults")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY.PATH=VALUE",
                   help="dotted-key config override; a table merges as in --config")


def _build_parser() -> _Parser:
    parser = _Parser(prog="escore", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("train-head", help="train one sampling head on a 2-D toy")
    p.add_argument("--method", required=True, choices=HEAD_KINDS)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    _add_config_flags(p)

    p = sub.add_parser("sample", help="draw points from a trained head")
    p.add_argument("--run", help="run directory containing head.ckpt")
    p.add_argument("--ckpt", help="explicit checkpoint path")
    p.add_argument("--steps", type=_positive_int, default=1)
    p.add_argument("--n", type=_positive_int, default=2048)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output samples CSV")
    p.add_argument("--svg", help="optional scatter plot path")

    p = sub.add_parser("eval", help="score generated points against a reference")
    p.add_argument("--generated", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", required=True, help="metrics CSV (appended)")
    p.add_argument("--method", default="unknown")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bandwidth", type=_bandwidth, default="median")
    p.add_argument("--metrics", default="mmd,wsd,energy",
                   help="comma list from {mmd,wsd,energy}")

    p = sub.add_parser("compare-swissroll",
                       help="train all five heads and compare one-step sampling")
    p.add_argument("--out", required=True)
    _add_config_flags(p)

    p = sub.add_parser("train-mar", help="train a masked autoregressive model")
    p.add_argument("--role", required=True, choices=["teacher", "student"])
    p.add_argument("--teacher", help="teacher checkpoint (required for lambda > 0)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    _add_config_flags(p)

    p = sub.add_parser("decode", help="iterative parallel decoding from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--class", dest="class_id", type=_number_or("null", None, int),
                   default="0", help="class id, or 'null' for unconditional")
    p.add_argument("--iterations", type=_positive_int)
    p.add_argument("--cfg", dest="cfg_scale", type=_finite_float)
    p.add_argument("--schedule", choices=["cosine", "uniform"])
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--seed", type=int)
    p.add_argument("--head-steps", type=_positive_int, dest="head_steps",
                   help="per-position sampling steps (non-energy heads; "
                        "defaults to 1 for energy, the chain length otherwise)")
    p.add_argument("--out", required=True)
    _add_config_flags(p)

    p = sub.add_parser("sweep", help="grid sweep over lambda | cfg | m | wiring")
    p.add_argument("--param", required=True, choices=list(experiments.SWEEP_PARAMS))
    p.add_argument("--values", required=True, help="comma-separated grid values")
    p.add_argument("--out", required=True)
    _add_config_flags(p)

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--points", type=_positive_int, default=verify.N_POINTS)
    return parser


def _resolved(args, **flags) -> dict:
    """The config of ``--config`` and ``--set``, then of ``--seed`` and the given
    ``flags`` (config key -> flag value, None when not given) as overrides."""
    flags["seed"] = getattr(args, "seed", None)
    given = [f"{key}={json.dumps(value)}" for key, value in flags.items() if value is not None]
    return resolve_config(args.overrides + given, args.config)


def _parse_values(param: str, text: str) -> list:
    items = [v.strip() for v in text.split(",") if v.strip()]
    number = {"lambda": float, "cfg": float, "m": int}.get(param)
    if number is not None:
        try:
            return [number(v) for v in items]
        except ValueError:
            raise ConfigError(f"--values for --param {param} must be "
                              f"{number.__name__}s, got {text!r}") from None
    return items


def _dispatch(args) -> int:
    if args.verb == "train-head":
        cfg = _resolved(args, **{"head.method": args.method})
        ckpt = experiments.run_train_head(cfg, args.out)
        print(f"checkpoint written: {ckpt}")
        return 0

    if args.verb == "sample":
        if not args.ckpt and not args.run:
            raise ConfigError("sample needs --run or --ckpt")
        ckpt = args.ckpt or f"{args.run}/head.ckpt"
        experiments.run_sample(ckpt, args.steps, args.n, args.seed, args.out,
                               DEFAULTS["data"]["noise_sigma"], svg_path=args.svg)
        print(f"samples written: {args.out}")
        return 0

    if args.verb == "eval":
        names = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
        report = experiments.run_eval(args.generated, args.reference, args.out,
                                      args.method, args.steps, args.seed,
                                      args.bandwidth, names)
        shown = {"mmd": report.mmd, "wsd": report.wsd, "energy_v": report.energy_v}
        print(" ".join(f"{k}={v!r}" for k, v in shown.items() if v is not None))
        return 0

    if args.verb == "compare-swissroll":
        path = experiments.run_compare(_resolved(args), args.out)
        print(f"metrics written: {path}")
        return 0

    if args.verb == "train-mar":
        ckpt = experiments.run_train_mar(_resolved(args), args.out, args.role, args.teacher,
                                         override_tables(args.overrides, args.config))
        print(f"checkpoint written: {ckpt}")
        return 0

    if args.verb == "decode":
        cfg = _resolved(args, **{"decode.iterations": args.iterations,
                                 "decode.cfg_scale": args.cfg_scale,
                                 "decode.schedule": args.schedule, "decode.n_seq": args.n})
        path = experiments.run_decode(cfg, args.ckpt, args.class_id, args.out,
                                      head_steps=args.head_steps)
        print(f"sequences written: {path}")
        return 0

    if args.verb == "sweep":
        cfg = _resolved(args)
        values = _parse_values(args.param, args.values)
        path = experiments.run_sweep(cfg, args.out, args.param, values)
        print(f"sweep written: {path}")
        return 0

    if args.verb == "gradcheck":
        results = verify.run_suite(n_points=args.points)
        print(verify.format_table(results))
        if all(r.passed for r in results):
            print("gradcheck: all checks passed")
            return 0
        print("gradcheck: FAILURES detected", file=sys.stderr)
        return RUNTIME_EXIT

    raise ConfigError(f"unknown verb {args.verb!r}")


def main(argv=None) -> int:
    retain_freed_memory()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return USAGE_EXIT
        return 0 if not exc.code else USAGE_EXIT
    try:
        experiments.worker_count()   # a bad ESCORE_THREADS fails every verb, not just sweeps
        return _dispatch(args)
    except (ConfigError, ValueError, OSError) as exc:   # OSError: a file that cannot be read
        print(f"escore: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    # graph.NonFiniteError is a FloatingPointError; a model too large to build, a MemoryError
    except (FloatingPointError, RuntimeError, MemoryError) as exc:
        print(f"escore: runtime failure: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
