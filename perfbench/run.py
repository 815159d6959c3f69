"""Benchmark entry point for escore.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It imports escore from ``src/`` of that
checkout and exits with code 2, printing no result, when that is missing.
With ``--trace 0`` it measures the workload untraced and reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it alternates
untraced and traced cycles and reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything the run writes goes
under ``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3


class BenchmarkError(RuntimeError):
    """The run cannot produce its metrics."""


def prepare() -> float:
    """Pins BLAS threads and imports escore from the checkout; returns the
    import time in seconds.  Must run before numpy is imported."""
    start = time.perf_counter()
    if not (ROOT / "src" / "escore" / "__init__.py").is_file():
        raise BenchmarkError(f"no escore sources under {ROOT / 'src'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        raise BenchmarkError(f"no BENCHMARK.json in {ROOT}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    os.environ.pop("ESCORE_THREADS", None)   # the sweep pool stays serial
    sys.path.insert(0, str(ROOT / "src"))
    import escore
    import workloads  # noqa: F401  (numpy, scipy and every escore layer)
    if Path(escore.__file__).resolve().parent != ROOT / "src" / "escore":
        raise BenchmarkError(f"escore imported from {escore.__file__}, not {ROOT / 'src'}")
    return time.perf_counter() - start


def _runtime_blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS reports, read through its own API."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def fingerprint(seed: int) -> dict:
    import numpy
    import scipy

    def blas(config) -> str:
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    try:
        runtime = _runtime_blas_threads()
    except OSError:
        runtime = {}
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy.show_config), "scipy_blas": blas(scipy.show_config),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "blas_threads_runtime": runtime,
            "escore_threads": os.environ.get("ESCORE_THREADS"), "seed": seed}


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run(name: str, seed: int, seconds: float, trace: bool, import_s: float,
        sizes=None) -> dict:
    """One benchmark run; returns the result with every declared metric."""
    import workloads as W
    from tracing import Tracer

    wl = W.WORKLOADS[name]
    session = W.Session(seed, sizes or W.FULL)
    work = OUT / f"work-{name}-seed{seed}-{os.getpid()}"
    W.clear(work)
    try:
        setup_walls = []
        for k in range(1 if trace else SETUP_REPEATS):
            start = time.perf_counter()
            state_k = wl.setup(session, work / f"setup{k}")
            setup_walls.append(time.perf_counter() - start)
            if k == 0:
                state = state_k
            else:
                session.check("set-up is byte-identical when repeated",
                              lambda: W.same_tree(work / "setup0", work / f"setup{k}"))
                W.clear(work / f"setup{k}")
        if session.failed:
            raise BenchmarkError("set-up failed")

        cycles, tracers = [], []
        start, k = time.perf_counter(), 0
        while True:
            tracer = Tracer() if trace and k % 2 else None
            if tracer is not None:
                tracer.install()
                session.tracer = tracer
            try:
                cyc = wl.cycle(session, state, work / f"cycle{k}", k)
            finally:
                if tracer is not None:
                    tracer.uninstall()
                    session.tracer = None
            if cycles and wl.repeats:
                session.check(f"cycle {k} reproduces the outputs of cycle 0",
                              lambda: cyc.quality == cycles[0].quality)
            if tracer is not None:
                check_counters(session, tracer, cyc)
                tracers.append((tracer, cyc))
            elif cyc.ok:
                cycles.append(cyc)
            W.clear(work / f"cycle{k}")
            k += 1
            # a traced run needs an untraced cycle after the cold first one
            enough = cycles and (not trace or (tracers and len(cycles) >= 2))
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (enough or elapsed >= 2 * seconds + 60):
                break
        if not enough:
            raise BenchmarkError("too few cycles completed without a failed verb")

        detail = {"setup_s": import_s + median(setup_walls),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  **wl.summary(cycles)}
        detail["fail_ratio"] = session.failed / session.attempted
        curve = None
        if trace:
            metrics = tracers[0][0].layer_metrics()
            metrics["trace.overhead_ratio"] = (median(c.wall() for _, c in tracers)
                                               / median(c.wall() for c in cycles[1:]))
            if wl.curve is not None:
                curve = wl.curve(session, state, cycles, work / "curve")
        else:
            metrics = dict(detail)
            metrics.update(zip(W.GATED, (detail[n] for n in wl.gated)))
    finally:
        os.sched_setaffinity(0, session.cpus)
        W.clear(work)

    missing = [m["name"] for m in declared_metrics(trace) if m["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"metrics not produced: {missing}")
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in declared_metrics(trace)}}
    record = {"workload": name, "trace": int(trace), "seconds": seconds,
              "fingerprint": fingerprint(seed), "cycles": len(cycles),
              "traced_cycles": len(tracers), "detail": detail, "curve": curve,
              "timed_calls": [c.timed for c in cycles],
              "failures": session.failures, "result": result}
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    if tracers:
        with open(OUT / f"spans-{name}-seed{seed}.jsonl", "w") as fh:
            for cycle_index, (tracer, _) in enumerate(tracers):
                for span in tracer.spans:
                    fh.write(json.dumps([cycle_index] + span) + "\n")
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    return result


def check_counters(session, tracer, cyc) -> None:
    """Traced counts against the program's own counters."""
    metrics = tracer.layer_metrics()
    session.check("traced head rows = sum of Head.forward_rows",
                  lambda: metrics["heads.forward_rows"]
                  == tracer.instance_counter("heads.Head", "forward_rows"))
    session.check("traced represent calls = sum of MarModel.backbone_forwards",
                  lambda: metrics["mar.represent.calls"]
                  == tracer.instance_counter("mar.MarModel", "backbone_forwards"))
    session.check("traced decode head rows = head_rows of decode_stats.json",
                  lambda: metrics["mar.decode.head_rows"] == cyc.decode_head_rows)


def report(record: dict) -> None:
    """Human-readable lines; the JSON result line comes after them."""
    import workloads as W
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    for name, value in record["detail"].items():
        unit, better = W.DETAIL_UNITS[name]
        print(f"metric {name} = {value:.6g} {unit} ({better} is better)")
    for point in record["curve"] or []:
        print("curve " + json.dumps(point, sort_keys=True))
    print(f"checks: {record['result']['attempted']} attempted, "
          f"{record['result']['failed']} failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_s = prepare()
        import workloads
        if args.workload not in workloads.WORKLOADS:
            raise BenchmarkError(f"unknown workload {args.workload!r}; "
                                 f"known: {sorted(workloads.WORKLOADS)}")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    except BenchmarkError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
