"""fewtag benchmark: one workload per invocation, end-to-end or traced.

    python3 bench/run.py --workload source-train --seed 1 --seconds 20 --trace 0

Run from the repository root.  Inputs are generated from `--seed`; the
program is imported from `src/` of the same checkout.  The run is closed
loop, one client, in one process, with BLAS pinned to one thread:

  1. set-up (input generation, and for the decode workloads training the
     fixed source checkpoint in a child process, saving and reloading it)
     runs at least three times and until two seconds have passed;
     `setup_s` is the median;
  2. operation 0 runs once untimed as warm-up, and `peak_rss_mb` is read
     after it (on the decode workloads operation 0 has a fixed reference
     input, see `workloads._FromCheckpoint`);
  3. operations 1, 2, ... run back to back until `--seconds` have passed,
     each followed by a full garbage collection inside its timed interval,
     so the cost of freeing its (cyclic) autodiff graph is charged to it;
  4. with `--trace 1` each of them runs again under the tracer right after
     its untraced run, and the difference of the two wall times is the
     tracing overhead;
  5. operation 0 runs again, and its outputs must equal the warm-up's.

Standard output ends with one JSON line: `correct`, `attempted`, `failed`
and `metrics` (end-to-end metrics untraced, per-layer metrics traced).  A
record with the machine, numpy and BLAS build, per-operation times and the
check results is written to `bench/out/` and echoed to standard error.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set before numpy loads, in main(); the record reads the count back.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 1000

END_TO_END = {
    "tokens_per_s": "tokens/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import fewtag from this checkout's `src/`, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "fewtag", "__init__.py")):
        _fail(f"no fewtag package under {SRC}; run from a full checkout")
    sys.path[:0] = [SRC, HERE]
    import fewtag
    if os.path.dirname(os.path.abspath(fewtag.__file__)) != os.path.join(SRC, "fewtag"):
        _fail(f"imported fewtag from {fewtag.__file__}, not from {SRC}")


# -- run record ----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    import numpy as np
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the checkout, read from `.git` directly; "unknown" outside git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def machine_record() -> dict:
    import numpy as np
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        build = {}
    # the build host's directories say nothing about this run
    blas = {k: v for k, v in build.items() if "directory" not in k}
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
    }


# -- running -------------------------------------------------------------------


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def _attempt(wl, i: int):
    """Run operation i; an exception fails every unit it covers."""
    from workloads import OpResult
    try:
        return wl.op(i)
    except Exception:
        traceback.print_exc()
        return OpResult(attempted=wl.units_per_op, failed=wl.units_per_op)


def _timed(wl, i: int):
    t0 = time.perf_counter()
    res = _attempt(wl, i)
    gc.collect()
    return time.perf_counter() - t0, res


def _f1(results) -> float | None:
    """Pooled span micro-F1 over episodes, or the mean of per-run F1."""
    runs = [r.f1 for r in results if r.f1 is not None]
    if runs:
        return statistics.fmean(runs)
    counts = [r.span_counts for r in results if r.span_counts is not None]
    if not counts:
        return None
    tp, fp, fn = (sum(c[k] for c in counts) for k in range(3))
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None,
        out_dir: str | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns the result line and the run record."""
    import tracer as tracing
    from workloads import WORKLOADS, DecodeChecker, Sizes

    out_dir = out_dir or os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    wl = WORKLOADS[workload](seed, sizes or Sizes(), out_dir)
    problems: list[str] = []

    setup_times, digests = [], []
    while (len(setup_times) < SETUP_MIN_REPEATS
           or (sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPEATS)):
        gc.collect()
        t0 = time.perf_counter()
        digests.append(wl.setup())
        setup_times.append(time.perf_counter() - t0)
    if len(set(digests)) != 1:
        problems.append("set-up repeats produced different inputs or checkpoints")

    checker = DecodeChecker()
    checker.install()
    tracer = tracing.Tracer() if trace else None
    try:
        gc.collect()
        warm = _attempt(wl, 0)
        gc.collect()
        # Read here, not at the end: the peak over the timed operations is a
        # maximum over data-dependent fine-tuning lengths and varies by a
        # third from seed to seed on the decode workloads.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # With tracing, each operation runs untraced and then traced, so both
        # see the same phase of a machine whose speed drifts over seconds.
        timed, traced = [], []
        tracing_s = 0.0
        start = time.perf_counter()
        i = 1
        while not timed or time.perf_counter() - start - tracing_s < seconds:
            timed.append((i, *_timed(wl, i)))
            if trace:
                t0 = time.perf_counter()
                tracer.install()
                try:
                    traced.append(_timed(wl, i))
                finally:
                    tracer.uninstall()
                tracing_s += time.perf_counter() - t0
            i += 1
        untraced_wall = sum(dt for _, dt, _ in timed)
        repeat = _attempt(wl, 0)
    finally:
        checker.uninstall()
        wl.cleanup()

    results = [res for _, _, res in timed]
    for res in [warm, *results]:
        problems += res.problems
    problems += checker.problems
    if warm.failed == 0 and repeat.outputs != warm.outputs:
        problems.append(f"same-seed repeat of operation 0 differs: "
                        f"{repeat.outputs!r} vs {warm.outputs!r}")
    for (i, _, res), (_, traced_res) in zip(timed, traced):
        if traced_res.outputs != res.outputs:
            problems.append(f"operation {i} gives different outputs under the tracer")
    if wl.decodes and checker.checked == 0:
        problems.append("no decoded sentence reached the output check")
    ok_ops = [(dt, res) for _, dt, res in timed if res.failed == 0]
    if not ok_ops:
        problems.append("every timed operation failed")

    attempted = sum(res.attempted for res in results)
    failed = sum(res.failed for res in results)
    tokens = sum(res.tokens for _, res in ok_ops)
    op_times = [dt for _, dt, _ in timed]
    f1 = _f1(results)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "tokens_per_s": tokens / sum(dt for dt, _ in ok_ops) if ok_ops else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        values = tracer.metrics()
        values["inference.f1"] = f1 or 0.0
        traced_wall = sum(dt for dt, _ in traced)
        values["trace.overhead_s"] = traced_wall - untraced_wall
        units = tracing.PER_LAYER
    else:
        values, units = end_to_end, END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "machine": machine_record(), "sizes": asdict(wl.sizes),
        "unit": wl.unit, "units_per_op": wl.units_per_op,
        "end_to_end": end_to_end,
        "error_rate": failed / attempted if attempted else None,
        "f1": f1,
        "final_loss": warm.losses[-1] if warm.losses else None,
        "setup_times_s": setup_times,
        "op_times_s": op_times,
        "peak_rss_end_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_time_quartiles_s": _quartiles(op_times),
        "ops": len(timed),
        "decoded_sentences_checked": checker.checked,
        "problems": problems,
    }
    if trace:
        record["per_layer"] = values
        record["untraced_wall_s"] = untraced_wall
        record["traced_wall_s"] = traced_wall
        record["self_seconds"] = tracer.self_seconds()
        trace_path = os.path.join(out_dir, f"trace-{workload}-{seed}.jsonl")
        tracer.write(trace_path, {"workload": workload, "seed": seed})
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("source-train", "episode-eval", "lowres-decode", "gradcheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        _fail("--seconds must not be negative")
    if "numpy" in sys.modules:
        _fail("numpy was imported before the BLAS thread count was pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    _import_program()
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))

    name = f"record-{args.workload}-{args.seed}-t{args.trace}.json"
    with open(os.path.join(HERE, "out", name), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    for key, m in result["metrics"].items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']} x {record['unit']}, failed {result['failed']}, "
          f"f1 {record['f1']}, final_loss {record['final_loss']}")
    if record["problems"]:
        print("output check problems: " + "; ".join(record["problems"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
