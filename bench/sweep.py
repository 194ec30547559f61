"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/sweep.py --seeds 1-10 [--seconds S] [--workloads a,b] [--trace]
                           [--out bench/results/BENCH_name.json]

`--seconds` defaults to `run_seconds` in BENCHMARK.json.

Each run is a separate `bench/run.py` process, one after another.  For every
workload and metric the summary gives the median, the quartiles (as
`statistics.quantiles(values, n=4)` computes them) and the spread, the
interquartile distance as a share of the median.  With `--out` the summary,
the bounds from BENCHMARK.json and every run's record are written as one
JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"record-{workload}-{seed}-t{int(trace)}.json"),
              encoding="utf-8") as f:
        record = json.load(f)
    return {"result": result, "record": record, "process_wall_s": wall}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    for name in names:
        runs[name] = [run_once(name, seed, seconds, args.trace) for seed in _seeds(args.seeds)]
        metrics = runs[name][0]["result"]["metrics"]
        summary[name] = {
            "correct": all(r["result"]["correct"] for r in runs[name]),
            "failed": sum(r["result"]["failed"] for r in runs[name]),
            "process_wall_s": summarise([r["process_wall_s"] for r in runs[name]]),
            "metrics": {k: {"unit": m["unit"], **summarise(
                [r["result"]["metrics"][k]["value"] for r in runs[name]])}
                for k, m in metrics.items()},
        }
        s = summary[name]
        print(f"{name}: correct={s['correct']} failed={s['failed']} "
              f"process wall median {s['process_wall_s']['median']:.1f}s", flush=True)
        for k, m in s["metrics"].items():
            if args.trace:
                continue
            bound = bounds.get(k)
            spread = m["spread"]
            flag = "" if bound is None or spread is None or spread < bound / 3 else "  <-- wide"
            print(f"  {k:14s} median {m['median']:.6g} {m['unit']}  "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g}  spread {spread:.4f}"
                  f"  bound {bound}{flag}", flush=True)

    if args.out:
        first = next(iter(runs.values()))[0]["record"]
        machine, sizes = first["machine"], first["sizes"]
        for name in runs:  # the same for every run, so stored once
            for r in runs[name]:
                del r["record"]["machine"], r["record"]["sizes"]
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"seconds": seconds, "seeds": _seeds(args.seeds), "trace": args.trace,
                       "machine": machine, "sizes": sizes,
                       "bounds": bounds, "summary": summary, "runs": runs},
                      f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
