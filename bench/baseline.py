"""Measure the benchmark over several seeds and record medians and quartiles.

    python3 bench/baseline.py --runs 10 --out bench/baseline.json

Each workload runs once per seed (1..runs) with tracing off, each run in its
own process, one after another; then once traced with seed 1.  The record
holds, per workload and end-to-end metric, the median, the first and third
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median; the traced values; and the machine the numbers were taken on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else None, "values": values}


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def machine() -> dict:
    import numpy

    model = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fft_backend": "pocketfft (numpy.fft built-in)",
        "blas_threads": "OPENBLAS_NUM_THREADS=1 (set by run.py)",
        "note": "shared host; CPU pinning and frequency control are unavailable, "
                "so timings are corrected by the speed probe in calibration.py",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", default=str(BENCH_DIR / "baseline.json"))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    record = {"run_seconds": seconds, "runs": args.runs, "machine": machine(), "workloads": {}}
    for name in names:
        results = [run_once(name, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        entry = {"correct": all(r["correct"] for r in results),
                 "attempted": [r["attempted"] for r in results],
                 "failed": [r["failed"] for r in results], "end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            entry["end_to_end"][metric["name"]] = {"unit": metric["unit"], **summarize(values)}
            s = entry["end_to_end"][metric["name"]]
            print(f"{name:13s} {metric['name']:12s} median {s['median']:.5g} "
                  f"iqr/median {s['iqr_share']:.4f} (bound {metric['bound']})", flush=True)
        traced = run_once(name, 1, seconds, 1)
        entry["traced_seed1"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][name] = entry
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
