"""fnlswaves benchmark: seeded workloads, checked ops, end-to-end and per-layer metrics.

    python3 bench/run.py --workload solve-mix --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                     # every workload, tracing off

One closed-loop client in one process: each op starts when the previous
one has returned.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the same ops untraced and then traced, adds a fixed reference pass, and
prints the per-layer metrics.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("solve-mix", "evolve-long", "cli-pipeline")
SETUP_REPEATS = 3

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "solved_frac": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "spectral.fft_calls_per_base_iter": "count",
    "spectral.fft_bytes_per_op": "B_computed",
    "spectral.fft_calls_per_step": "count",
    "spectral.apply_multiplier_us_n4096": "us",
    "spectral.apply_multiplier_us_n16384": "us",
    "spectral.apply_multiplier_us_n65536": "us",
    "spectral.invariants_ms": "ms",
    "spectral.save_field_ms": "ms",
    "spectral.load_field_ms": "ms",
    "spectral.snapshot_bytes": "B",
    "petviashvili.step_ms": "ms",
    "petviashvili.steps_per_solve": "count",
    "petviashvili.diagnostics_ms": "ms",
    "petviashvili.diagnostics_per_solve": "count",
    "petviashvili.solve_self_ms": "ms",
    "petviashvili.probe_ms": "ms",
    "petviashvili.fft_per_step_call": "count",
    "petviashvili.fft_per_diagnostics_call": "count",
    "accel.base_iters_per_solve": "count",
    "accel.mpe_fallbacks_per_solve": "count",
    "accel.mpe_ms": "ms",
    "accel.mpe_calls_per_solve": "count",
    "accel.mpe_useful_ratio": "ratio",
    "accel.loop_self_ms": "ms",
    "accel.base_iters_mw1": "count",
    "accel.base_iters_mw3": "count",
    "accel.base_iters_mw4": "count",
    "accel.base_iters_mw6": "count",
    "evolve.step_midpoint_ms_n2048": "ms",
    "evolve.step_midpoint_ms_n8192": "ms",
    "evolve.run_self_ms_per_step": "ms",
    "evolve.invariants_share": "ratio",
    "evolve.fft_calls_per_step_fig2": "count",
    "analysis.scan_ms_w1": "ms",
    "analysis.scan_ms_w2": "ms",
    "analysis.scan_speedup_w2": "ratio",
    "analysis.decay_slope_ms": "ms",
    "analysis.phase_plane_ms": "ms",
    "cli.parse_config_ms": "ms",
    "cli.command_self_ms": "ms",
    "cli.bytes_written_per_command": "B",
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead_frac": "ratio",
    "trace.counter_mismatches": "count",
}

# Deterministic counters of the reference pass, as the seed commit counts
# them.  A run that counts differently, or differently on its two repeats,
# reports it in trace.counter_mismatches.
EXPECTED_COUNTERS = {
    "accel.base_iters_mw1": 42,
    "accel.base_iters_mw3": 30,
    "accel.base_iters_mw4": 22,
    "accel.base_iters_mw6": 18,
    "petviashvili.fft_per_step_call": 4,
    "petviashvili.fft_per_diagnostics_call": 2,
    "evolve.fft_calls_per_step_fig2": 23.16,
}


@dataclass
class Loop:
    """Outcome of a closed loop over a workload's ops."""

    latencies: list = field(default_factory=list)
    midpoints: list = field(default_factory=list)  # perf_counter time of each call
    outcomes: Counter = field(default_factory=Counter)
    wall: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def rate(self) -> float:
        return self.outcomes["pass"] / self.wall if self.wall > 0 else 0.0


def timed_loop(ops, seconds=None, count=None, tracer=None, probe=None) -> Loop:
    """Run ops back to back for ``seconds`` (or ``count`` ops).

    Only the calls are timed; the checks, and the speed-probe samples taken
    every CAL_EVERY seconds, run in between and their time is taken out of
    the wall clock.
    """
    loop = Loop()
    check_s = 0.0
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if count is not None and i >= count:
            break
        if seconds is not None and time.perf_counter() - start - check_s >= seconds:
            break
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as err:  # a raising op is a failed op; the run goes on
            result, error = None, err
        t1 = time.perf_counter()
        loop.latencies.append(t1 - t0)
        loop.midpoints.append(0.5 * (t0 + t1))
        if error is not None:
            outcome, detail = "fail", f"{type(error).__name__}: {error}"
        else:
            try:
                outcome, detail = op.check(result)
            except Exception as err:  # a check that cannot read the output fails the op
                outcome, detail = "fail", f"check raised {type(err).__name__}: {err}"
        loop.outcomes[outcome] += 1
        if outcome != "pass" and len(loop.notes) < 8:
            loop.notes.append(f"{outcome}: {op.label}: {detail}")
        if probe is not None and probe.due(t1):
            probe.sample()
        check_s += time.perf_counter() - t1
    if probe is not None:
        probe.sample()
    loop.wall = time.perf_counter() - start - check_s
    return loop


def import_package() -> None:
    """Import fnlswaves from src/, never from an installed copy."""
    # One client thread: keep OpenBLAS (MPE normal equations) from adding its own.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(SRC))
    import fnlswaves

    if Path(fnlswaves.__file__).resolve().parent != SRC / "fnlswaves":
        raise ImportError(f"fnlswaves imported from {fnlswaves.__file__}, not from {SRC}")
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))


def fresh_import_s(repeats: int = SETUP_REPEATS) -> float:
    """Median time to import fnlswaves (and numpy) in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import fnlswaves; print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                              capture_output=True, text=True, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def set_up(name: str, seed: int, workdir: str, tiny: bool):
    """Set the workload up SETUP_REPEATS times; return it and the median time."""
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.make(name, seed, workdir, tiny)
        wl.setup()
        wl.warmup()
        times.append(time.perf_counter() - t0)
    return wl, statistics.median(times)


def _percentile_ms(values, q) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1e3


def end_to_end(loop: Loop, setup_s: float, factors=None) -> dict:
    """End-to-end metrics; ``factors`` divide each op's time (speed correction)."""
    latencies = loop.latencies
    wall = loop.wall
    if factors is not None:
        latencies = [t / f for t, f in zip(latencies, factors)]
        wall *= sum(latencies) / sum(loop.latencies)
    return {
        "setup_s": setup_s,
        "ops_per_s": loop.outcomes["pass"] / wall,
        "op_p50_ms": _percentile_ms(latencies, 50),
        "op_p90_ms": _percentile_ms(latencies, 90),
        "solved_frac": loop.outcomes["pass"] / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _median_call_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_pass(workdir: str, tiny: bool):
    """Fixed inputs that reach every layer, whatever the workload.

    Returns (span tracer, metrics, failures); the metrics include those
    computed from the pass's own spans.  Counter solves run twice so that a
    counter that does not repeat exactly shows as a mismatch.
    """
    import numpy as np
    import workloads
    from fnlswaves import analysis, evolve
    from fnlswaves.params import ProblemParams, linear_phase_params
    from fnlswaves.spectral import ComplexField, Grid, apply_multiplier, m_symbol
    from tracing import Tracer, span_metrics

    wave = workloads.WAVE
    grid = Grid(l=64.0, n=4096)
    metrics, failures, mismatches = {}, [], 0
    with Tracer() as tr:
        for repeat in range(2):
            for mw in workloads.MWS:
                tr.op = f"ref:counters:mw{mw}"
                its = workloads.cold_solve(wave, grid, mw).iterations
                key = f"accel.base_iters_mw{mw}"
                if repeat and its != metrics[key]:
                    mismatches += 1
                metrics[key] = its

        evo = workloads.EvolveLong(0, tiny)
        evo.setup()
        ops = evo.ops()
        for k in range(len(workloads.EVOLVE_PATTERN)):
            op = next(ops)
            tr.op = f"ref:{op.label}"
            before = tr.fft_calls["evolve.run"] + tr.fft_calls["spectral.invariants"]
            outcome, detail = op.check(op.call())
            if k == 0:
                after = tr.fft_calls["evolve.run"] + tr.fft_calls["spectral.invariants"]
                metrics["evolve.fft_calls_per_step_fig2"] = (after - before) / workloads.SEGMENT_STEPS
            if outcome != "pass":
                failures.append(f"reference {op.label}: {detail}")

        pipe = workloads.CliPipeline(0, os.path.join(workdir, "reference-cli"), tiny)
        pipe.setup()
        ops = pipe.ops()
        for _ in workloads.CLI_COMMANDS:
            op = next(ops)
            tr.op = f"ref:cli:{op.label}"
            outcome, detail = op.check(op.call())
            if outcome != "pass":
                failures.append(f"reference cli {op.label}: {detail}")
        metrics["cli.bytes_written_per_command"] = statistics.mean(pipe.bytes_written or [0])

        scan_grid = Grid(l=32.0, n=512) if tiny else grid
        scan_base = ProblemParams(s=0.75, sigma=1.0, lambda1=1.0, lambda2=0.25)
        for workers in (1, 2):
            tr.op = f"ref:scan:w{workers}"
            metrics[f"analysis.scan_ms_w{workers}"] = 1e3 * _median_call_s(
                lambda: analysis.speed_amplitude_scan(
                    scan_base, workloads.FIG7_SPEEDS, scan_grid, workers=workers), 2)
        metrics["analysis.scan_speedup_w2"] = metrics["analysis.scan_ms_w1"] / metrics["analysis.scan_ms_w2"]

        tr.op = "ref:analysis"
        profile = workloads.cold_solve(wave, grid, 4).profile
        for _ in range(20):
            analysis.decay_slope(profile)
            analysis.phase_plane(profile)

    # micro-timings run with the tracer removed
    lp = linear_phase_params(wave)
    for n, l in ((4096, 64.0), (16384, 256.0), (65536, 256.0)):
        g = Grid(l=l, n=n)
        op = m_symbol(lp, g)
        f = ComplexField(g, np.exp(1j * lp.A * g.x) / np.cosh(g.x))
        metrics[f"spectral.apply_multiplier_us_n{n}"] = 1e6 * _median_call_s(
            lambda: apply_multiplier(op, f), max(10, 800000 // n))
    for case, u0 in zip(evo.cases, evo.starts):
        cfg = evolve.EvolveConfig(dt=workloads.DT, nl_tol=case.nl_tol)
        name = "n2048" if case.name == "fig2" else "n8192"
        metrics[f"evolve.step_midpoint_ms_{name}"] = 1e3 * _median_call_s(
            lambda: evolve.step_midpoint(u0, workloads.DT, wave, cfg), 10)

    metrics.update(span_metrics(tr, 1))
    if not tiny:
        mismatches += sum(1 for key, want in EXPECTED_COUNTERS.items() if metrics[key] != want)
    metrics["trace.counter_mismatches"] = mismatches
    return tr, metrics, failures


def traced_run(wl, seconds: float, workdir: str, tiny: bool):
    """Untraced then traced pass over the same ops, plus the reference pass."""
    from tracing import Tracer, span_metrics

    untraced = timed_loop(wl.ops(), seconds=seconds / 2.0)
    with Tracer() as tr:
        traced = timed_loop(wl.ops(), count=untraced.attempted, tracer=tr)
    wl_metrics = span_metrics(tr, traced.attempted)
    if hasattr(wl, "bytes_written") and wl.bytes_written:
        wl_metrics["cli.bytes_written_per_command"] = statistics.mean(wl.bytes_written)
    wl_metrics["trace.ops_per_s_untraced"] = untraced.rate()
    wl_metrics["trace.ops_per_s_traced"] = traced.rate()
    wl_metrics["trace.overhead_frac"] = traced.wall / untraced.wall - 1.0

    ref_tr, fallback, failures = reference_pass(workdir, tiny)

    metrics, source = {}, {}
    for name in LAYER_UNITS:
        value = wl_metrics.get(name)
        source[name] = "workload"
        if value is None:
            value, source[name] = fallback.get(name), "reference"
        if value is None:
            value, source[name] = 0.0, "no data"
        metrics[name] = value
    spans = {"workload": tr.dump(), "reference": ref_tr.dump(),
             "fft_calls": {"workload": dict(tr.fft_calls), "reference": dict(ref_tr.fft_calls)},
             "missing_targets": tr.missing}
    return untraced, traced, metrics, source, failures, spans


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    import_package()
    import calibration

    workdir = str(OUT_DIR / f"work-{os.getpid()}")
    raw = {}
    try:
        if not trace:
            kernel = calibration.EVOLVE if name == "evolve-long" else calibration.MIXED
            probe = calibration.SpeedProbe(kernel)
            setup_s = fresh_import_s()
            wl, setup_median = set_up(name, seed, workdir, tiny)
            setup_s += setup_median
            loop = timed_loop(wl.ops(), seconds=seconds, probe=probe)
            # set-up is corrected by the run's median slowdown: its own few
            # seconds hold too few probe samples to correct it locally
            factors = [probe.factor_at(t) for t in loop.midpoints]
            metrics = end_to_end(loop, setup_s / probe.factor(), factors)
            raw = end_to_end(loop, setup_s)
            raw["speed_factor"] = probe.factor()
            units, loops, failures, source = E2E_UNITS, [loop], [], {}
        else:
            wl, _ = set_up(name, seed, workdir, tiny)
            untraced, traced, metrics, source, failures, spans = traced_run(wl, seconds, workdir, tiny)
            units, loops = LAYER_UNITS, [untraced, traced]
            OUT_DIR.mkdir(exist_ok=True)
            with open(OUT_DIR / f"trace-{name}-seed{seed}.json", "w") as fh:
                json.dump(spans, fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = sum((lp.outcomes for lp in loops), Counter())
    failed = outcomes["fail"]
    return {
        "workload": name,
        "attempted": sum(lp.attempted for lp in loops),
        "failed": failed,
        "outcomes": dict(outcomes),
        "correct": failed == 0 and not failures,
        "samples": loops[0].attempted,
        "notes": [n for lp in loops for n in lp.notes] + failures,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "source": source,
        "raw": raw,
    }


def report_line(result: dict) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def print_human(result: dict) -> None:
    outcomes = result["outcomes"]
    attempted = result["attempted"]
    print(f"workload {result['workload']}: {attempted} ops attempted, "
          f"{outcomes.get('pass', 0)} passed, {outcomes.get('unsolved', 0)} unsolved, "
          f"{result['failed']} failed (fail_frac {result['failed'] / attempted:.4f})")
    for name, metric in result["metrics"].items():
        extra = ""
        if name.startswith("op_p"):
            extra = f"  (n={result['samples']})"
        elif name in result["source"]:
            extra = f"  [{result['source'][name]}]"
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}{extra}")
    if result["raw"]:
        print("  uncorrected: " + ", ".join(f"{k} {v:.6g}" for k, v in result["raw"].items()))
    for note in result["notes"]:
        print(f"  note: {note}")


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "fnlswaves" / "__init__.py").is_file():
        print(f"error: no fnlswaves package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_human(result)
    print(report_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
