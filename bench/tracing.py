"""Traced run: spans around each fnlswaves layer, recorded from outside.

``Tracer`` wraps functions at the names their callers look them up under.
``cli`` imports ``solve_scalar`` and ``evolve.run`` by value and ``evolve``
imports ``mass`` by value, so those are wrapped in the importing module as
well as where they are defined.  ``numpy.fft.fft``/``ifft`` get a counter
that charges each transform to the innermost open span.  Parent stacks are
thread-local, so the ``workers=2`` scan keeps one stack per worker.  Leaving
the ``with`` block restores every original.

Spans stay in memory; ``run.py`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from fnlswaves import accel, analysis, cli, evolve, petviashvili


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same thread, -1 if none
    op: object  # id of the benchmark op during which the span ran
    attrs: dict = field(default_factory=dict)


def _solve_attrs(args, kwargs, report) -> dict:
    rh = report.residual_history
    ends = report.cycle_ends
    return {
        "iterations": report.iterations,
        "fallbacks": report.mpe_fallbacks,
        "cycles": len(ends),
        # an extrapolant is useful when its residual beats the last base iterate's
        "useful": sum(1 for e in ends if rh[e] < rh[e - 1]),
    }


def _run_attrs(args, kwargs, report) -> dict:
    return {"steps": len(report.times) - 1}


def _file_attrs(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def targets() -> list:
    """(owner, attribute, span name or None for an FFT counter, attrs hook)."""
    solve = ("petviashvili.solve", _solve_attrs)
    PI = petviashvili.ProfileIteration
    out = [(np.fft, "fft", None, None), (np.fft, "ifft", None, None),
           (PI, "step", "petviashvili.step", None),
           (PI, "diagnostics", "petviashvili.diagnostics", None),
           (accel, "accelerated_iterate", "accel.loop", None),
           (accel, "mpe_extrapolate", "accel.mpe", None),
           (petviashvili, "save_field", "spectral.save_field", _file_attrs),
           (evolve, "save_field", "spectral.save_field", _file_attrs),
           (cli, "load_field", "spectral.load_field", _file_attrs),
           (cli, "parse_config", "cli.parse_config", None),
           (cli, "run_command", "cli.command", None),
           (cli, "main", "cli.main", None),
           (evolve, "run", "evolve.run", _run_attrs),
           (cli, "evolve_run", "evolve.run", _run_attrs)]
    for module in (petviashvili, analysis, cli):
        out += [(module, "solve_scalar", *solve), (module, "solve_coupled", *solve)]
    for module in (petviashvili, cli):
        out.append((module, "fixed_point_spectrum_probe", "petviashvili.probe", None))
    for name in ("mass", "momentum", "hamiltonian"):
        out.append((evolve, name, "spectral.invariants", None))
    for module in (analysis, cli):
        out += [(module, "speed_amplitude_scan", "analysis.scan", None),
                (module, "decay_slope", "analysis.decay_slope", None),
                (module, "phase_plane", "analysis.phase_plane", None)]
    return out


class Tracer:
    """Context manager that records spans and FFT counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.fft_calls: Counter = Counter()  # innermost span name -> calls
        self.fft_bytes: Counter = Counter()  # innermost span name -> 32*n per call
        self.op = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list = []
        self.missing: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def __enter__(self):
        for owner, attr, name, hook in targets():
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            wrapper = self._counted(original) if name is None else self._span(name, original, hook)
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _span(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = Span(name, start, end, parent, tracer.op)
            if hook is not None:
                tracer.spans[idx].attrs = hook(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            stack = tracer._stack()
            key = stack[-1][1] if stack else ""
            # complex128 in and out: 16 bytes each per point, computed, not measured
            nbytes = 32 * np.shape(a)[-1]
            with tracer._lock:
                tracer.fft_calls[key] += 1
                tracer.fft_bytes[key] += nbytes
            return fn(a, *args, **kwargs)

        return wrapper

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.op, s.attrs] for s in self.spans]


def _ratio(num, den):
    return num / den if den else None


def span_metrics(tr: Tracer, ops: int) -> dict:
    """Per-layer metrics from one tracer's spans; None where it saw no data.

    Times are self times (span minus its child spans in the same thread),
    as means per call unless the name says otherwise.
    """
    child = [0.0] * len(tr.spans)
    for sp in tr.spans:
        if sp.parent >= 0:
            child[sp.parent] += sp.end - sp.start
    count, total, self_t = Counter(), defaultdict(float), defaultdict(float)
    for i, sp in enumerate(tr.spans):
        count[sp.name] += 1
        total[sp.name] += sp.end - sp.start
        self_t[sp.name] += sp.end - sp.start - child[i]

    def mean_self_ms(name):
        return _ratio(1e3 * self_t[name], count[name])

    solves = [sp.attrs for sp in tr.spans if sp.name == "petviashvili.solve" and sp.attrs]
    n_solves = len(solves)
    steps = sum(sp.attrs.get("steps", 0) for sp in tr.spans if sp.name == "evolve.run")
    saves = [sp.attrs["bytes"] for sp in tr.spans if sp.name == "spectral.save_field" and sp.attrs]
    fft_step = _ratio(tr.fft_calls["petviashvili.step"], count["petviashvili.step"])
    fft_diag = _ratio(tr.fft_calls["petviashvili.diagnostics"], count["petviashvili.diagnostics"])
    evolve_ffts = tr.fft_calls["evolve.run"] + tr.fft_calls["spectral.invariants"]
    return {
        "spectral.fft_calls_per_base_iter": None if fft_step is None or fft_diag is None else fft_step + fft_diag,
        "spectral.fft_bytes_per_op": _ratio(sum(tr.fft_bytes.values()), ops),
        "spectral.fft_calls_per_step": _ratio(evolve_ffts, steps),
        "spectral.invariants_ms": _ratio(1e3 * self_t["spectral.invariants"], steps),
        "spectral.save_field_ms": mean_self_ms("spectral.save_field"),
        "spectral.load_field_ms": mean_self_ms("spectral.load_field"),
        "spectral.snapshot_bytes": _ratio(sum(saves), len(saves)),
        "petviashvili.step_ms": mean_self_ms("petviashvili.step"),
        "petviashvili.steps_per_solve": _ratio(count["petviashvili.step"], n_solves),
        "petviashvili.diagnostics_ms": mean_self_ms("petviashvili.diagnostics"),
        "petviashvili.diagnostics_per_solve": _ratio(count["petviashvili.diagnostics"], n_solves),
        "petviashvili.solve_self_ms": mean_self_ms("petviashvili.solve"),
        "petviashvili.probe_ms": mean_self_ms("petviashvili.probe"),
        "petviashvili.fft_per_step_call": fft_step,
        "petviashvili.fft_per_diagnostics_call": fft_diag,
        "accel.base_iters_per_solve": _ratio(sum(a["iterations"] for a in solves), n_solves),
        "accel.mpe_fallbacks_per_solve": _ratio(sum(a["fallbacks"] for a in solves), n_solves),
        "accel.mpe_ms": mean_self_ms("accel.mpe"),
        "accel.mpe_calls_per_solve": _ratio(count["accel.mpe"], n_solves),
        "accel.mpe_useful_ratio": _ratio(sum(a["useful"] for a in solves), sum(a["cycles"] for a in solves)),
        "accel.loop_self_ms": mean_self_ms("accel.loop"),
        "evolve.run_self_ms_per_step": _ratio(1e3 * self_t["evolve.run"], steps),
        "evolve.invariants_share": _ratio(total["spectral.invariants"], total["evolve.run"]),
        "analysis.decay_slope_ms": mean_self_ms("analysis.decay_slope"),
        "analysis.phase_plane_ms": mean_self_ms("analysis.phase_plane"),
        "cli.parse_config_ms": mean_self_ms("cli.parse_config"),
        "cli.command_self_ms": mean_self_ms("cli.command"),
    }
