"""Run one workload for a fixed time and compute its metrics.

Load is a closed loop: one client in one process runs operations back
to back until ``seconds`` have passed (at least one operation).  Every
operation gets an empty output directory (always at the same path), its
outputs are checked after its timer stops, and the directory is removed
again.

Times are scaled to the reference speed by the kernel timed beside each
operation and set-up (see calibrate.py); ``*_wall_s`` are the unscaled
medians.

Untraced run (``trace=False``):
  ``setup_s``        median over ``setup_repeats`` child processes of the
                     time from process start, through imports and input
                     generation, to ready;
  ``op_s``           median time of one operation;
  ``op_s.tail``      highest percentile with at least ten samples beyond;
  ``<step>_s``       median time of each CLI subcommand;
  ``peak_alloc_mb``  tracemalloc peak over one extra, untimed operation;
  ``kernel_s``       median wall time of the reference kernel;
  ``fail_frac``      failed operations / operations attempted.
Traced run (``trace=True``): half the time untraced, half with the
tracer installed; the per-layer metrics are medians over the traced
operations (wall time), and ``trace.overhead`` is traced over untraced
``op_s``, minus one.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import workloads
from calibrate import REFERENCE_S, kernel_seconds
from tracer import Tracer, median_layer_metrics

RUN_PY = Path(__file__).resolve().parent / "run.py"

UNITS = {"peak_alloc_mb": "MB", "fail_frac": "ratio", "trace.overhead": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("queries_per_s"):
        return "1/s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def tail(values: list[float]) -> tuple[float, int] | None:
    """The highest whole percentile that leaves at least ten samples
    above it (nearest rank), with that percentile; None below 20 samples."""
    n = len(values)
    pct = math.floor(100 * (1 - 10 / n)) if n else 0
    if pct < 50:
        return None
    rank = math.ceil(pct / 100 * n)
    while n - rank < 10:
        pct -= 1
        rank = math.ceil(pct / 100 * n)
    return sorted(values)[rank - 1], pct


def measure_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of the
    workload's set-up, in a child process."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        child.stdout.close()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child exited {code} without reporting ready")
    return elapsed


class Loop:
    """Operations of one workload, with their times and check results."""

    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []

    def operation(self, i: int, tracer=None, trace_alloc: bool = False):
        """Run and check operation ``i``; returns its step times with
        ``op_s`` (and, with ``trace_alloc``, the operation's tracemalloc
        peak as ``peak_alloc_mb``), or None when it failed: a failed
        operation may have stopped early, so its times stay out of the
        medians."""
        # the same path every time: report.json records the paths it used
        out = self.workdir / "op"
        out.mkdir(parents=True)
        self.attempted += 1
        gc.collect()
        if tracer is not None:
            tracer.op = i
        if trace_alloc:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            times, problems = self.workload.run(i, out)
            times["op_s"] = time.perf_counter() - start
            if trace_alloc:
                times["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        except Exception as exc:  # an operation that raises is a failure
            times, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        finally:
            if tracer is not None:
                tracer.op = None
            if trace_alloc:
                tracemalloc.stop()
        if not problems:
            try:
                problems = self.workload.check(i, out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        shutil.rmtree(out)
        if problems:
            self.failures.append(f"operation {i} (sub-seed "
                                 f"{self.workload.subseed(i)}): {'; '.join(problems)}")
            return None
        return times

    def timed(self, seconds: float, tracer=None) -> list[dict]:
        """Closed loop for ``seconds``; operation indices restart at 0.
        Each result also holds ``kernel_s``, the mean of the reference
        kernel's times just before and just after the operation."""
        results = []
        start = time.perf_counter()
        before = kernel_seconds()
        i = 0
        while True:
            times = self.operation(i, tracer)
            after = kernel_seconds()
            if times is not None:
                times["kernel_s"] = (before + after) / 2
                results.append(times)
            before = after
            i += 1
            if time.perf_counter() - start >= seconds:
                return results

    def peak_alloc_mb(self) -> float | None:
        """tracemalloc peak of one extra operation, checks excluded."""
        times = self.operation(0, trace_alloc=True)
        return None if times is None else times["peak_alloc_mb"]


def scaled(results: list[dict]) -> list[dict]:
    """Every time of each result at the reference speed (calibrate.py)."""
    return [{key: value * REFERENCE_S / r["kernel_s"]
             for key, value in r.items() if key != "kernel_s"} for r in results]


def _median(results, key):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else None


def measure_setups(name: str, seed: int, repeats: int) -> list[dict]:
    """Set-up times of ``repeats`` child processes, each with the mean
    time of the reference kernel around it."""
    results = []
    before = kernel_seconds()
    for _ in range(repeats):
        setup = measure_setup(name, seed)
        after = kernel_seconds()
        results.append({"setup_s": setup, "kernel_s": (before + after) / 2})
        before = after
    return results


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, spans_path: Path | None = None,
                 setup_repeats: int = 5) -> dict:
    """Run one workload; returns the result record (see module doc).
    A traced run writes its spans to ``spans_path`` as JSON lines."""
    workload = workloads.WORKLOADS[name](seed)
    setups = [] if trace else measure_setups(name, seed, setup_repeats)
    workload.setup()
    loop = Loop(workload, workdir)
    metrics: dict[str, float] = {}
    notes: dict = {}
    if trace:
        plain = loop.timed(seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = loop.timed(seconds / 2, tracer)
        finally:
            tracer.uninstall()
        if spans_path is not None:
            tracer.dump(spans_path)
        ops = sorted({span[4] for span in tracer.spans})
        metrics.update(median_layer_metrics(tracer.spans, ops))
        if traced and plain:
            metrics["trace.overhead"] = (_median(scaled(traced), "op_s")
                                         / _median(scaled(plain), "op_s") - 1)
        notes["traced_ops"] = len(traced)
        notes["untraced_ops"] = len(plain)
        results = plain + traced
    else:
        results = loop.timed(seconds)
        at_reference = scaled(results)
        metrics["setup_s"] = _median(scaled(setups), "setup_s")
        metrics["setup_wall_s"] = _median(setups, "setup_s")
        metrics["op_s"] = _median(at_reference, "op_s")
        metrics["op_wall_s"] = _median(results, "op_s")
        found = tail([r["op_s"] for r in at_reference])
        if found is not None:
            metrics["op_s.tail"], notes["op_s.tail_percentile"] = found
        for step in workload.steps:
            metrics[step] = _median(at_reference, step)
        metrics["peak_alloc_mb"] = loop.peak_alloc_mb()
        notes["op_samples"] = len(results)
    metrics["kernel_s"] = _median(results, "kernel_s")
    metrics["fail_frac"] = len(loop.failures) / loop.attempted
    if hasattr(workload, "reference_checked"):
        notes["reference_checked"] = workload.reference_checked
    return {
        "workload": name,
        "seed": seed,
        "inputs": workload.inputs(),
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures,
        "metrics": metrics,
        "notes": notes,
        "samples": {"setup": setups, "operations": results},
    }


def _openblas():
    """Version string and runtime thread count of the loaded OpenBLAS."""
    import ctypes

    import numpy as np

    info = {"version": None, "threads": None}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["version"] = f"{blas.get('name')} {blas.get('version')}"
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return info
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", "_64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    return info
    return info


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas["version"],
        "blas_threads": blas["threads"],
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu or platform.processor(),
    }
