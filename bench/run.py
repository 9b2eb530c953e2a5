#!/usr/bin/env python3
"""hillgreen benchmark: four seeded closed-loop workloads through the public API.

Usage, from the repository root:

    python3 bench/run.py --workload spectra --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload kernels --seed 1 --trace 1
    python3 bench/run.py --workload bvp --seed 1 --smoke

Workloads (see ``workloads.py``): ``spectra`` (find_eigenvalues, all six
conditions), ``kernels`` (verify_all, build_green, verify_dominance at
n = 300), ``bvp`` (solve_bvp, off-grid u and u', solution comparison) and
``sweep`` (discriminant_samples over thousands of lambdas).

One client runs the tasks in a closed loop: each task starts when the
previous one has returned and been checked.  ``hillgreen.clear_cache()``
runs before every task, so no task is timed on cache entries left by an
earlier one, as in a fresh CLI call.

Tasks come in rounds of a fixed mix (``workloads.py``).  ``--trace 0``
runs round(seconds / nominal round time) rounds, about ``--seconds`` of
work on the reference box, and prints the end-to-end metrics; the number of
tasks depends on ``--seconds`` only, so seeds and commits are compared on the
same work.  ``--trace 1`` runs one round twice in one interpreter, first
untraced and then under the outside-in tracer (``tracer.py``), prints the
per-layer metrics and the tracing overhead, and writes the spans to
``bench/out/``.  ``--smoke`` shrinks every workload to a few small tasks.

Times are calibrated (see ``_calibrate``): each task's latency is scaled
by a reference loop timed just before and after it, so a slower phase of a
shared host does not read as a slower library.  The report also carries the
raw wall-clock figures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a JSON report with every metric, the failures and the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("spectra", "kernels", "bvp", "sweep")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170

# End-to-end metrics, with units; the first five are also the final line's metrics.
E2E = (("tasks_per_s", "1/s"), ("task_p50_ms", "ms"), ("task_tail_ms", "ms"),
       ("peak_rss_mb", "MB"), ("setup_s", "s"), ("fail_ratio", "ratio"), ("max_err", "abs"))
E2E_FINAL = ("tasks_per_s", "task_p50_ms", "task_tail_ms", "peak_rss_mb", "setup_s")


def _import_library():
    """Import hillgreen from this checkout's src/, never from site-packages."""
    sys.path.insert(0, str(SRC))
    import hillgreen
    origin = Path(hillgreen.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"hillgreen imported from {origin}, not from {SRC}")
    return hillgreen


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- set-up -----------------------------------------------------------------------

def _setup_probe(args) -> int:
    """Child process: import, build the workload, one warm-up task; print the time."""
    t0 = time.perf_counter()
    hg = _import_library()
    import workloads
    tasks = workloads.build(args.workload, args.seed, smoke=args.smoke)
    hg.clear_cache()
    tasks[0].call()
    wall = time.perf_counter() - t0
    cal = _calibrate()
    print(json.dumps({"wall": wall, "calibrated": wall * CAL_REF_S / cal}))
    return 0


def _setup_samples(args, repeats: int) -> list[dict]:
    """Set-up time, wall and calibrated, in ``repeats`` fresh interpreters in turn."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# -- environment ------------------------------------------------------------------

def _git_sha() -> str:
    """HEAD of the checkout if it is a git work tree; read directly, no parent search."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None when unknown."""
    import ctypes

    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    import numpy
    import scipy
    threads = os.environ.get("HILLGREEN_THREADS")
    if threads is not None:
        print(f"warning: HILLGREEN_THREADS={threads!r} is set; verify_all prebuilds "
              "kernels on a thread pool", file=sys.stderr)
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS") if k in os.environ},
        "HILLGREEN_THREADS": threads,
    }


# -- running tasks ----------------------------------------------------------------

# Typical seconds ``_calibrate`` takes on the reference box (Intel Xeon at
# 2.1 GHz, 2 vCPUs, shared host).  Only scales the calibrated times.
CAL_REF_S = 4.5e-3


def _calibrate() -> float:
    """Best of two timings of a fixed mix of interpreted float arithmetic,
    small numpy operations, 301 x 301 table algebra and one pass over 8 MB
    arrays, the kinds of work the library does per integration step and per
    kernel table.

    The shared host changes this box's speed by 20 to 50 percent over tens
    of seconds.  Every task is bracketed by two calibrations, and its
    calibrated latency is latency * CAL_REF_S / (mean calibration): the
    time the task would have taken at the reference speed.  A change to the
    library moves the calibrated time; a slower phase of the host does not.
    """
    import numpy as np
    big = np.linspace(0.0, 1.0, 1 << 20)
    out = np.empty_like(big)
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(10000):
            s += i * 0.5
        a = np.arange(64.0)
        for _ in range(150):
            a = a * 1.0000001 + np.sin(a[0])
        u = np.linspace(0.0, 1.0, 301)
        for _ in range(2):
            table = np.outer(u, u)
            np.where(u[None, :] <= u[:, None], table, table.T).max()
        np.multiply(big, 1.0000001, out=out)
        np.add(out, big, out=out)
        best = min(best, time.perf_counter() - t0)
    return best


class Tally:
    """Latencies and verdicts of the tasks of one pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.calibrated: list[float] = []
        self.calibrations: list[tuple[float, float]] = []
        self.failed = 0
        self.max_err = 0.0
        self.failures: list[dict] = []
        self.observations: dict[str, int] = {}

    def run(self, hg, task, tracer=None, index: int = 0) -> None:
        gc.collect()
        before = _calibrate()
        hg.clear_cache()
        if tracer is None:
            t0 = time.perf_counter()
            try:
                result, exc = task.call(), None
            except Exception as e:  # any raise is a failed task, recorded below
                result, exc = None, e
            dt = time.perf_counter() - t0
        else:
            with tracer.task(index, task.label) as span:
                try:
                    result, exc = task.call(), None
                except Exception as e:
                    result, exc = None, e
            dt = span.duration
        self.latencies.append(dt)
        after = _calibrate()
        self.calibrations.append((before, after))
        self.calibrated.append(dt * CAL_REF_S / (0.5 * (before + after)))
        if exc is not None:
            self._fail(task, ["raised " + "".join(
                traceback.format_exception_only(type(exc), exc)).strip()])
            traceback.print_exception(exc, file=sys.stderr)
            return
        outcome = task.check(result)
        self.max_err = max(self.max_err, outcome.err)
        for key in outcome.observations:
            self.observations[key] = self.observations.get(key, 0) + 1
        if outcome.failed:
            self._fail(task, outcome.notes)

    def _fail(self, task, notes) -> None:
        self.failed += 1
        if len(self.failures) < 50:
            self.failures.append({"task": task.label, "notes": notes[:5]})
        print(f"task failed: {task.label}: {'; '.join(notes[:5])}", file=sys.stderr)


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, latency) at the highest percentile with at least 10 tasks beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    pct = math.floor(100.0 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return float(pct), xs[rank - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _prepare(hg, workloads, args, rounds: int):
    tasks = workloads.build(args.workload, args.seed, rounds, args.smoke)
    for task in tasks:
        task.prepare()
    warm = Tally()
    warm.run(hg, tasks[0])
    return tasks


def _measure(hg, workloads, args, setup: list[dict]) -> tuple[dict, dict]:
    rounds = 1 if args.smoke else workloads.rounds_for(args.workload, args.seconds)
    tasks = _prepare(hg, workloads, args, rounds)
    tally = Tally()
    for task in tasks:
        tally.run(hg, task)
    n = len(tally.latencies)

    def timings(latencies: list[float], setup_s: list[float]) -> dict:
        return {"tasks_per_s": n / sum(latencies),
                "task_p50_ms": 1e3 * statistics.median(latencies),
                "task_tail_ms": 1e3 * _tail(latencies)[1],
                "setup_s": statistics.median(setup_s)}

    values = timings(tally.calibrated, [s["calibrated"] for s in setup])
    values.update(peak_rss_mb=_peak_rss_mb(), fail_ratio=tally.failed / n,
                  max_err=tally.max_err)
    units = dict(E2E)
    report = {
        "metrics": {k: {"value": values[k], "unit": units[k]} for k, _ in E2E},
        "wall_clock": timings(tally.latencies, [s["wall"] for s in setup]),
        "samples": n, "rounds": rounds, "tail_percentile": _tail(tally.latencies)[0],
        "setup_samples": setup, "failures": tally.failures,
        "tasks": [{"task": t.label, "ms": 1e3 * c, "wall_ms": 1e3 * w, "cal": cal}
                  for t, c, w, cal in zip(tasks, tally.calibrated, tally.latencies,
                                          tally.calibrations)],
        "observations": tally.observations,
    }
    return ({"correct": tally.failed == 0, "attempted": n, "failed": tally.failed,
             "metrics": {k: report["metrics"][k] for k in E2E_FINAL}}, report)


def _measure_traced(hg, workloads, args) -> tuple[dict, dict]:
    from tracer import METRICS, Tracer
    tasks = _prepare(hg, workloads, args, rounds=1)
    plain = Tally()
    for task in tasks:
        plain.run(hg, task)
    traced = Tally()
    tracer = Tracer()
    with tracer:
        for i, task in enumerate(tasks):
            traced.run(hg, task, tracer, i)
    m = tracer.metrics()
    wall = sum(traced.latencies)
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = sum(plain.latencies)
    m["trace.overhead_ratio"] = sum(traced.calibrated) / sum(plain.calibrated) - 1.0
    m["trace.integrator_potential_share"] = (m["integrator.self_s"] + m["potential.eval_s"]) / wall
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.jsonl"
    tracer.write(spans)
    metrics = {name: {"value": m[name], "unit": unit} for name, unit in METRICS}
    failed = plain.failed + traced.failed
    attempted = len(plain.latencies) + len(traced.latencies)
    report = {"spans_file": str(spans.relative_to(ROOT)), "tasks": len(tasks),
              "max_err": traced.max_err, "failures": traced.failures + plain.failures,
              "observations": traced.observations}
    return ({"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": metrics}, report)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "hillgreen" / "__init__.py").is_file():
        print(f"error: no hillgreen sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return _setup_probe(args)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    setup = [] if args.trace else _setup_samples(args, 1 if args.smoke else SETUP_REPEATS)
    hg = _import_library()
    import workloads
    env = _environment()
    if args.trace:
        result, report = _measure_traced(hg, workloads, args)
    else:
        result, report = _measure(hg, workloads, args, setup)
    report.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "smoke": args.smoke, "environment": env})
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
