"""Benchmark for ultratree: four seeded, closed-loop, single-process,
single-thread workloads, each repeating one kind of user job.

Run from the repository root:

    python3 perfbench/run.py --workload tree-queries --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics: jobs per second of job time,
median and 90th-percentile job latency, set-up time (median of
SETUP_REPEATS set-ups) and peak resident memory.  Times are rescaled to a
reference host speed measured around each job (see KERNEL_REF_S); the
unscaled figures are printed too.  ``--trace 1`` instead runs
each job twice, untraced and then with span-recording wrappers on every
layer (see spans.py), and reports per-layer self times and work counts plus
the tracing overhead; the spans go to ``.perfbench_out/``.

Every answer is checked outside the timed region; a job that raises or fails
a check counts as failed.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

MIN_JOBS = 100  # so that at least 10 latencies lie beyond the 90th percentile
SETUP_REPEATS = 3
WALL_CAP_S = 120  # a run stops at the next round boundary after this long

# Time of reference_kernel() on the reference machine (a 2-vCPU VM running
# Python 3.11, in its faster state).  Shared hosts change how fast they run
# Python by up to 1.7x within seconds, so every timing is rescaled to this
# speed: raw time * KERNEL_REF_S / kernel time measured around it.
KERNEL_REF_S = 0.5e-3

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def load_program():
    """Import ultratree from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "ultratree", "__init__.py")):
        sys.exit(f"error: no ultratree sources under {SRC}")
    sys.path.insert(0, SRC)
    import ultratree

    if not os.path.abspath(ultratree.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported ultratree from {ultratree.__file__}, not {SRC}")
    return ultratree


def reference_kernel() -> None:
    """A fixed piece of pure-Python work in the program's style (exact
    fractions, dicts, tuples, strings) that never touches ultratree."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 120):
        x = Fraction(i % 7 + 1, i % 11 + 2)
        total = max(total, x) + x
        seen[f"k{i}"] = (x, total)


def host_speed() -> float:
    """Kernel time right now: the best of three runs, so that one
    interrupt does not read as a slow host."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Run:
    """The closed job loop: one job at a time, each checked after it ends.

    With a tracer, each job runs twice: untraced, then traced inside a root
    span; the traced answer is the one checked.
    """

    def __init__(self, w, st, tracer=None):
        self.w, self.st, self.tracer = w, st, tracer
        self.jobs = self.failed = 0
        self.lat: list[float] = []  # job times; traced ones when tracing
        self.scaled: list[float] = []  # job times at the reference speed
        self.kernel = [host_speed()]  # kernel time before each job, and after the last
        self.untraced = 0.0  # job time of the untraced twins when tracing
        self.busy = 0.0

    def _timed(self, job):
        t0 = time.perf_counter()
        out = self.w.run_job(self.st, job)
        return time.perf_counter() - t0, out

    def step(self) -> None:
        job = self.w.make_job(self.st, self.jobs)
        try:
            dt, out = self._timed(job)
            if self.tracer is not None:
                self.untraced += dt
                self.busy += dt
                with self.tracer.root("job", self.jobs):
                    dt, out = self._timed(job)
            self.kernel.append(host_speed())
            self.lat.append(dt)
            self.scaled.append(dt * 2 * KERNEL_REF_S / (self.kernel[-2] + self.kernel[-1]))
            self.busy += dt
            problems = self.w.check(self.st, job, out)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            if self.failed <= 3:
                print(f"job {self.jobs} failed: " + "; ".join(problems), file=sys.stderr)
        self.jobs += 1

    def loop(self, seconds: float, min_jobs: int) -> None:
        """Jobs until ``seconds`` of job time and ``min_jobs`` jobs, ending on
        a round boundary."""
        wall0 = time.perf_counter()
        while True:
            if self.jobs % self.w.ROUND == 0 and (
                time.perf_counter() - wall0 > WALL_CAP_S
                or (self.busy >= seconds and self.jobs >= min_jobs)
            ):
                return
            self.step()


def measure(w, seconds):
    setups, raw_setups = [], []
    st = None
    for _ in range(SETUP_REPEATS):
        st = None
        gc.collect()
        before = host_speed()
        t0 = time.perf_counter()
        st = w.setup()
        dt = time.perf_counter() - t0
        raw_setups.append(dt)
        setups.append(dt * 2 * KERNEL_REF_S / (before + host_speed()))
    w.prepare(st)
    gc.collect()
    run = Run(w, st)
    run.loop(seconds, MIN_JOBS)

    def timings(lat, setup):
        return {
            "jobs_per_s": len(lat) / sum(lat),
            "job_p50_ms": statistics.median(lat) * 1000,
            "job_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1000,
            "setup_s": statistics.median(setup),
        }

    values = timings(run.scaled, setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    raw = timings(run.lat, raw_setups)
    beyond = sum(x * 1000 > values["job_p90_ms"] for x in run.scaled)
    kq = statistics.quantiles(run.kernel, n=4)
    notes = {
        "p90 samples": f"{len(run.lat)} jobs, {beyond} beyond p90",
        "kernel ms (q1 median q3)": " ".join(f"{k * 1000:.4f}" for k in kq),
        "unscaled": "  ".join(f"{k} {v:.6g}" for k, v in raw.items()),
    }
    return run, metrics, notes


def measure_traced(w, ut, seconds, spans_path):
    import spans

    tracer = spans.Tracer(ut)
    with tracer.root("setup", -1):
        st = w.setup()
    w.prepare(st)
    gc.collect()
    run = Run(w, st, tracer)
    run.loop(seconds, 0)
    metrics, absent = tracer.metrics(run.untraced, sum(run.lat))
    tracer.write(spans_path)
    notes = {"spans file": os.path.relpath(spans_path, ROOT)}
    if absent:
        notes["missing (wrapped function gone)"] = " ".join(absent)
    return run, metrics, notes


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    import workloads

    code = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = code or subprocess.run(cmd, check=False).returncode
    return code


def main(argv=None) -> int:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        load_program()  # fail before starting anything when the sources are absent
        return run_all(args)

    ut = load_program()
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    w = workloads.WORKLOADS[args.workload](ut, args.seed, workdir)
    try:
        if args.trace:
            spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
            run, metrics, notes = measure_traced(w, ut, args.seconds, spans_path)
        else:
            run, metrics, notes = measure(w, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    notes.update(w.notes())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {run.jobs}  failed {run.failed}  failed_ratio {run.failed / run.jobs:g}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.jobs,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
