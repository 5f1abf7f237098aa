#!/usr/bin/env python3
"""censtab benchmark: verified verdicts per second, end to end and per layer.

    python3 perfbench/run.py --workload verdict-Q --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) as a closed loop with one client in
this single process: each job starts when the previous one has finished and
passed its checks.  Jobs run in whole passes over the workload's roster until
`--seconds` have elapsed and at least MIN_JOBS jobs have completed, so every
run has the same mix of jobs.  censtab is imported from `src/` next to this
directory.

`--trace 0` reports the end-to-end metrics with tracing off.  `--trace 1`
runs TRACE_PASSES fixed passes twice, untraced and then traced, and reports
per-layer calls, total and self time per job, plus the tracing overhead; the
spans are written to perfbench/out/.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.  The
exit code is 0 when every job passed its checks, 1 when any failed, and 2
when censtab cannot be imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from clock import Clock  # noqa: E402
from tracing import BENCH_SPANS, WRAPPED, Tracer  # noqa: E402
from workloads import JOB_KINDS, WORKLOADS, Inputs, Mismatch  # noqa: E402

MODULES = ("scalars", "linalg", "algebras", "radical", "stability", "catalog", "fileformat")
SETUP_REPS = 3
MIN_JOBS = 100
# With at least MIN_JOBS samples, at least ten lie beyond the 90th percentile.
TAIL = 90
TRACE_PASSES = 2
# No new pass starts after this many seconds, or after a failed job, so a run
# ends well inside 180 s.
WALL_LIMIT = 120.0

LAYERS = BENCH_SPANS + WRAPPED


def import_censtab():
    """Import censtab's modules afresh from ROOT/src."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [k for k in sys.modules if k == "censtab" or k.startswith("censtab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {m: importlib.import_module(f"censtab.{m}") for m in MODULES}
    if not Path(mods["algebras"].__file__).resolve().is_relative_to(src):
        raise ImportError(f"censtab was not imported from {src}")
    return SimpleNamespace(**mods)


def setup(workload, seed):
    """Import censtab and build the inputs SETUP_REPS times; median adjusted time."""
    times, docs = [], None
    for _ in range(SETUP_REPS):
        clock = Clock()
        t = perf_counter()
        api = import_censtab()
        inputs = Inputs(api, workload, seed)
        first = inputs.pass_jobs(0)
        times.append((perf_counter() - t) * clock.factor())
        if docs is None:
            docs = [j.doc for j in first]
        elif docs != [j.doc for j in first]:
            raise RuntimeError("one seed gave two different inputs")
    return api, inputs, first, statistics.median(times)


class Tally:
    """Adjusted time samples by phase, raw job times and speed factors."""

    def __init__(self):
        self.samples = defaultdict(list)
        self.raw_job = []
        self.by_label = defaultdict(list)  # roster entry -> adjusted job times
        self.factors = {}  # job id -> speed factor
        self.attempted = 0
        self.failed = 0
        self.witnesses = 0


def run_jobs(api, kind, jobs, tally, tracer=None):
    run = JOB_KINDS[kind]
    clock = Clock()
    for job in jobs:
        tally.attempted += 1
        local = defaultdict(list)
        try:
            if tracer is None:
                t = perf_counter()
                found = run(api, job, local)
                dt = perf_counter() - t
            else:
                tracer.job = tally.attempted - 1
                with tracer.span("job"):
                    t = perf_counter()
                    found = run(api, job, local, tracer.span)
                    dt = perf_counter() - t
        except Mismatch as exc:
            tally.failed += 1
            print(f"FAILED {job.label}: {exc}", file=sys.stderr)
            clock.factor()  # the next job's interval starts here
            continue
        except Exception:  # any engine error fails this job; the run goes on
            tally.failed += 1
            print(f"FAILED {job.label}: exception", file=sys.stderr)
            traceback.print_exc()
            clock.factor()
            continue
        f = clock.factor()
        tally.factors[tally.attempted - 1] = f
        tally.raw_job.append(dt)
        tally.samples["job"].append(dt * f)
        tally.by_label[job.label].append(dt * f)
        for key, vals in local.items():
            tally.samples[key].extend(v * f for v in vals)
        tally.witnesses += found


def percentile(xs, q):
    """Linear interpolation between closest ranks (statistics' 'inclusive')."""
    s = sorted(xs)
    h = (len(s) - 1) * q / 100
    lo = int(h)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (h - lo)


def measure(api, inputs, first, seconds):
    tally = Tally()
    start = perf_counter()
    jobs, k = first, 0
    while True:
        run_jobs(api, inputs.workload.kind, jobs, tally)
        k += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds and len(tally.samples["job"]) >= MIN_JOBS:
            break
        if elapsed >= WALL_LIMIT or tally.failed:
            break
        jobs = inputs.pass_jobs(k)
    return tally, k


def end_to_end(tally, setup_s):
    s = tally.samples
    busy = sum(s["job"])
    m = {"setup_s": (setup_s, "s")}
    m["jobs_per_s"] = (len(s["job"]) / busy if busy else 0.0, "1/s")
    for key in ("job", "verdict", "replay"):
        m[f"{key}_s.p50"] = (statistics.median(s[key]), "s")
        m[f"{key}_s.tail"] = (percentile(s[key], TAIL), "s")
    m["load_s.p50"] = (statistics.median(s["load"]), "s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return m


def per_layer(tracer, plain, traced):
    jobs = traced.attempted
    summary = tracer.summary(traced.factors)
    m = {}
    for name in LAYERS:
        calls, total, self_s = summary.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = (calls / jobs, "calls/job")
        m[f"{name}.s"] = (total / jobs, "s/job")
        m[f"{name}.self_s"] = (self_s / jobs, "s/job")
    candidates = tracer.count_children(
        "stability.algebra_centrally_stable", "stability.element_centrally_stable"
    )
    m["stability.witness.candidates"] = (candidates / jobs, "calls/job")
    m["stability.witness.found_per_candidate"] = (
        traced.witnesses / candidates if candidates else 0.0,
        "ratio",
    )
    m["trace.overhead_s"] = (
        statistics.median(traced.samples["job"]) - statistics.median(plain.samples["job"]),
        "s",
    )
    return m


def trace_run(api, inputs, first, passes=TRACE_PASSES):
    """Run the first `passes` passes untraced, then traced; return both tallies."""
    jobs = list(first)
    for k in range(1, passes):
        jobs += inputs.pass_jobs(k)
    kind = inputs.workload.kind
    plain = Tally()
    run_jobs(api, kind, jobs, plain)
    tracer = Tracer()
    traced = Tally()
    with tracer.installed():
        run_jobs(api, kind, jobs, traced, tracer)
    return tracer, plain, traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    try:
        api, inputs, first, setup_s = setup(workload, args.seed)
    except ImportError as exc:
        print(f"perfbench: cannot import censtab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    cpus = len(os.sched_getaffinity(0))
    print(
        f"workload {workload.name}  seed {args.seed}  python {platform.python_version()}"
        f"  nproc {cpus}  closed loop, 1 client, 1 process"
    )
    print(f"roster ({len(inputs.entries)} jobs per pass): " + ", ".join(l for l, _ in inputs.entries))

    if args.trace:
        tracer, plain, tally = trace_run(api, inputs, first)
        metrics = per_layer(tracer, plain, tally) if plain.samples["job"] and tally.samples["job"] else {}
        out = HERE / "out" / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.write(out)
        attempted = plain.attempted + tally.attempted
        failed = plain.failed + tally.failed
        p50 = statistics.median(plain.samples["job"]) if plain.samples["job"] else 0.0
        print(
            f"traced {TRACE_PASSES} passes ({tally.attempted} jobs), {len(tracer.spans)} spans"
            f" -> {out.relative_to(ROOT)}; untraced job_s.p50 {p50:.6f} s"
        )
    else:
        tally, passes = measure(api, inputs, first, args.seconds)
        attempted, failed = tally.attempted, tally.failed
        metrics = end_to_end(tally, setup_s) if tally.samples["job"] else {}
        s = tally.samples
        print(
            f"{passes} passes, {tally.attempted} jobs, {tally.failed} failed"
            f" (failed_ratio {failed / attempted:.4f}); tail = p{TAIL};"
            f" samples: job {len(s['job'])}, load {len(s['load'])},"
            f" verdict {len(s['verdict'])}, replay {len(s['replay'])}"
        )
        if tally.raw_job:
            f = sorted(tally.factors.values())
            print(
                f"raw wall time: jobs_per_s {len(tally.raw_job) / sum(tally.raw_job):.6f},"
                f" job_s.p50 {statistics.median(tally.raw_job):.6f} s; speed factor"
                f" min {f[0]:.3f} median {statistics.median(f):.3f} max {f[-1]:.3f}"
            )
        print("job_s.p50 per roster entry:")
        for label, _ in inputs.entries:
            if tally.by_label[label]:
                print(f"  {label:48s} {statistics.median(tally.by_label[label]):14.6f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
