"""One workload in one fresh process: set-up, passes, checks, result file.

Started by run.py, never by hand:

    python3 bench/child.py --workload W --seed N --mode setup|run|trace \
        --seconds S --t0 T --result PATH

`--t0` is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is shared by all processes), so set-up time covers the
interpreter start, `import cflow`, input generation and the warm-up calls.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from time import perf_counter

import workloads
from workloads import Raised

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IMPORT_SAMPLES = 5
TRACE_SECONDS = 1.0        # traced run: untraced, then traced passes, each
TRACE_PASSES = 5           # until this much time or this many passes


def run_pass(wl, tracer=None):
    """One pass over every job.

    Returns (seconds spent in jobs, per-job seconds, normalized outputs).
    Only the job calls are timed; normalizing an output happens between jobs.
    """
    times, values = [], {}
    for job in wl.jobs:
        if tracer is not None:
            tracer.job = job.id
        t0 = perf_counter()
        try:
            raw = job.fn() if tracer is None else tracer.span("job", job.fn)
        except Exception as exc:  # a failing job is counted as failed, never fatal
            raw = Raised(f"{type(exc).__name__}: {exc}")
        times.append(perf_counter() - t0)
        wl.last[job.id] = raw
        try:
            values[job.id] = raw if isinstance(raw, Raised) else job.norm(raw)
        except Exception as exc:  # output of an unexpected type
            values[job.id] = Raised(f"{type(exc).__name__}: {exc}")
    return sum(times), times, values


def digest(value):
    return hashlib.blake2b(pickle.dumps(value, protocol=4), digest_size=16).digest()


def check_pass(wl, values):
    """Verdict (ok, err, note) of every job, and the failure summary."""
    import checks  # scipy.integrate and mpmath load only after timing

    verdicts, failures, correct = {}, [], True
    for job in wl.jobs:
        try:
            verdict = checks.run_check(job, values[job.id], values)
        except Exception as exc:  # a checker crash is a failed check
            verdict = (False, float("inf"), f"checker raised {type(exc).__name__}: {exc}")
        verdicts[job.id] = verdict
        if not verdict[0]:
            failures.append({"id": job.id, "known_fault": job.known_fault,
                             "note": verdict[2]})
            # wrong answers break correctness; errors and known faults are
            # counted as failed operations only
            if not job.known_fault and not isinstance(values[job.id], Raised):
                correct = False
    return verdicts, failures, correct


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli-batch" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(wl, seconds):
    """Whole passes until `seconds` is spent; at least one.

    Peak RSS is read after the first pass: later passes repeat the same jobs,
    and only the job-time samples kept here grow with the number of passes.
    """
    pass_s, job_s, first, sums, unstable = [], [], None, None, set()
    start = perf_counter()
    while first is None or perf_counter() - start < seconds:
        spent, times, values = run_pass(wl)
        pass_s.append(spent)
        job_s.extend(times)
        if first is None:
            first, sums = values, {k: digest(v) for k, v in values.items()}
            rss = peak_rss_mb(wl.name)
        else:
            unstable.update(k for k, v in values.items() if digest(v) != sums[k])
    return pass_s, job_s, first, unstable, rss


def quantile(xs, q):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def import_times():
    """Median wall time of a bare interpreter, and of `import cflow.cli` in one."""
    bare, cflow = [], []
    code = ("import time; t = time.perf_counter(); import cflow.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(IMPORT_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        bare.append(perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        cflow.append(float(out))
    return {"import.python_ms": statistics.median(bare) * 1e3,
            "import.cflow_ms": statistics.median(cflow) * 1e3}


def repeated_passes(wl, tracer=None):
    """Passes until TRACE_SECONDS are spent or TRACE_PASSES are done."""
    spent, outputs = [], []
    while not spent or (sum(spent) < TRACE_SECONDS and len(spent) < TRACE_PASSES):
        if tracer is not None:
            tracer.passes += 1
        seconds, _, values = run_pass(wl, tracer)
        spent.append(seconds)
        outputs.append(values)
    return spent, outputs


def traced_run(wl, name, seed):
    from layers import BY_WORKLOAD
    from tracer import Tracer

    plain_s, plain = repeated_passes(wl)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, traced = repeated_passes(wl, tracer)
    finally:
        tracer.uninstall()
    values = traced[0]
    sums = {k: digest(v) for k, v in values.items()}
    unstable = {k for out in plain + traced for k, v in out.items() if digest(v) != sums[k]}
    verdicts, failures, correct = check_pass(wl, values)
    metrics, info = BY_WORKLOAD[name](wl, tracer, values, verdicts)
    metrics[f"trace.overhead_share.{name}"] = (statistics.median(traced_s)
                                               / statistics.median(plain_s) - 1.0)
    if name == "cli-batch":
        metrics.update(import_times())
    spans = os.path.join(ROOT, "bench", "out", f"spans-{name}-seed{seed}.jsonl")
    tracer.write(spans)
    passes = len(plain_s) + len(traced_s)
    return {"passes": passes, "failures": failures, "failed": passes * len(failures),
            "correct": correct and not unstable, "unstable": sorted(unstable),
            "metrics": {k: v for k, v in metrics.items() if v is not None},
            "absent": sorted(k for k, v in metrics.items() if v is None),
            "info": info, "spans": os.path.relpath(spans, ROOT),
            "traced_pass_s": traced_s, "untraced_pass_s": plain_s}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    import cflow
    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(cflow.__file__), src]) != src:
        raise SystemExit(f"cflow imported from {cflow.__file__}, not from {src}")

    wl = workloads.build(args.workload, args.seed, ROOT,
                         in_process_cli=args.mode == "trace")
    try:
        wl.warm_up()
        result = {"workload": args.workload, "seed": args.seed,
                  "jobs": len(wl.jobs), "setup_s": time.monotonic() - args.t0}
        if args.mode == "run":
            pass_s, job_s, values, unstable, rss = timed_run(wl, args.seconds)
            _, failures, correct = check_pass(wl, values)
            result.update({
                "passes": len(pass_s), "pass_s": pass_s,
                "jobs_per_s": len(wl.jobs) / statistics.median(pass_s),
                "job_ms_p50": statistics.median(job_s) * 1e3,
                "job_ms_p90": quantile(job_s, 0.9) * 1e3,
                "peak_rss_mb": rss,
                "failures": failures, "failed": len(failures) * len(pass_s),
                "correct": correct and not unstable, "unstable": sorted(unstable)})
        elif args.mode == "trace":
            result.update(traced_run(wl, args.workload, args.seed))
        if args.mode != "setup":
            result["attempted"] = len(wl.jobs) * result["passes"]
    finally:
        wl.close()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
