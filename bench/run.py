#!/usr/bin/env python3
"""cflow benchmark: four workloads, end-to-end metrics, and a traced run.

    python3 bench/run.py                      # all four workloads, seed 1, 15 s each
    python3 bench/run.py --workload flow-contours --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --trace 1            # per-layer metrics of every workload
    python3 bench/run.py --seconds 0          # smoke: one pass of each workload
    python3 bench/run.py --selftest           # checks reject perturbed outputs

Run from anywhere; the benchmark uses the sources of the checkout it sits in
(`src/`).  Every workload runs in fresh processes with BLAS pinned to one
thread.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Results and spans are written
under bench/out/.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("flow-contours", "bethe-roots", "specfun-grid", "cli-batch")
SETUP_REPEATS = 5          # set-up samples per run; setup_s is their median
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.pop("CFLOW_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def spawn(workload, seed, mode, seconds, timeout):
    """Run child.py once and return its result dict."""
    os.makedirs(OUT, exist_ok=True)
    result = os.path.join(OUT, f"child-{os.getpid()}.json")
    t0 = time.monotonic()
    # its own process group, so a timeout also stops the cflow processes it started
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "child.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
         "--t0", repr(t0), "--result", result],
        env=child_env(), cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"{workload} {mode} process exited with {code}")
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    os.remove(result)
    return out


def run_workload(workload, seed, seconds):
    setups = [spawn(workload, seed, "setup", 0, 120)["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    res = spawn(workload, seed, "run", seconds, seconds + 150)
    setups.append(res["setup_s"])
    res["setup_samples"] = setups
    res["setup_s"] = statistics.median(setups)
    return res


def cpu_ticks():
    """(steal, total) jiffies of the host from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def steal(before, after):
    if before is None or after is None or after[1] == before[1]:
        return None
    hz = os.sysconf("SC_CLK_TCK")
    return {"steal_s": (after[0] - before[0]) / hz,
            "steal_share": (after[0] - before[0]) / (after[1] - before[1])}


def fingerprint():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    env = child_env()
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions,
            "blas_threads": {v: env[v] for v in BLAS_VARS},
            "cflow_threads": env.get("CFLOW_THREADS")}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="run one pass of each workload and feed each checker a perturbed output")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cflow", "__init__.py")):
        sys.stderr.write(f"bench: no cflow sources under {ROOT}/src\n")
        return 2
    compileall.compile_dir(os.path.join(ROOT, "src", "cflow"), quiet=1)
    if args.selftest:
        return subprocess.run([sys.executable, os.path.join(BENCH, "selftest.py")],
                              env=child_env(), cwd=ROOT, check=False).returncode
    e2e_units, layer_units = load_spec()
    machine = fingerprint()
    print("fingerprint " + json.dumps(machine), flush=True)

    ticks = cpu_ticks()
    results = {}
    if args.trace:
        # every per-layer metric needs all four workloads, whichever is named
        for w in WORKLOADS:
            results[w] = spawn(w, args.seed, "trace", 0, 170)
    else:
        for w in (WORKLOADS if args.workload == "all" else (args.workload,)):
            results[w] = run_workload(w, args.seed, args.seconds)
    stolen = steal(ticks, cpu_ticks())
    print("steal " + json.dumps(stolen), flush=True)

    metrics = {}
    for w, res in results.items():
        print(f"{w}: attempted {res['attempted']} failed {res['failed']} "
              f"correct {res['correct']} passes {res['passes']}")
        for f in res["failures"]:
            print(f"  {'known fault' if f['known_fault'] else 'FAILED'}: {f['id']}: {f['note']}")
        for k in res["unstable"]:
            print(f"  output differs between passes: {k}")
        if args.trace:
            metrics.update(res["metrics"])
            if res["absent"]:
                print(f"  absent: {', '.join(res['absent'])}")
            print(f"  spans: {res['spans']}  info: {json.dumps(res['info'])}")
        else:
            for name, unit in e2e_units.items():
                print(f"  {name} {res[name]:.6g} {unit}")
            print(f"  reference only: job_ms_p90 {res['job_ms_p90']:.6g} ms, "
                  f"setup samples {['%.4f' % s for s in res['setup_samples']]}")
            prefix = "" if len(results) == 1 else f"{w}."
            metrics.update({prefix + name: {"value": res[name], "unit": unit}
                            for name, unit in e2e_units.items()})
    if args.trace:
        for name in layer_units:
            if name in metrics:
                print(f"  {name} {metrics[name]:.6g} {layer_units[name]}")
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in layer_units.items() if name in metrics}

    final = {"correct": all(r["correct"] for r in results.values()),
             "attempted": sum(r["attempted"] for r in results.values()),
             "failed": sum(r["failed"] for r in results.values()),
             "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "fingerprint": machine, "steal": stolen,
                   "workloads": results, "final": final}, fh, indent=1)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
