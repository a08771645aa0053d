#!/usr/bin/env python3
"""Compare the benchmark outputs of two checkouts, job by job.

    python3 scripts/compare_outputs.py OLD NEW [--workload W ...] [--seeds 1 2]

OLD and NEW are checkout directories (each with src/ and bench/).  For every
named workload (default: all four) and seed (default: 1), runs one untimed
pass in a fresh process per checkout, built by that checkout's own
bench/workloads.py on its own src/, and normalizes every job's output as the
benchmark does.  Prints the id of each job whose normalized output differs:
arrays are compared by dtype, shape and bytes, floats by their bits, and a job
that raised by its exception type and message.  Where the two outputs differ
only in their numbers (same structure, shapes and other values, and for an
output file the same text between its numbers), the id is followed by the
largest difference of any number relative to max(1, |old|).
Exits 1 if any job differs, else 0.  A change meant to keep every output bit for bit can be checked with

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python3 scripts/compare_outputs.py /tmp/parent . --seeds 1 2
"""
import argparse
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile

WORKLOADS = ("flow-contours", "bethe-roots", "specfun-grid", "cli-batch")
NUMBER = re.compile(rb"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def canon(v):
    """Plain, comparable form of a normalized output."""
    import numpy as np

    if isinstance(v, np.ndarray):
        return ("ndarray", v.dtype.str, v.shape, v.tobytes())
    if isinstance(v, dict):
        return ("dict", tuple((k, canon(v[k])) for k in sorted(v)))
    if isinstance(v, (list, tuple)):
        return (type(v).__name__, tuple(canon(x) for x in v))
    if isinstance(v, float):
        return ("float", float.hex(v))
    if isinstance(v, complex):
        return ("complex", float.hex(v.real), float.hex(v.imag))
    if isinstance(v, bytes):  # an output file of the CLI
        return ("bytes", v)
    return (type(v).__name__, repr(v))


def numbers(c):
    """The numbers of a canon() form, in order, and the rest of the form."""
    import numpy as np

    kind = c[0]
    if kind == "ndarray" and np.dtype(c[1]).kind in "iufc":
        return list(np.frombuffer(c[3], dtype=c[1]).ravel()), c[:3]
    if kind == "float":
        return [float.fromhex(c[1])], kind
    if kind == "complex":
        return [complex(float.fromhex(c[1]), float.fromhex(c[2]))], kind
    if kind == "bytes":  # the numbers written in the text
        return list(map(float, NUMBER.findall(c[1]))), (kind, tuple(NUMBER.split(c[1])))
    if kind in ("dict", "list", "tuple"):
        nums, rest = [], []
        for x in c[1]:
            key, x = x if kind == "dict" else (None, x)
            n, r = numbers(x)
            nums += n
            rest.append((key, r))
        return nums, (kind, tuple(rest))
    return [], c


def max_rel_diff(old, new):
    """Largest |new - old| / max(1, |old|) over the numbers of two canon()
    forms, or None where they differ in anything but their numbers."""
    a, rest_a = numbers(old)
    b, rest_b = numbers(new)
    if rest_a != rest_b or not a:
        return None
    worst = 0.0
    for x, y in zip(a, b):
        if x != y and not (x != x and y != y):  # nan = nan here
            d = abs(y - x) / max(1.0, abs(x))
            worst = max(worst, d if d == d else math.inf)
    return worst


def one_pass(root, workload, seed, out):
    """Child: one pass of `workload` from the checkout at `root`; pickle to `out`."""
    sys.path.insert(0, os.path.join(root, "bench"))
    import workloads

    import cflow
    src = os.path.join(root, "src")
    if os.path.commonpath([os.path.abspath(cflow.__file__), src]) != src:
        raise SystemExit(f"cflow imported from {cflow.__file__}, not from {src}")
    wl = workloads.build(workload, seed, root)
    values = {}
    try:
        wl.warm_up()
        for job in wl.jobs:
            try:
                raw = job.fn()
            except Exception as exc:  # a failing job is an output too
                raw = workloads.Raised(f"{type(exc).__name__}: {exc}")
            wl.last[job.id] = raw
            try:
                value = raw if isinstance(raw, workloads.Raised) else job.norm(raw)
            except Exception as exc:
                value = workloads.Raised(f"{type(exc).__name__}: {exc}")
            values[job.id] = canon(value)
    finally:
        wl.close()
    with open(out, "wb") as fh:
        pickle.dump(values, fh)


def outputs(root, workload, seed):
    """Normalized outputs of one pass, by job id, from a fresh process."""
    root = os.path.abspath(root)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "outputs.pickle")
        subprocess.run([sys.executable, os.path.abspath(__file__), "--child", root,
                        workload, str(seed), out], env=env, cwd=root, check=True)
        with open(out, "rb") as fh:
            return pickle.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    args = ap.parse_args(argv)
    differ = 0
    for workload in args.workload:
        for seed in args.seeds:
            old = outputs(args.old, workload, seed)
            new = outputs(args.new, workload, seed)
            ids = [j for j in old if old[j] != new.get(j)]
            ids += [j for j in new if j not in old]
            print(f"{workload} seed {seed}: {len(old)} jobs, {len(ids)} differ")
            for j in ids:
                rel = max_rel_diff(old[j], new[j]) if j in old and j in new else None
                print(f"  {j}" if rel is None else f"  {j}  max rel diff {rel:.3g}")
            differ += len(ids)
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        one_pass(sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5])
    else:
        sys.exit(main())
