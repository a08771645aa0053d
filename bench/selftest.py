"""Self-test of the benchmark's checks (run through `python3 bench/run.py --selftest`).

Runs one pass of every workload with its checks (the smoke part), then feeds
each workload's checker one perturbed copy of a real output and expects it to
be rejected: a flow node moved by 1e-6, a Bethe root moved by 1e-6, a
special-function value off by 1e-6 relative, and one altered byte in a CLI
output (a flow CSV, and the config echo re-run).  Exits 0 when every check
behaves.
"""
from __future__ import annotations

import copy
import os
import sys

import checks
import workloads
from child import ROOT, check_pass, run_pass


def perturbed_flow(values):
    out = copy.deepcopy(values)
    out["n_power.N2.dense.a0.3927"][600, 1] += 1e-6
    return "n_power.N2.dense.a0.3927", out


def perturbed_bethe(values):
    jid = next(k for k in values if k.startswith("bethe.n8.N1"))
    out = copy.deepcopy(values)
    out[jid]["roots"][3] += 1e-6
    return jid, out


def perturbed_specfun(values):
    jid = next(k for k in values if k.startswith("hyp2f1.inv_z"))
    out = dict(values)
    out[jid] = values[jid] * (1.0 + 1e-6)
    return jid, out


def _flip_byte(data, at):
    """Replace the digit at or after `at` by another digit."""
    i = at
    while not chr(data[i]).isdigit():
        i += 1
    digit = b"1" if data[i:i + 1] != b"1" else b"2"
    return data[:i] + digit + data[i + 1:]


def perturbed_cli_csv(values):
    out = copy.deepcopy(values)
    files = out["flow.n_power"]["files"]
    text = files["npower.csv"]
    row = text.index(b"\n", len(text) // 2) + 1    # a row in the middle
    field = row + len(b",".join(text[row:].split(b",")[:3])) + 1   # Re g_inv
    files["npower.csv"] = _flip_byte(text, field + 4)
    return "flow.n_power", out


def perturbed_cli_echo(values):
    out = copy.deepcopy(values)
    files = out["config.echo"]["files"]
    files["cfgrun.csv"] = _flip_byte(files["cfgrun.csv"], len(files["cfgrun.csv"]) // 2)
    return "config.echo", out


PERTURBATIONS = {"flow-contours": [perturbed_flow], "bethe-roots": [perturbed_bethe],
                 "specfun-grid": [perturbed_specfun],
                 "cli-batch": [perturbed_cli_csv, perturbed_cli_echo]}


def main():
    problems = []
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 1, ROOT)
        try:
            wl.warm_up()
            _, _, values = run_pass(wl)
            _, failures, correct = check_pass(wl, values)
            unexpected = [f for f in failures if not f["known_fault"]]
            print(f"smoke {name}: {len(wl.jobs)} jobs, {len(failures)} failed "
                  f"({len(failures) - len(unexpected)} known faults)")
            if unexpected or not correct:
                problems.append(f"{name}: {unexpected}")
            jobs = {job.id: job for job in wl.jobs}
            for perturb in PERTURBATIONS[name]:
                jid, bad = perturb(values)
                ok, _, note = checks.run_check(jobs[jid], bad[jid], bad)
                print(f"  {perturb.__name__}: {'NOT FLAGGED' if ok else 'flagged'} ({note})")
                if ok:
                    problems.append(f"{perturb.__name__} was not flagged")
        finally:
            wl.close()
    for p in problems:
        print(f"selftest problem: {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
