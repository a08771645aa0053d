#!/usr/bin/env python3
"""Trace coupling-angle portraits for a range of interaction powers and run
the limit-cycle detector on each.

For odd powers the printed slope field integrates to a gradient flow, so
the orbits escape; for even powers the flow is holomorphic, and the orbits
from the seeds run into the double zero z = 0 and end there.  Pass
--flip-sign to trace the parity-flipped field instead.

The `end` column says how each curve stopped: `escape` (|z| passed 4), the
zero of z^2 (z^n - 1)(z - 1) it reached (`zero 0`, `zero 1`, or `zero w^k`
with w = e^{2 pi i/n}), `return` (its first return to the seed) or `budget`
(it used all its steps).

Usage: python3 scripts/cycle_survey.py [--flip-sign]
"""
import argparse
import cmath
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cflow import analysis  # noqa: E402

SEEDS = {1: (0.15 * cmath.exp(0.60j), 0.010),
         2: (0.15 * cmath.exp(0.75j), 0.012),
         3: (0.15 * cmath.exp(2.60j), 0.010),
         4: (0.10 * cmath.exp(0.60j), 0.008)}
MAX_STEPS = 15000  # the portrait's default


def end(pts, n, step):
    """How a portrait from `analysis.coupling_angle_portrait` stopped.

    Its samples are `step` apart in arc length, so a curve stopped by an event
    ends less than two steps from the zero it reached or from |z| = 4.
    """
    if len(pts) == MAX_STEPS + 1:
        return "budget"
    zeros = {"zero 0": 0j, "zero 1": 1.0}
    zeros.update((f"zero w^{k}", cmath.exp(2j * cmath.pi * k / n)) for k in range(1, n))
    name, w = min(zeros.items(), key=lambda item: abs(pts[-1] - item[1]))
    if abs(pts[-1] - w) < 2 * step:
        return name
    return "escape" if abs(pts[-1]) > 4.0 - 2 * step else "return"


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--flip-sign", action="store_true")
    args = ap.parse_args(argv)

    print(f"{'n':>3} {'samples':>8} {'max|z|':>8} {'closed':>7} "
          f"{'winding':>8} {'return':>10} {'end':>9}")
    for n, (z0, step) in SEEDS.items():
        pts = analysis.coupling_angle_portrait(n, z0, step=step, max_steps=MAX_STEPS,
                                               flip_sign=args.flip_sign)
        rep = analysis.detect_limit_cycle(pts, tol=5e-2)
        mx = max(abs(z) for z in pts)
        print(f"{n:3d} {len(pts):8d} {mx:8.3f} {str(rep.closed):>7} "
              f"{rep.winding:8d} {rep.min_return_distance:10.4f} {end(pts, n, step):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
