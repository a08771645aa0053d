"""Adaptive RK4 for complex-valued ODE systems along a polyline of nodes.

Step-halving error control: a full step is compared against two half steps;
the step is accepted when the estimated local error stays below
REL_TOL * scale + ABS_TOL.  The step length carries over from one segment of
the polyline to the next, and each step is clamped to land on the next node.
"""
from __future__ import annotations

import numpy as np

from .errors import BlowUp, StepSizeUnderflow

REL_TOL = 1e-9
ABS_TOL = 1e-12
MIN_STEP = 1e-16   # smallest step, as a fraction of the segment length


def _rk4_step(f, s, y, h):
    k1 = f(s, y)
    k2 = f(s + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(s + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(s + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def solve_rk4(f, nodes, y0, blowup=None):
    """Integrate dy/dt = f(t, y) along the polyline through `nodes`.

    y may be a complex scalar or a complex numpy vector.  Real nodes keep t
    real; complex nodes give complex t.  Returns y at every node: complex
    numbers for a scalar y0, arrays otherwise.

    blowup: optional (threshold, label) — raises BlowUp when ||y|| exceeds
    the threshold.  BlowUp and StepSizeUnderflow carry the t where the
    integration stopped (``tau_star``) and y at every node completed before
    it (``samples``).
    """
    y = np.array(y0, dtype=complex)
    keep = complex if y.ndim == 0 else np.asarray
    out = [keep(y)]
    h = None
    # A non-finite trial step fails the error test and is retried smaller.
    with np.errstate(over="ignore", invalid="ignore"):
        for ta, tb in zip(nodes, nodes[1:]):
            length = abs(tb - ta)
            if length == 0:
                out.append(keep(y))
                continue
            unit = (tb - ta) / length
            if h is None:
                h = length / 16.0
            t, u = ta, 0.0
            while u < length:
                clamped = u + h >= length
                step = length - u if clamped else h
                dt = step * unit
                full = _rk4_step(f, t, y, dt)
                half = _rk4_step(f, t + 0.5 * dt, _rk4_step(f, t, y, 0.5 * dt), 0.5 * dt)
                scale = REL_TOL * max(np.max(np.abs(y)), np.max(np.abs(half))) + ABS_TOL
                err = np.max(np.abs(full - half))
                if err <= scale:
                    # Accept, with the fifth-order Richardson combination.
                    y = half + (half - full) / 15.0
                    u = length if clamped else u + step
                    t = tb if clamped else ta + u * unit
                    if blowup is not None and np.max(np.abs(y)) > blowup[0]:
                        raise BlowUp(f"{blowup[1]} diverged at flow parameter {t}",
                                     tau_star=t, samples=out)
                    if err < scale / 32.0 and not clamped:
                        h *= 2.0
                else:
                    h = 0.5 * step
                    if h < length * MIN_STEP:
                        raise StepSizeUnderflow(f"step underflow at t = {t}",
                                                tau_star=t, samples=out)
            out.append(keep(y))
    return out
