"""Dormand–Prince 5(4) for complex-valued ODE systems along a polyline of nodes.

The polyline is taken apart into straight runs, split at its kinks.  Along
each run the stepper advances freely by arc length with the embedded
Dormand–Prince 5(4) pair (Hairer, Nørsett & Wanner, *Solving ODEs I*, §II.5):
seven stages, the last of which is the first of the next step (FSAL), so six
new RHS evaluations per step.  A step is accepted when the RMS over the
components of the 4th-order error estimate, each scaled by
RTOL * |y| + ATOL, is at most 1.  The nodes inside an accepted step are read
off Shampine's 4th-order continuous extension (Math. Comp. 46 (1986) 135;
HNW §II.6), so the node spacing does not limit the step.  A step lands
exactly on every kink and on the last node; the step length carries over from
one run to the next.

The state is held as plain Python complex numbers, a tuple for a system; the
RHS returns a tuple (or a complex number for a scalar flow).  The tolerances
come from the 1e-9 accuracy wanted at the nodes: the global error runs about
ten to a hundred times RTOL.
"""
from __future__ import annotations

import cmath
import math
import numbers

from .errors import BlowUp, StepSizeUnderflow

RTOL = 1e-11
ATOL = 1e-13
MIN_STEP = 1e-16   # smallest step, as a fraction of the run length
STRAIGHT = 1e-9    # largest change of direction inside one straight run

# Dormand–Prince 5(4): nodes, stages, 5th-order weights, error weights
# (5th minus 4th order) and Shampine's dense-output weights.
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                           -5103 / 18656)
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200,
                          22 / 525, -1 / 40)
D1, D3, D4, D5, D6, D7 = (-12715105075 / 11282082432, 87487479700 / 32700410799,
                          -10690763975 / 1880347072, 701980252875 / 199316789632,
                          -1453857185 / 822651844, 69997945 / 29380423)

SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0


def _dp_step(f, t, y, k1, dt):
    """One Dormand–Prince step of (complex) length dt from (t, y), f(t, y) = k1.

    Returns the 5th-order y at t + dt, the scaled RMS error estimate (not
    finite when any stage is not) and the stages k1..k7, k7 = f(t + dt, y1).
    """
    k2 = f(t + C2 * dt, tuple(a + dt * (A21 * p) for a, p in zip(y, k1)))
    k3 = f(t + C3 * dt, tuple(a + dt * (A31 * p + A32 * q)
                              for a, p, q in zip(y, k1, k2)))
    k4 = f(t + C4 * dt, tuple(a + dt * (A41 * p + A42 * q + A43 * r)
                              for a, p, q, r in zip(y, k1, k2, k3)))
    k5 = f(t + C5 * dt, tuple(a + dt * (A51 * p + A52 * q + A53 * r + A54 * s)
                              for a, p, q, r, s in zip(y, k1, k2, k3, k4)))
    k6 = f(t + dt, tuple(a + dt * (A61 * p + A62 * q + A63 * r + A64 * s + A65 * v)
                         for a, p, q, r, s, v in zip(y, k1, k2, k3, k4, k5)))
    y1 = tuple(a + dt * (B1 * p + B3 * r + B4 * s + B5 * v + B6 * w)
               for a, p, r, s, v, w in zip(y, k1, k3, k4, k5, k6))
    k7 = f(t + dt, y1)
    ks = (k1, k2, k3, k4, k5, k6, k7)
    err = math.sqrt(sum(
        (abs(dt * (E1 * p + E3 * r + E4 * s + E5 * v + E6 * w + E7 * x))
         / (ATOL + RTOL * max(abs(a), abs(b)))) ** 2 for a, b, p, r, s, v, w, x
        in zip(y, y1, k1, k3, k4, k5, k6, k7)) / len(y))
    # A non-finite stage fails the error test, even one the estimate omits.
    if not cmath.isfinite(sum(map(sum, ks)) + sum(y1)):
        err = math.inf
    return y1, err, ks


def _dense(y, y1, dt, ks):
    """Coefficients of Shampine's continuous extension over one step."""
    k1, _, k3, k4, k5, k6, k7 = ks
    r2 = tuple(b - a for a, b in zip(y, y1))
    r3 = tuple(dt * p - d for p, d in zip(k1, r2))
    r4 = tuple(d - dt * x - e for d, x, e in zip(r2, k7, r3))
    r5 = tuple(dt * (D1 * p + D3 * r + D4 * s + D5 * v + D6 * w + D7 * x)
               for p, r, s, v, w, x in zip(k1, k3, k4, k5, k6, k7))
    return tuple(zip(y, r2, r3, r4, r5))


def _interp(cont, ths):
    """y at each fraction th in ths of the step, from the coefficients of `_dense`."""
    return list(zip(*[[a + th * (b + (1.0 - th) * (c + th * (d + (1.0 - th) * e)))
                       for th in ths] for a, b, c, d, e in cont]))


def _norm(y):
    return max(abs(a) for a in y)


def solve_rk4(f, nodes, y0, blowup=None):
    """Integrate dy/dt = f(t, y) along the polyline through `nodes`.

    y may be a complex scalar or a sequence of complex numbers; f returns the
    same shape (a tuple, or a complex number).  Real nodes keep t real;
    complex nodes give complex t.  Returns y at every node: complex numbers
    for a scalar y0, tuples otherwise.

    blowup: optional (threshold, label) — raises BlowUp when max |y_i|
    exceeds the threshold, at the t where the continuous extension crosses
    it.  BlowUp and StepSizeUnderflow carry the t where the integration
    stopped (``tau_star``) and y at every node before it (``samples``).
    """
    scalar = isinstance(y0, numbers.Number)
    if scalar:
        rhs = f
        f = lambda t, y: (rhs(t, y[0]),)  # noqa: E731
        y = (complex(y0),)
    else:
        y = tuple(complex(a) for a in y0)
    unpack = (lambda ys: [v[0] for v in ys]) if scalar else list
    out = [y]
    k1 = h = None
    i, last = 0, len(nodes) - 1
    while i < last:
        ta = nodes[i]
        if nodes[i + 1] == ta:
            out.append(y)
            i += 1
            continue
        # the straight run from node i to node j; arcs holds the distances of
        # nodes i + 1 .. j from its start
        d = nodes[i + 1] - ta
        unit = d / abs(d)
        j = i + 1
        while j < last:
            d = nodes[j + 1] - nodes[j]
            if d != 0 and abs(d / abs(d) - unit) > STRAIGHT:
                break
            j += 1
        tb = nodes[j]
        arcs = [abs(nodes[m] - ta) for m in range(i + 1, j + 1)]
        length = arcs[-1]
        unit = (tb - ta) / length
        if h is None:
            h = length / 16.0
        t, u, m, rejected = ta, 0.0, 0, False
        while u < length:
            # stretch the last step of a run by up to 1 % rather than leave a sliver
            clamped = u + 1.01 * h >= length
            step = length - u if clamped else h
            dt = tb - t if clamped else step * unit
            try:
                if k1 is None:
                    k1 = f(t, y)
                y1, err, ks = _dp_step(f, t, y, k1, dt)
            except (OverflowError, ZeroDivisionError):
                err = math.inf
            if not err <= 1.0:
                h = step * (max(MIN_FACTOR, SAFETY * err ** -0.2) if err < math.inf
                            else MIN_FACTOR)
                rejected = True
                if h < length * MIN_STEP:
                    raise StepSizeUnderflow(f"step underflow at t = {t}",
                                            tau_star=t, samples=unpack(out))
                continue
            u1 = length if clamped else u + step
            cont, limit = None, u1
            diverged = blowup is not None and _norm(y1) > blowup[0]
            if diverged:
                # bisect the continuous extension for the threshold crossing
                cont = _dense(y, y1, dt, ks)
                lo, hi = 0.0, 1.0
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if _norm(_interp(cont, (mid,))[0]) > blowup[0]:
                        hi = mid
                    else:
                        lo = mid
                limit = u + hi * step
            # the nodes inside the step (before the crossing)
            ths = []
            while m < len(arcs) and arcs[m] < limit:
                ths.append((arcs[m] - u) / step)
                m += 1
            if ths:
                out += _interp(cont or _dense(y, y1, dt, ks), ths)
            if diverged:
                t_star = t + hi * dt
                raise BlowUp(f"{blowup[1]} diverged at flow parameter {t_star}",
                             tau_star=t_star, samples=unpack(out))
            # the nodes the step lands on
            while m < len(arcs) and (arcs[m] == u1 or clamped):
                out.append(y1)
                m += 1
            fac = SAFETY * err ** -0.2 if err > 0 else MAX_FACTOR
            fac = min(1.0 if rejected else MAX_FACTOR, max(MIN_FACTOR, fac))
            h = max(h, step * fac) if clamped else step * fac
            t = tb if clamped else ta + u1 * unit
            u, y, k1, rejected = u1, y1, ks[-1], False
        i = j
    return unpack(out)
