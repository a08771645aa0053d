"""Limit-cycle and spiral diagnostics for complex-plane trajectories, spectral
and contraction checks for flow monotonicity, characteristic thermal scales,
and the phase-diagram scan over potential powers.

The cycle detector works on raw point sequences: nearest-return distance from
the start point, winding number by summed argument increments around the loop
centroid (`closure_integral`), and an optional log-spiral fit (t = c e^{-theta})
when the trajectory does not close.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from itertools import accumulate

from . import specfun as sf
from .errors import (DegenerateTrajectory, DimensionMismatch, DomainError,
                     FlowStopped, PoleError, _finite, _Record)
from .integrate import solve_rk4
from .rgflow import lr_beta_closed_form

_WINDING_TOL = 1e-3


class CycleReport(_Record):
    __slots__ = ("closed", "winding", "period_estimate", "min_return_distance",
                 "spiral_c", "spiral_residual")  # period: samples to the nearest return
    _defaults = {"spiral_c": None, "spiral_residual": None}


class PhasePoint(_Record):
    __slots__ = ("N", "scale", "exponent_fit", "divergent")  # power N may be fractional
    _defaults = {"exponent_fit": None, "divergent": False}


def _aitken_focus(pts: list) -> complex:
    """Convergence point of a geometrically contracting spiral.

    For z_k = f + c rho^k every index triple gives f exactly through the
    Aitken delta-squared formula; the median over triples makes the estimate
    robust to non-uniform sampling.
    """
    scale = 1e-12 * max(map(abs, pts))
    f = [(a * c - b * b) / den for a, b, c in zip(pts, pts[1:], pts[2:])
         if abs(den := a - 2 * b + c) > scale]
    if not f or not all(map(cmath.isfinite, f)):
        raise DegenerateTrajectory("no curvature information for a focus estimate")
    re, im = sorted(v.real for v in f), sorted(v.imag for v in f)
    lo, hi = (len(f) - 1) // 2, len(f) // 2
    return complex(re[lo] / 2 + re[hi] / 2, im[lo] / 2 + im[hi] / 2)


def detect_limit_cycle(traj: Sequence[complex], tol: float = 1e-3) -> CycleReport:
    """Classify a trajectory as a closed orbit or an open (spiral) arc.

    Closure requires the nearest return to the start point (searched after
    the point of maximal excursion) to fall within ``tol`` and the winding
    number of the start-to-return loop about its centroid c,
    `closure_integral` (loop - c).imag / 2 pi, to be a nonzero integer within
    1e-3.  Where the loop's polyline passes within 1e-9 max|z - c| of c the
    winding is undefined and reported as 0.  Raises DomainError where the
    coordinates overflow.
    """
    pts = [complex(z) for z in traj]
    if len(pts) < 8 or not all(map(cmath.isfinite, pts)):
        raise DomainError("trajectory needs at least 8 samples, all finite")
    try:
        d0 = [abs(z - pts[0]) for z in pts]
        if max(d0) < 1e-15:
            raise DegenerateTrajectory("all trajectory points coincide")
        far = max(2, d0.index(max(d0)))
        k = min(range(far, len(pts)), key=d0.__getitem__)
        loop = pts[: k + 1]
        c = sum(loop) / len(loop)
        rel = [z - c for z in loop]
        r = max(map(abs, rel))
        # the distance from c of each segment's nearest point a + s (b - a), s in [0, 1]
        near = any(abs(a + min(1.0, max(0.0, -(a / (b - a)).real if b != a else 0.0))
                       * (b - a)) < 1e-9 * r for a, b in zip(rel, rel[1:]))
    except OverflowError:
        r = math.inf
    if not r < math.inf:
        raise DomainError("trajectory coordinates overflow the winding number")
    wind = 0.0 if near else closure_integral(rel).imag / (2.0 * math.pi)
    wind_int = int(round(wind))
    ret = d0[k]
    closed = ret < tol and wind_int != 0 and abs(wind - wind_int) < _WINDING_TOL

    spiral_c = spiral_residual = None
    if not closed:
        try:
            focus = _aitken_focus(pts)
            w = [z - focus for z in pts]
            t = [abs(v) for v in w]
            if all(x > 0 for x in t):
                theta = accumulate((cmath.phase(b / a) for a, b in zip(w, w[1:])),
                                   initial=cmath.phase(w[0]))
                spiral_c, spiral_residual = spiral_invariant_fit(zip(theta, t))
        except (DegenerateTrajectory, DomainError, OverflowError):
            pass
    return CycleReport(closed=closed, winding=wind_int,
                       period_estimate=float(k), min_return_distance=ret,
                       spiral_c=spiral_c, spiral_residual=spiral_residual)


def closure_integral(values: Sequence[complex]) -> complex:
    """Summed principal-branch increments of log V along a trajectory.

    For a closed orbit on which V never vanishes the sum is 2*pi*i times an
    integer (the winding of V); a nonvanishing real part or a non-integer
    imaginary part diagnoses an open arc.  This is the quadrature form of
    the contour criterion oint d(log V) = 0 mod 2*pi*i.  A ratio b/a out of the double
    range adds log b - log a, angle wrapped into (-pi, pi]; non-finite V raises DomainError.
    """
    vals = [complex(v) for v in values]
    if not all(map(cmath.isfinite, vals)):
        raise DomainError("closure integral needs finite values")
    if 0 in vals:
        raise PoleError("log V undefined where V vanishes")
    try:
        total = sum((cmath.log(b / a) for a, b in zip(vals, vals[1:])), 0j)
    except ValueError:  # a ratio underflowed to 0
        total = math.inf
    return total if cmath.isfinite(total) else sum(map(_log_ratio, vals, vals[1:]), 0j)


def _log_ratio(a: complex, b: complex) -> complex:
    if (q := b / a) != 0 and cmath.isfinite(q):
        return cmath.log(q)
    d = cmath.log(b) - cmath.log(a)  # the ratio left the double range: wrap the angle
    return complex(d.real, d.imag - 2.0 * math.pi * ((d.imag > math.pi) - (d.imag <= -math.pi)))


def spiral_invariant_fit(points) -> tuple:
    """Least-squares intercept of ln t = ln c - theta over (theta, t) pairs.

    The slope is fixed at -1 by the spiral model; only c is fitted.  Returns
    (c, RMS residual); a large residual flags a non-spiral.
    """
    pts = [(float(th), float(t)) for th, t in points]
    if not pts:
        raise DomainError("no points to fit")
    for _, t in pts:
        if t <= 0:
            raise DomainError("spiral fit requires positive radii")
    lnc = sum(math.log(t) + th for th, t in pts) / len(pts)
    res = math.sqrt(sum((math.log(t) + th - lnc) ** 2 for th, t in pts)
                    / len(pts))
    return math.exp(lnc), res


def coupling_angle_slope(g: float, theta: float, n: int) -> float:
    """Phase-portrait slope d(g cos theta)/d(g sin theta) of the coupling.

    Evaluates (-1)^n tan(2 theta + arctan(g^n sin n theta/(g^n cos n theta - 1))
    + arctan(g sin theta/(g cos theta - 1))).
    """
    dn = g ** n * math.cos(n * theta) - 1.0
    d1 = g * math.cos(theta) - 1.0
    if abs(dn) < 1e-12 or abs(d1) < 1e-12:
        raise PoleError("slope undefined where g^n cos(n theta) = 1 or g cos(theta) = 1")
    # the tangent-line angle is arg(z^2 (z^n - 1)(z - 1)) mod pi, z = g e^{i theta}
    return (-1.0) ** n * math.tan(2.0 * theta
                                  + math.atan(g ** n * math.sin(n * theta) / dn)
                                  + math.atan(g * math.sin(theta) / d1))


class _PortraitEnd(FlowStopped):
    """A coupling-angle portrait left the disc |z| <= 4 or reached a zero."""


def coupling_angle_portrait(n: int, z0: complex, step: float = 1e-3,
                            max_steps: int = 15000,
                            flip_sign: bool = False) -> list:
    """Integral curve of the coupling-angle line field through z0.

    The field's angle is arg V mod pi, V = z^2 (z^n - 1)(z - 1), with the
    slope's sign (-1)^n: the curve is an orbit of V/|V| for even n and of
    conj(V)/|V| for odd n (``flip_sign`` swaps the two), traced in arc
    length by `solve_rk4` and sampled every ``step``, ``max_steps`` times at
    most; the samples are returned as a list.  It ends before |z| passes 4,
    before it comes within ``step`` of a zero of V (0, 1 and the n-th roots
    of unity), or at its first return to within 0.02 of z0.  A z0 within
    ``step`` of a zero raises DomainError.
    """
    if n < 1 or n % 1 or step <= 0 or max_steps < 1:
        raise DomainError("n must be a positive integer, step and max_steps positive")
    z0 = complex(z0)
    zeros = [0j] + [cmath.exp(2j * math.pi * k / n) for k in range(int(n))]
    if min(abs(z0 - w) for w in zeros) <= step:
        raise DomainError(f"z0 = {z0} lies within step = {step} of a zero of the field")
    conj = (n % 2 == 1) != flip_sign

    def field(t, z):
        v = z * z * (z ** n - 1.0) * (z - 1.0)
        return (v.conjugate() if conj else v) / abs(v)

    events = ((lambda t, z: abs(z) - 4.0, _PortraitEnd),
              (lambda t, z: step - min(abs(z - w) for w in zeros), _PortraitEnd))
    try:
        pts = solve_rk4(field, [k * step for k in range(max_steps + 1)], z0, events=events)
    except _PortraitEnd as stop:
        pts = stop.samples
    farthest, armed = 0.0, False
    for i, z in enumerate(pts):
        # a step straight through a zero (the real axis) skips its event, not its samples
        if any(abs(z - w) < step for w in zeros):
            return pts[:i]
        # the first return: within 0.02 of z0, once more than 0.3 and more
        # than 60 % of the farthest distance so far away
        d = abs(z - z0)
        farthest = max(farthest, d)
        armed = armed or farthest > 0.3 and d > 0.6 * farthest
        if armed and d < 0.02:
            return pts[:i + 1]
    return pts


def spectrum_variance(eigs: Sequence[complex]) -> complex:
    """Trace-form spectral variance Tr(H^2) - Tr(H)^2 = sum l_i^2 - (sum l_i)^2.

    For a conjugate pair {l e^{i t}, l e^{-i t}} this equals -2 l^2
    independently of t, the sign witness for flow non-monotonicity.
    """
    vals = [complex(v) for v in eigs]
    if not vals:
        raise DomainError("spectrum must be non-empty")
    s1 = sum(vals)
    s2 = sum(v * v for v in vals)
    return s2 - s1 * s1


def c_flow_contraction(betas: Sequence[float], metric) -> float:
    """Contraction -12 beta^T G beta of the flow vector with the coupling metric.

    Negative for positive-definite G (monotone decrease of the central
    function); sign-indefinite metrics open the violation branch.
    """
    b = [float(x) for x in betas]
    try:
        return -12.0 * sum(bi * sum(float(g) * bj for g, bj in zip(row, b, strict=True))
                           for bi, row in zip(b, metric, strict=True))
    except (TypeError, ValueError):  # a row that is a number or of another length
        raise DimensionMismatch("metric must be square with dimension len(betas)") from None


class ThermalScales(_Record):
    __slots__ = ("n_b", "t_b", "tau", "complex_branch")


def matsubara_scale(gamma: float, C: float, E: float) -> ThermalScales:
    """Characteristic occupation, temperature, and flow-time scales.

    n_B = gamma sqrt(L), T_B = E/(2 pi log(1 - gamma/L)), tau = sqrt(pi) erfi(L)
    with L = log(C/gamma).  Negative log arguments are evaluated on the
    principal branch and flagged via ``complex_branch``.
    """
    if gamma <= 0 or C <= 0:
        raise DomainError("gamma and C must be positive")
    L = math.log(C / gamma)
    if abs(L) < 1e-12:
        raise PoleError("temperature scale diverges at log(C/gamma) = 0")
    if abs(gamma / L - 1.0) < 1e-12:
        raise PoleError("temperature scale diverges at gamma/log(C/gamma) = 1")
    n_b = gamma * cmath.sqrt(L)
    arg = 1.0 - gamma / L
    t_b = E / (2.0 * math.pi * cmath.log(arg))
    tau = math.sqrt(math.pi) * sf.erfi(L)
    return ThermalScales(n_b=n_b, t_b=t_b, tau=tau,
                         complex_branch=(L < 0 or arg < 0))


def matsubara_propagator_sum(E0: float, nu: float, N: float,
                             n_max: int = 256) -> float:
    """Mode sum of the dressed propagator 1/(2 sin^2(nu/N)(i w_n + E0)).

    Frequencies w_n = 2 pi n at unit inverse temperature, n in
    [-n_max, n_max]; the +-n pairs leave the real series
    1/E0 + sum 2 E0/(w_n^2 + E0^2), truncated with the integral tail
    estimate E0/(2 pi^2 n_max).  Grows as N^2 at fixed small nu, the
    left-branch observable of the phase diagram.  Raises Overflow where
    nu/N leaves the double range.
    """
    if E0 <= 0 or nu <= 0 or N <= 0 or n_max < 1:
        raise DomainError("E0, nu, N must be positive and n_max >= 1")
    s2 = math.sin(_finite(nu / N, f"nu/N = {nu}/{N}")) ** 2
    if s2 == 0:
        raise PoleError("mode sum undefined where sin(nu/N) vanishes")
    tot = 1.0 / E0
    for n in range(1, n_max + 1):
        w = 2.0 * math.pi * n
        tot += 2.0 * E0 / (w * w + E0 * E0)
    tot += E0 / (2.0 * math.pi ** 2 * n_max)
    return tot / (2.0 * s2)


def phase_diagram_scan(N_values: Sequence[float], gamma: float, E0: float,
                       k: complex, nu: float,
                       n_max: int = 256) -> list:
    """Scale-versus-power scan across integer and fractional potential powers.

    For each N the mode-summed propagator supplies the renormalized
    correlation input, the advanced closed form yields beta, and the reduced
    coupling magnitude |gamma-tilde| is emitted as the scale.  Integer-N
    points (at least three required) share a joint log-log power-law fit
    recorded in ``exponent_fit``; fractional powers are marked non-critical
    (exponent_fit None).  Non-finite scales are marked divergent rather than
    raised.  Note the joint fit over N >= 2 tracks the N^(-1/N-1/2) law well;
    including N = 1 degrades it because of the local slope -3/2 there.
    """
    if gamma <= 0 or E0 <= 0:
        raise DomainError("gamma and E0 must be positive")
    Ns = [float(N) for N in N_values]
    raw = []
    for N in Ns:
        try:
            g_inv = matsubara_propagator_sum(E0, nu, N, n_max)
            _, gt = lr_beta_closed_form(g_inv, k, N, nu, form="advanced")
            scale = abs(gt)
            divergent = not math.isfinite(scale)
        except (OverflowError, ZeroDivisionError):
            scale, divergent = math.inf, True
        raw.append((N, scale, divergent))

    exponent = _integer_power_fit(raw)[0]
    return [PhasePoint(N=N, scale=s,
                       exponent_fit=exponent if _is_integer(N) and not dv else None,
                       divergent=dv)
            for N, s, dv in raw]


def _is_integer(N: float) -> bool:
    return abs(N - round(N)) < 1e-9


def _integer_power_fit(points) -> tuple:
    """(exponent, r^2, count): the power-law fit of scale against N over the count
    integer-N, non-divergent, positive-scale (N, scale, divergent) triples; None, None below 3."""
    pts = [(N, s) for N, s, dv in points if not dv and s > 0 and _is_integer(N)]
    if len(pts) < 3:
        return None, None, len(pts)
    exponent, _, r2 = power_law_fit([p[0] for p in pts], [p[1] for p in pts])
    return exponent, r2, len(pts)


def power_law_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple:
    """Log-log least squares y = a x^p; returns (p, a, r^2)."""
    if len(xs) < 3 or len(xs) != len(ys):
        raise DomainError("need at least 3 matched samples")
    if not all(0 < v < math.inf for v in (*xs, *ys)):
        raise DomainError("power-law fit requires positive finite data")
    lx, ly = [math.log(v) for v in xs], [math.log(v) for v in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    sxx = sum((u - mx) ** 2 for u in lx)
    if sxx == 0:
        raise DomainError("power-law fit needs two distinct x values")
    p = sum((u - mx) * (v - my) for u, v in zip(lx, ly)) / sxx
    ss_res = sum((v - my - p * (u - mx)) ** 2 for u, v in zip(lx, ly))
    ss_tot = sum((v - my) ** 2 for v in ly)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return p, math.exp(my - p * mx), r2


def wavefn_z_relation(z_r: float) -> float:
    """Left normalization from the right one, Z_L = e^{Z_R}."""
    return math.exp(z_r)
