"""Limit-cycle and spiral diagnostics for complex-plane trajectories, spectral
and contraction checks for flow monotonicity, characteristic thermal scales,
and the phase-diagram scan over potential powers.

The cycle detector works on raw point sequences: nearest-return distance from
the start point, winding number by summed argument increments around the loop
centroid, and an optional log-spiral fit (t = c e^{-theta}) when the
trajectory does not close.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import specfun as sf
from .errors import (DegenerateTrajectory, DimensionMismatch, DomainError,
                     PoleError, _finite)
from .rgflow import lr_beta_closed_form

_WINDING_TOL = 1e-3


@dataclass(frozen=True)
class CycleReport:
    closed: bool
    winding: int
    period_estimate: float        # samples from start to nearest return
    min_return_distance: float
    spiral_c: Optional[float] = None
    spiral_residual: Optional[float] = None


@dataclass(frozen=True)
class PhasePoint:
    N: float                      # potential power, may be fractional
    scale: float
    exponent_fit: Optional[float] = None
    divergent: bool = False


def _aitken_focus(pts: np.ndarray) -> complex:
    """Convergence point of a geometrically contracting spiral.

    For z_k = f + c rho^k every index triple gives f exactly through the
    Aitken delta-squared formula; the median over triples makes the estimate
    robust to non-uniform sampling.
    """
    num = pts[:-2] * pts[2:] - pts[1:-1] ** 2
    den = pts[:-2] - 2 * pts[1:-1] + pts[2:]
    ok = np.abs(den) > 1e-12 * np.max(np.abs(pts))
    if not np.any(ok):
        raise DegenerateTrajectory("no curvature information for a focus estimate")
    f = num[ok] / den[ok]
    return complex(np.median(f.real), np.median(f.imag))


@np.errstate(over="ignore", invalid="ignore")
def detect_limit_cycle(traj: Sequence[complex], tol: float = 1e-3) -> CycleReport:
    """Classify a trajectory as a closed orbit or an open (spiral) arc.

    Closure requires the nearest return to the start point (searched after
    the point of maximal excursion) to fall within ``tol`` and the centroid
    winding number of the start-to-return loop to be a nonzero integer
    within 1e-3.  Near the double range the arithmetic overflows quietly;
    raises DomainError where the winding number is then lost.
    """
    pts = np.asarray([complex(z) for z in traj])
    if len(pts) < 8:
        raise DomainError("trajectory needs at least 8 samples")
    d0 = np.abs(pts - pts[0])
    if float(np.max(d0)) < 1e-15:
        raise DegenerateTrajectory("all trajectory points coincide")

    far = int(np.argmax(d0))
    if far < 2:
        far = 2
    k = far + int(np.argmin(d0[far:]))
    ret = float(d0[k])
    loop = pts[: k + 1]
    centroid = loop.mean()
    rel = loop - centroid
    ang = np.unwrap(np.angle(rel))
    wind = float((ang[-1] - ang[0]) / (2.0 * math.pi))
    if not math.isfinite(wind):
        raise DomainError("trajectory coordinates overflow the winding number")
    wind_int = int(round(wind))
    closed = (ret < tol and wind_int != 0
              and abs(wind - wind_int) < _WINDING_TOL)

    spiral_c = spiral_residual = None
    if not closed:
        try:
            focus = _aitken_focus(pts)
            t = np.abs(pts - focus)
            if np.all(t > 0):
                theta = np.unwrap(np.angle(pts - focus))
                spiral_c, spiral_residual = spiral_invariant_fit(
                    list(zip(theta, t)))
        except (DegenerateTrajectory, DomainError):
            pass
    return CycleReport(closed=closed, winding=wind_int,
                       period_estimate=float(k), min_return_distance=ret,
                       spiral_c=spiral_c, spiral_residual=spiral_residual)


def closure_integral(values: Sequence[complex]) -> complex:
    """Summed principal-branch increments of log V along a trajectory.

    For a closed orbit on which V never vanishes the sum is 2*pi*i times an
    integer (the winding of V); a nonvanishing real part or a non-integer
    imaginary part diagnoses an open arc.  This is the quadrature form of
    the contour criterion oint d(log V) = 0 mod 2*pi*i.
    """
    vals = np.asarray([complex(v) for v in values])
    if np.any(vals == 0):
        raise PoleError("log V undefined where V vanishes")
    return complex(np.sum(np.log(vals[1:] / vals[:-1])))


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
    return (-1.0) ** n * math.tan(_portrait_angle(g, theta, n))


def _portrait_angle(g: float, theta: float, n: int) -> float:
    # tangent-line angle of the slope field; identical to
    # arg(z^2 (z^n - 1)(z - 1)) mod pi with z = g e^{i theta}
    dn = g ** n * math.cos(n * theta) - 1.0
    d1 = g * math.cos(theta) - 1.0
    return (2.0 * theta
            + math.atan(g ** n * math.sin(n * theta) / dn)
            + math.atan(g * math.sin(theta) / d1))


def coupling_angle_portrait(n: int, z0: complex, step: float = 1e-3,
                            max_steps: int = 15000, coast: float = 0.01,
                            flip_sign: bool = False) -> np.ndarray:
    """Integral curve of the coupling-angle line field through z0.

    The slope defines a direction only up to sign; the integrator keeps the
    unit tangent continuous along the curve (classical RK4 at fixed arc-length
    step).  For even n the tangent angle is the field angle itself and for
    odd n its negative, matching the (-1)^n prefactor of the slope;
    ``flip_sign`` selects the opposite convention.  Within ``coast`` of the
    stationary points z = 0 and z = 1 the previous direction is held, so a
    loop through a stationary point is traversed as a closed geometric curve.
    Integration stops at the first return to the start point, on escape
    (|z| > 4), or after ``max_steps`` steps.
    """
    if step <= 0 or max_steps < 1 or coast < 0:
        raise DomainError("step and max_steps must be positive, coast nonnegative")
    negate = (n % 2 == 1) != flip_sign
    sgn = -1.0 if negate else 1.0
    z = complex(z0)
    pts = [z]
    prev = None

    def tangent(w, ref):
        if abs(w) < coast or abs(w - 1.0) < coast:
            return ref if ref is not None else 1.0 + 0.0j
        t = cmath.exp(1j * sgn * _portrait_angle(abs(w), cmath.phase(w), n))
        if ref is not None and t.real * ref.real + t.imag * ref.imag < 0:
            t = -t
        return t

    armed = False
    maxd = 0.0
    for _ in range(max_steps):
        k1 = tangent(z, prev)
        if prev is None:
            prev = k1
        k2 = tangent(z + 0.5 * step * k1, k1)
        k3 = tangent(z + 0.5 * step * k2, k2)
        k4 = tangent(z + step * k3, k3)
        z = z + step * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        prev = k4
        pts.append(z)
        d = abs(z - pts[0])
        maxd = max(maxd, d)
        if maxd > 0.3 and d > 0.6 * maxd:
            armed = True
        if armed and d < 0.02:
            break
        if abs(z) > 4.0:
            break
    return np.asarray(pts)


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
    b = np.asarray(betas, dtype=float)
    G = np.asarray(metric, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1] or G.shape[0] != b.shape[0]:
        raise DimensionMismatch("metric must be square with dimension len(betas)")
    return float(-12.0 * b @ G @ b)


@dataclass(frozen=True)
class ThermalScales:
    n_b: complex                  # mean occupation gamma sqrt(log(C/gamma))
    t_b: complex                  # condensation temperature scale
    tau: complex                  # flow time sqrt(pi) erfi(log(C/gamma))
    complex_branch: bool          # any log argument went negative


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

    int_pts = [(N, s) for N, s, dv in raw
               if not dv and s > 0 and abs(N - round(N)) < 1e-9]
    exponent = None
    if len(int_pts) >= 3:
        exponent, _, _ = power_law_fit([p[0] for p in int_pts],
                                       [p[1] for p in int_pts])
    out = []
    for N, s, dv in raw:
        is_int = abs(N - round(N)) < 1e-9
        out.append(PhasePoint(N=N, scale=s,
                              exponent_fit=(exponent if is_int and not dv
                                            else None),
                              divergent=dv))
    return out


def power_law_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple:
    """Log-log least squares y = a x^p; returns (p, a, r^2)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if len(x) < 3 or len(x) != len(y):
        raise DomainError("need at least 3 matched samples")
    if np.any(x <= 0) or np.any(y <= 0):
        raise DomainError("power-law fit requires positive data")
    lx, ly = np.log(x), np.log(y)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(math.exp(coef[1])), r2


def wavefn_z_relation(z_r: float) -> float:
    """Left normalization from the right one, Z_L = e^{Z_R}."""
    return math.exp(z_r)
