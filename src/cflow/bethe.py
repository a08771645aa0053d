"""Bethe-ansatz machinery: root solving, wavefunction reconstruction,
Bessel-type auxiliary solutions, quasi-momentum, and the scaling flow that
connects to the Gross-Pitaevskii reduction.

Roots x_j satisfy x_j = (1/2) sum_{k!=j} 1/(x_j - x_k)
+ (-1)^N sum_{k!=j} (x_j - x_k)^{2N}; the factor i^{2N} is kept exact.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from . import specfun as sf
from .errors import (CollisionError, DomainError, NoConvergence, PoleError,
                     SingularFlow, _finite, _Record)
from .integrate import solve_rk4
from .rgflow import Trajectory

_MIN_SEP = 1e-9
_NEWTON_STEPS = 100


class BetheRoots(_Record):
    __slots__ = ("roots", "N", "residual")  # complex x_j; max fixed-point defect

    def _check(self):
        _check_separation(self.roots)


class RiccatiParams(_Record):
    """Auxiliary-equation parameters: scaling power q, sign zeta, amplitude a."""

    __slots__ = ("q", "zeta", "a")

    def _check(self):
        if self.q <= 0:
            raise DomainError("q must be positive")


def _system(x, N, lam):
    """Defects F, Jacobian J and max|F| of the system at interaction weight
    lam, in one pass over the pairs j < k.  Under d -> -d the terms 1/(2d)
    and d^{2N-1} change sign and d^{2N} does not, so row k reuses row j's.
    Raises CollisionError as `_check_separation` does."""
    n = len(x)
    sign = lam * (-1.0) ** N
    rhs = np.zeros(n, dtype=complex)
    J = np.eye(n, dtype=complex)
    for j in range(n):
        for k in range(j + 1, n):
            d = x[j] - x[k]
            if abs(d) < _MIN_SEP:
                raise CollisionError("roots are not pairwise distinct")
            h, e = 0.5 / d, sign * d ** (2 * N)
            rhs[j] += h + e
            rhs[k] += e - h
            a, b = -0.5 / (d * d), sign * 2 * N * d ** (2 * N - 1)
            J[j, j] -= a + b
            J[j, k] += a + b
            J[k, k] -= a - b
            J[k, j] += a - b
    F = x - rhs
    return F, J, float(np.max(np.abs(F)))


def _check_separation(x):
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(0.5 * (x[i] - x[j])) < 0.5 * _MIN_SEP:  # halved: |x_i - x_j| may overflow
                raise CollisionError("roots are not pairwise distinct")


def _newton(x, N, lam, tol):
    """(roots, max|F|) once max|F| < tol at weight lam, else None."""
    for _ in range(_NEWTON_STEPS):
        F, J, worst = _system(x, N, lam)
        if worst < tol:
            return x, worst
        try:
            step = np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            step = F  # fixed-point fallback
        x = x - step
    return None


def _homotopy(x0, N, tol):
    """Carry x0, the roots at interaction weight 0 (the scaled Hermite zeros),
    to weight 1 along lam = 0 -> 0.3+0.4i -> 1 in adaptive steps, each
    corrected by Newton.  The detour through complex weights steers around
    real-axis folds where root families turn complex.  Returns the roots and
    their max fixed-point defect, as measured by the last Newton call, at
    lam = 1."""
    x = x0 + 1e-3j * np.arange(1, len(x0) + 1)
    lam = 0.0 + 0.0j
    for target in (0.3 + 0.4j, 1.0 + 0.0j):
        t, dt = 0.0, 0.25
        start = lam
        while t < 1.0 - 1e-12:
            trial = start + min(1.0, t + dt) * (target - start)
            found = _newton(x, N, trial, tol)
            if found is None:
                dt /= 2
                if dt < 1e-7:
                    raise NoConvergence("homotopy stalled before full interaction")
            else:
                (x, worst), lam, t = found, trial, min(1.0, t + dt)
                dt = min(dt * 1.5, 0.25)
    return x, worst


def solve_bethe_roots(n: int, N: int, tol: float = 1e-12) -> BetheRoots:
    """Roots of the n-root system at full interaction, by homotopy.

    The Hermite zeros of degree n scaled by 1/sqrt(2) solve the system at
    zero interaction; `_homotopy` carries them to full interaction.  The
    reported residual is the max fixed-point defect there, as measured by
    the homotopy's last Newton call, at lam = 1.  Raises `NoConvergence`
    when the continuation stalls and `CollisionError` when two roots meet
    on the way.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    if tol <= 0:
        raise DomainError("tol must be positive")
    if n == 1:
        return BetheRoots((0.0 + 0.0j,), N, 0.0)
    zeros = np.polynomial.hermite.hermroots([0.0] * n + [1.0])
    x, worst = _homotopy(np.asarray(zeros / math.sqrt(2.0), dtype=complex), N, tol)
    return BetheRoots(tuple(complex(v) for v in x), N, worst)


def symmetric_pair_root(N: int, tol: float = 1e-14) -> float:
    """Positive root of the symmetric-ansatz reduction of the first pair
    equation, x = 1/(4x) + (-1)^N (2x)^{2N}; for N = 1 this is the real root
    of 16 x^3 + 4 x^2 - 1 = 0.

    Note the full two-root system admits no symmetric solution (subtracting
    its two equations forces (x1 - x2)^2 = 1); the reduction applies the
    ansatz to the first equation alone.
    """
    sign = (-1.0) ** N
    x = 0.5
    for _ in range(200):
        f = x - 0.25 / x - sign * (2.0 * x) ** (2 * N)
        if abs(f) < tol:
            return x
        df = 1.0 + 0.25 / (x * x) - sign * 4.0 * N * (2.0 * x) ** (2 * N - 1)
        x -= f / df
    raise NoConvergence("scalar reduction did not converge")


def bethe_wavefunction(x: complex, roots: BetheRoots) -> complex:
    """psi(x) = e^{-x^2/2} prod_j (x - x_j) exp((-1)^N (x-x_j)^{2N+1}/(2N+1))."""
    x = complex(x)
    N = roots.N
    sign = (-1.0) ** N
    val = cmath.exp(-0.5 * x * x)
    for xj in roots.roots:
        d = x - xj
        val *= d * cmath.exp(sign * d ** (2 * N + 1) / (2 * N + 1))
    return val


def _riccati(x, params, branch):
    """(u, u') at x from one Bessel pair at order nu and one at nu - 1: by
    the chain rule dz/dx = sqrt(-+zeta) x^{q-1} and the recurrences
    f' = f_{nu-1} - (nu/z) f for J, Y, I and K' = -K_{nu-1} - (nu/z) K."""
    x = complex(x)
    if x == 0:
        raise DomainError("requires x != 0")
    if params.a == 0:
        return 0.0 + 0.0j, 0.0 + 0.0j
    if branch == "zeta_pos":
        z_kind, w_kind, root = "J", "Y", cmath.sqrt(-params.zeta)
    elif branch == "zeta_neg":
        z_kind, w_kind, root = "I", "K", cmath.sqrt(params.zeta)
    else:
        raise DomainError(f"unknown branch {branch!r}")
    nu = 1.0 / (2.0 * params.q)
    z = root * sf.cpow(x, params.q) / params.q
    f = sf.bessel(z_kind, nu, z) + sf.bessel(w_kind, nu, z)
    z1, w1 = sf.bessel(z_kind, nu - 1, z), sf.bessel(w_kind, nu - 1, z)
    df = (z1 + w1 if branch == "zeta_pos" else z1 - w1) - (nu / z) * f
    sqrt_x = sf.cpow(x, 0.5)
    return (params.a * sqrt_x * f,
            params.a * (0.5 * sf.cpow(x, -0.5) * f
                        + sqrt_x * df * root * sf.cpow(x, params.q - 1.0)))


def riccati_u(x, params: RiccatiParams, branch: str = "zeta_neg") -> complex:
    """Auxiliary solution u = a sqrt(x) [Z_{1/(2q)}(sqrt(-+zeta) x^q/q) + W_{1/(2q)}(.)].

    zeta_pos pairs J and Y, zeta_neg pairs I and K; both satisfy
    u'' = zeta x^{2q-2} u.
    """
    return _finite(_riccati(x, params, branch)[0], "Riccati u")


def riccati_u_derivative(x, params: RiccatiParams, branch: str = "zeta_neg") -> complex:
    """du/dx, from the same Bessel evaluations as `riccati_u`."""
    return _finite(_riccati(x, params, branch)[1], "Riccati u'")


def quasi_momentum(x: float, roots: BetheRoots, params: RiccatiParams,
                   branch: str = "zeta_neg") -> complex:
    """p = p_x + p_theta with p_x = ix + (1/i) sum_k 1/(x - x_k) and
    p_theta = i sum_j u'(x - x_j) / sum_j u(x - x_j)."""
    x = complex(x)
    num = 0.0 + 0.0j
    den = 0.0 + 0.0j
    px = 1j * x
    for xk in roots.roots:
        d = x - xk
        if abs(0.5 * d) < 0.5e-12:  # halved, as |d| itself may overflow
            raise PoleError("quasi-momentum has a pole at every root")
        px += (1.0 / 1j) / d
        u, du = _riccati(d, params, branch)
        num += du
        den += u
    if den == 0:
        raise PoleError("auxiliary-solution denominator vanished")
    return _finite(px + 1j * num / den, "quasi-momentum")


def gp_scaling_flow(q2: float, s_contour, chi0: complex, xi0: complex) -> Trajectory:
    """Scaling flow d chi/ds = s chi / (1 - s^{2q-1}) along a complex contour,
    with the documented fallback d chi/ds = s chi at 2q = 1; xi flows as
    xi(s) = xi0 e^s.  Left/right membership of a sample is the sign of Re s.
    """
    pts = [complex(s) for s in s_contour]
    if len(pts) < 2:
        raise DomainError("contour needs at least two points")
    power = q2 - 1.0
    fallback = abs(power) < 1e-14

    def coeff(s):
        if fallback:
            return s
        d = 1.0 - sf.cpow(s, power) if s != 0 else 1.0 + 0.0j
        if abs(d) < 1e-6:
            raise SingularFlow(f"contour too close to the singular locus at s = {s}")
        return s / d

    def f(s, y):
        return coeff(s) * y

    chis = solve_rk4(f, pts, complex(chi0))
    xi0 = complex(xi0)
    return Trajectory(tuple(pts), tuple(chis), tuple(xi0 * cmath.exp(s) for s in pts))
