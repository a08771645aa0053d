"""Series and phase-function solutions of the complex oscillator eigenproblem.

The eigenproblem is (-d^2/dx^2 + x^2 + (i gamma)^{2N} x^{2N}) psi = E psi,
solved by the power-series ansatz alpha = sum c_n x^n e^{i n theta(x)} plus a
separately integrated phase function theta.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .errors import DomainError, SingularSystem, TruncationWarning
from .integrate import solve_rk4


@dataclass(frozen=True)
class OscParams:
    """Oscillator parameters: half-power N, coupling strength gamma, trial energy E."""

    N: int
    gamma: float
    E: complex

    def __post_init__(self):
        if self.N < 0:
            raise DomainError("N must be non-negative")
        if self.gamma < 0:
            raise DomainError("gamma must be non-negative")

    @property
    def potential_coeff(self) -> complex:
        # (i gamma)^{2N}; zero coupling removes the interaction term entirely,
        # including at N = 0 where a literal power would give (i*0)**0 = 1.
        if self.gamma == 0:
            return 0.0 + 0.0j
        return (1j * self.gamma) ** (2 * self.N)


@dataclass(frozen=True)
class SeriesSolution:
    coeffs: tuple           # c_0 .. c_{n_max}
    theta_const: complex
    params: OscParams = None


def _c(seq, idx):
    if idx < 0 or idx >= len(seq):
        return 0.0 + 0.0j
    return seq[idx]


def frobenius_coeffs(params: OscParams, seeds=(1.0, 0.0), theta_const=0.0, n_max=20):
    """Series coefficients c_0..c_{n_max} of the Frobenius ansatz.

    The relation for each n >= 0 is

        c_{n+2} + k_N c_{n+2N} (n-2N)/((n+1)(n+2)) e^{-2(N+1)theta}
          = [c_{n-2} e^{-2iN theta} - c_{n-4N-2} e^{-i(4N+2)theta}/(2N+1)^2
             + (i gamma)^{2N} c_{n-2N} + E c_n] / ((n+1)(n+2))

    with c_m = 0 for m < 0 or m > n_max.  For N = 0, k_0 = 1 and the
    relation is an explicit forward recurrence in c_{n+2} (exact in floats;
    at gamma = 0, theta = 0 it is the Hermite recurrence c_{n+2} =
    c_n (E - n)/((n+1)(n+2))).  For N >= 1, k_N = 2 and the unknowns
    c_{n+2} and c_{n+2N} are coupled, so the n_max - 1 truncated relations
    over c_2..c_{n_max} are solved as one dense linear system, whose
    O(n_max^2) memory bounds n_max to 2000.  Raises DomainError unless
    2 <= n_max <= 2000, and SingularSystem for a singular system or
    non-finite coefficients (either N).
    """
    if not 2 <= n_max <= 2000:
        raise DomainError("n_max must be between 2 and 2000")
    N = params.N
    th = complex(theta_const)
    E = complex(params.E)
    pot = params.potential_coeff
    c0, c1 = complex(seeds[0]), complex(seeds[1])

    if N == 0:
        # the c_{n-2} terms cancel at theta = 0; keep the general form
        coeffs = [c0, c1] + [0j] * (n_max - 1)
        e_alg = cmath.exp(-2.0 * th)        # e^{-2(N+1)theta}, N = 0
        e_m2 = cmath.exp(-2j * 0 * th)      # e^{-2iN theta} = 1
        e_m42 = cmath.exp(-2j * th)         # e^{-i(4N+2)theta}
        for n in range(n_max - 1):
            denom = (n + 1.0) * (n + 2.0)
            rhs = (_c(coeffs, n - 2) * e_m2 - _c(coeffs, n - 2) * e_m42
                   + pot * coeffs[n] + E * coeffs[n])
            coeffs[n + 2] = (rhs / denom - coeffs[n] * n * e_alg / denom)
    else:
        n_unknown = n_max - 1            # c_2 .. c_{n_max}
        A = np.zeros((n_unknown, n_unknown), dtype=complex)
        rhs = np.zeros(n_unknown, dtype=complex)
        e_alg = cmath.exp(-2.0 * (N + 1) * th)
        e_m2 = cmath.exp(-2j * N * th)
        e_m42 = cmath.exp(-1j * (4 * N + 2) * th)

        def add(row, m, val):
            # unknown c_m sits in column m-2; seeds fold into the RHS
            if m < 0 or m > n_max:
                return
            if m < 2:
                rhs[row] -= val * (c0 if m == 0 else c1)
                return
            A[row, m - 2] += val

        for n in range(n_unknown):
            denom = (n + 1.0) * (n + 2.0)
            add(n, n + 2, 1.0)
            # The factor 2 comes from the underlying coupled equation; without
            # it the truncated system is rank-deficient at N = 1 (row n = 0).
            add(n, n + 2 * N, 2.0 * (n - 2.0 * N) / denom * e_alg)
            add(n, n - 2, -e_m2 / denom)
            add(n, n - 4 * N - 2, e_m42 / ((2.0 * N + 1) ** 2 * denom))
            add(n, n - 2 * N, -pot / denom)
            add(n, n, -E / denom)
        try:
            sol = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(str(exc)) from exc
        coeffs = (c0, c1) + tuple(sol)
    if not np.all(np.isfinite(coeffs)):
        raise SingularSystem("Frobenius coefficients are not finite")
    return SeriesSolution(tuple(coeffs), th, params)


def convergence_ratio(params: OscParams, theta_const: complex, n: int, bigN: int) -> float:
    """Dominant coefficient-ratio modulus |(n - 2 bigN)/(i gamma)^{2 bigN} e^{-2i theta}|."""
    if params.gamma <= 0:
        raise DomainError("convergence ratio requires gamma > 0")
    val = (n - 2.0 * bigN) / (1j * params.gamma) ** (2 * bigN) * cmath.exp(-2j * complex(theta_const))
    return abs(val)


def phase_constants(N: int):
    a = (2.0 * N + 1) * (2.0 * N + 2)
    k = 2.0 * N + 1
    b = (1.0 - 2 * N) / (2.0 * N + 2)
    c = (2.0 * N + 1) / (2.0 * N + 2)
    d = 1.0 / (N + 1.0)
    return a, k, b, c, d


def theta_phase(params: OscParams, t: complex) -> complex:
    """Closed-form phase function theta(t), t = x^{2N+2}/((2N+1)(2N+2)).

    Four incomplete-gamma terms with algebraic prefactors, evaluated on the
    principal branch; requires N >= 1 (the last term carries a 1/N factor).
    """
    N = params.N
    if N < 1:
        raise DomainError("theta_phase requires N >= 1")
    t = complex(t)
    a, k, b, c, d = phase_constants(N)
    E = complex(params.E)
    pot = params.potential_coeff
    g1 = sf.upper_incomplete_gamma((4.0 * N + 3) / (2.0 * N + 2), -t)
    g2 = sf.upper_incomplete_gamma(1.0 / (2.0 * N + 2), -t)
    g3 = sf.upper_incomplete_gamma(2.0 / (2.0 * N + 1), -t)
    g4 = sf.upper_incomplete_gamma(N / (N + 1.0), -t)
    et = cmath.exp(-t)
    term1 = -sf.cpow(a * t, c) * (-2.0 * (N + 1) * t + (4.0 * N + 3) * et * g1) / ((2.0 * N + 1) * (4.0 * N + 3))
    term2 = -E * k * sf.cpow(a * t, -c) * (-2.0 * (N + 1) * t + et * sf.cpow(t, c) * g2)
    term3 = -0.5 * k * sf.cpow(a * t, b) * (-(2.0 * N + 1) * t + et * sf.cpow(-t, -b) * g3)
    term4 = -k * pot * sf.cpow(a * t, -d) * (-(N + 1.0) * t + et * sf.cpow(t, d) * N * g4) / N
    return term1 + term2 + term3 + term4


def assemble_wavefunction(x: complex, sol: SeriesSolution,
                          phase_params: OscParams = None) -> complex:
    """psi(x) = e^{-x^{2N+2}/((2N+1)(2N+2))} sum_n c_n x^n e^{i n theta(x)}.

    theta is the closed-form `theta_phase(phase_params, t)` at
    t = x^{2N+2}/((2N+1)(2N+2)); phase_params=None uses theta = 0.  Emits
    TruncationWarning when the last retained term exceeds 1e-8 of the
    partial sum.
    """
    params = sol.params
    x = complex(x)
    N = params.N
    a = (2.0 * N + 1) * (2.0 * N + 2)
    if phase_params is None:
        theta = 0.0 + 0.0j
    else:
        t = sf.cpow(x, 2 * N + 2) / a if x != 0 else 0.0
        theta = theta_phase(phase_params, t) if t != 0 else 0.0 + 0.0j
    pref = cmath.exp(-sf.cpow(x, 2 * N + 2) / a) if x != 0 else 1.0
    total = 0.0 + 0.0j
    last = 0.0 + 0.0j
    xn = 1.0 + 0.0j
    for n, cn in enumerate(sol.coeffs):
        last = cn * xn * cmath.exp(1j * n * theta)
        total += last
        xn *= x
    if abs(last) > 1e-8 * max(abs(total), 1e-300):
        warnings.warn("series tail not negligible at this x", TruncationWarning)
    return pref * total


def unitary_phase_ode_solve(c1_mod2: float, x_grid):
    """Integrate theta'' + i x theta' + (|c1|^2 - x^2) = 0 over the grid.

    Returns [(x, theta)] samples at the grid points, starting from
    theta = theta' = 0 at the first grid point.
    """
    xs = [float(x) for x in x_grid]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise DomainError("x_grid must be strictly increasing")

    def f(x, y):
        theta, dtheta = y
        return (dtheta, -1j * x * dtheta - (c1_mod2 - x * x))

    ys = solve_rk4(f, xs, [0.0, 0.0])
    return [(x, complex(y[0])) for x, y in zip(xs, ys)]


def rho_omega(omega: float, k: float) -> complex:
    """Spectral-density combination of Kelvin, Bessel and 1F4 terms.

    bei_{-1/3}(2|w|^{3/2}/(3 sqrt(3) sqrt(i k^2)))
      + J_{-1/3}(2|w|^{3/2}/(3 sqrt(3) (k^4)^{1/4}))
      + 1F4(1; 7/6, 4/3, 5/3, 11/6; w^6/(2.18^3 k^4)),
    overall constant fixed to 1.
    """
    if k == 0:
        raise DomainError("rho_omega requires k != 0")
    w32 = abs(omega) ** 1.5
    arg_bei = 2.0 * w32 / (3.0 * math.sqrt(3.0) * cmath.sqrt(1j * k * k))
    arg_j = 2.0 * w32 / (3.0 * math.sqrt(3.0) * (k ** 4) ** 0.25)
    term_bei = sf.kelvin_bei_complex(-1.0 / 3.0, arg_bei) if omega != 0 else 0.0
    term_j = sf.bessel("J", -1.0 / 3.0, arg_j) if omega != 0 else 0.0
    term_f = sf.pfq((1.0,), (7.0 / 6, 4.0 / 3, 5.0 / 3, 11.0 / 6),
                    omega ** 6 / (2.18 ** 3 * k ** 4))
    return term_bei + term_j + term_f
