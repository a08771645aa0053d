"""Series and phase-function solutions of the complex oscillator eigenproblem.

The eigenproblem is (-d^2/dx^2 + x^2 + (i gamma)^{2N} x^{2N}) psi = E psi,
solved by the power-series ansatz alpha = sum c_n x^n e^{i n theta(x)} plus a
separately integrated phase function theta.
"""
from __future__ import annotations

import cmath
import math
import warnings

from . import specfun as sf
from .errors import DomainError, Overflow, SingularSystem, TruncationWarning, _all_finite, _Record
from .integrate import solve_rk4


class OscParams(_Record):
    """Oscillator parameters: half-power N, coupling strength gamma, trial energy E."""

    __slots__ = ("N", "gamma", "E")

    def _check(self):
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


class SeriesSolution(_Record):
    __slots__ = ("coeffs", "theta_const", "params")  # coeffs c_0 .. c_{n_max}


def frobenius_coeffs(params: OscParams, seeds=(1.0, 0.0), theta_const=0.0, n_max=20):
    """Series coefficients c_0..c_{n_max} of the Frobenius ansatz.

    The relation for each n >= 0 is

        c_{n+2} + k_N c_{n+2N} (n-2N)/((n+1)(n+2)) e^{-2(N+1)theta}
          = [c_{n-2} e^{-2iN theta} - c_{n-4N-2} e^{-i(4N+2)theta}/(2N+1)^2
             + (i gamma)^{2N} c_{n-2N} + E c_n] / ((n+1)(n+2))

    with c_m = 0 for m < 0 or m > n_max, k_0 = 1 and k_N = 2 for N >= 1 (at
    gamma = 0, theta = 0, N = 0 this is the Hermite recurrence c_{n+2} =
    c_n (E - n)/((n+1)(n+2))).  Relation n couples only c_{n-4N-2}..c_{n+2N},
    so the n_max - 1 truncated relations over c_2..c_{n_max} are one banded
    system, solved by Gaussian elimination with partial pivoting among the at
    most 4N + 5 rows that can hold each column.  The pure-Python solve takes
    30-60 ms at n_max = 2000 and N = 4, which bounds n_max.  Raises
    DomainError unless 2 <= n_max <= 2000, Overflow where a theta phase
    factor leaves the double range, and SingularSystem for a zero pivot or
    non-finite coefficients.
    """
    if not 2 <= n_max <= 2000:
        raise DomainError("n_max must be between 2 and 2000")
    N = params.N
    th = complex(theta_const)
    E = complex(params.E)
    pot = params.potential_coeff
    c = {0: complex(seeds[0]), 1: complex(seeds[1])}
    # k_N = 2 comes from the underlying coupled equation; with 1 the truncated
    # system is rank-deficient at N = 1 (row n = 0)
    k = 2.0 if N else 1.0
    try:
        e_alg = cmath.exp(-2.0 * (N + 1) * th)
        e_m2 = cmath.exp(-2j * N * th)
        e_m42 = cmath.exp(-1j * (4 * N + 2) * th)
    except OverflowError:
        raise Overflow(f"theta phase factors overflow at theta = {th}") from None

    # relation n as {m: coefficient of c_m}; the seeds fold into rhs
    rows, rhs = [], []
    for n in range(n_max - 1):
        den = (n + 1.0) * (n + 2.0)
        row, b = {}, 0j
        for m, v in ((n + 2, 1.0), (n + 2 * N, k * (n - 2.0 * N) / den * e_alg),
                     (n - 2, -e_m2 / den),
                     (n - 4 * N - 2, e_m42 / ((2.0 * N + 1) ** 2 * den)),
                     (n - 2 * N, -pot / den), (n, -E / den)):
            if 0 <= m < 2:
                b -= v * c[m]
            elif 2 <= m <= n_max:
                row[m] = row.get(m, 0.0) + v
        rows.append(row)
        rhs.append(b)

    # column m lives in rows n <= m + 4N + 2; eliminated entries and the
    # pivot are popped, so a pivot row keeps only the columns after m
    active, pivots = [], []
    for m in range(2, n_max + 1):
        active.extend(range(len(active) + len(pivots),
                            min(m + 4 * N + 3, n_max - 1)))
        p = max(active, key=lambda r: abs(rows[r].get(m, 0.0)))
        active.remove(p)
        prow = rows[p]
        piv = prow.pop(m, 0.0)
        if piv == 0:
            # in floats this is an exact singularity or a coefficient beyond
            # the double range whose pivot underflowed
            raise SingularSystem(f"Frobenius coefficients are not finite: "
                                 f"zero pivot at c_{m}")
        for r in active:
            row = rows[r]
            a = row.pop(m, 0.0)
            if a:
                f = a / piv
                for j, v in prow.items():
                    row[j] = row.get(j, 0.0) - f * v
                rhs[r] -= f * rhs[p]
        pivots.append((m, p, piv))
    for m, p, piv in reversed(pivots):
        c[m] = (rhs[p] - sum(v * c[j] for j, v in rows[p].items())) / piv

    coeffs = tuple(c[m] for m in range(n_max + 1))
    if not _all_finite(coeffs):
        raise SingularSystem("Frobenius coefficients are not finite")
    return SeriesSolution(coeffs, th, params)


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
