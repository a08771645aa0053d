"""Series-solution and phase-function tests with dense-solve / shooting oracles."""
import cmath
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from cflow import oscillator as osc
from cflow import specfun as sf
from cflow.errors import DomainError, Overflow, SingularSystem, TruncationWarning


# ---------------------------------------------------------------------------
# frobenius_coeffs
# ---------------------------------------------------------------------------


def test_hermite_limit_truncation():
    # At N=0, gamma=0 the recurrence is c_{n+2} = c_n (E-n)/((n+1)(n+2)).
    s = osc.frobenius_coeffs(osc.OscParams(0, 0.0, 2.0), (1, 0), 0.0, 20)
    assert s.coeffs[2] == 1.0
    assert all(c == 0 for c in s.coeffs[4::2])
    s0 = osc.frobenius_coeffs(osc.OscParams(0, 0.0, 0.0), (1, 0), 0.0, 10)
    assert s0.coeffs[2] == 0.0


def test_hermite_limit_odd_sector():
    s = osc.frobenius_coeffs(osc.OscParams(0, 0.0, 3.0), (0, 1), 0.0, 15)
    assert all(c == 0 for c in s.coeffs[5::2])


def _dense_oracle(params, seeds, theta, n_max):
    # Same truncated relations assembled into a dense system, solved by LU.
    N = params.N
    E = complex(params.E)
    pot = params.potential_coeff
    th = complex(theta)
    A = np.zeros((n_max - 1, n_max - 1), dtype=complex)
    rhs = np.zeros(n_max - 1, dtype=complex)
    e_alg = cmath.exp(-2.0 * (N + 1) * th)
    e_m2 = cmath.exp(-2j * N * th)
    e_m42 = cmath.exp(-1j * (4 * N + 2) * th)

    def add(row, m, val):
        if m < 0 or m > n_max:
            return
        if m < 2:
            rhs[row] -= val * seeds[m]
            return
        A[row, m - 2] += val

    for n in range(n_max - 1):
        den = (n + 1.0) * (n + 2.0)
        add(n, n + 2, 1.0)
        add(n, n + 2 * N, 2.0 * (n - 2.0 * N) / den * e_alg)
        add(n, n - 2, -e_m2 / den)
        add(n, n - 4 * N - 2, e_m42 / ((2.0 * N + 1) ** 2 * den))
        add(n, n - 2 * N, -pot / den)
        add(n, n, -E / den)
    return np.linalg.solve(A, rhs)


@pytest.mark.parametrize("N,gamma,E,theta", [
    (1, 0.5, 1.0, 0.0),
    (1, 0.5, 1.0, 0.1 + 0.05j),
    (2, 0.7, 1.5 + 0.2j, 0.0),
    (3, 0.4, 0.8, 0.05j),
    (4, 0.6, 1.2 - 0.3j, 0.02 + 0.01j),
    (5, 0.3, 0.9 + 0.1j, 0.0),
])
def test_banded_matches_dense_oracle(N, gamma, E, theta):
    p = osc.OscParams(N, gamma, E)
    s = osc.frobenius_coeffs(p, (1.0, 0.3), theta, 24)
    want = _dense_oracle(p, (1.0, 0.3), theta, 24)
    assert np.max(np.abs(np.array(s.coeffs[2:]) - want)) < 1e-12


@pytest.mark.parametrize("gamma,E,theta,seeds", [
    (0.5, 1.3 - 0.4j, 0.3, (1.0, 0.0)),
    (2.0, -0.7 + 0.2j, 0.2 + 0.1j, (0.4 - 0.2j, 1.1 + 0.3j)),
    (0.05, 2.5 + 1.0j, -0.1j, (0.0, 1.0)),
])
def test_n0_matches_forward_recurrence(gamma, E, theta, seeds):
    # At N = 0 the relations are lower triangular: c_{n+2} = [c_{n-2}
    # (1 - e^{-2i theta}) + (pot + E - n e^{-2 theta}) c_n]/((n+1)(n+2)).
    p = osc.OscParams(0, gamma, E)
    n_max = 40
    s = osc.frobenius_coeffs(p, seeds, theta, n_max)
    pot = p.potential_coeff
    want = [complex(seeds[0]), complex(seeds[1])]
    for n in range(n_max - 1):
        prev = want[n - 2] if n >= 2 else 0.0
        want.append((prev * (1 - cmath.exp(-2j * theta))
                     + (pot + E - n * cmath.exp(-2 * theta)) * want[n])
                    / ((n + 1.0) * (n + 2.0)))
    scale = max(abs(c) for c in want)
    assert max(abs(a - b) for a, b in zip(s.coeffs, want)) <= 1e-14 * scale


@pytest.mark.parametrize("N,gamma,E", [(1, 0.5, 1e300), (4, 1e80, 1.0)])
def test_singular_system_raises(N, gamma, E):
    with pytest.raises(SingularSystem):
        osc.frobenius_coeffs(osc.OscParams(N, gamma, E), n_max=40)


@pytest.mark.parametrize("theta", [-200, 1000j])
def test_theta_phase_overflow_raises(theta):
    with pytest.raises(Overflow):
        osc.frobenius_coeffs(osc.OscParams(1, 0.5, 1.0), theta_const=theta)


@pytest.mark.parametrize("N", [0, 1])
def test_n_max_above_bound_rejected(N):
    # the pure-Python solve costs 30-60 ms at n_max 2000 and N = 4,
    # so n_max <= 2000
    with pytest.raises(DomainError):
        osc.frobenius_coeffs(osc.OscParams(N, 0.5, 1.0), n_max=2001)


def test_n_max_at_bound_solves():
    s = osc.frobenius_coeffs(osc.OscParams(1, 0.5, 1.0), n_max=2000)
    assert len(s.coeffs) == 2001
    assert all(cmath.isfinite(c) for c in s.coeffs)


def test_series_tail_relations_small():
    # Residual of the truncated relation generating function on |x| <= 0.5:
    # only the unenforced tail relations contribute, and they must be tiny.
    p = osc.OscParams(1, 0.5, 1.0)
    n_max = 24
    s = osc.frobenius_coeffs(p, (1, 0), 0.0, n_max)
    c = list(s.coeffs)
    N, E, pot = 1, 1.0, p.potential_coeff

    def rel(n):
        den = (n + 1.0) * (n + 2.0)
        get = lambda m: c[m] if 0 <= m <= n_max else 0.0
        lhs = get(n + 2) + 2.0 * (n - 2.0 * N) / den * get(n + 2 * N)
        rhs = (get(n - 2) - get(n - 4 * N - 2) / (2.0 * N + 1) ** 2
               + pot * get(n - 2 * N) + E * get(n)) / den
        return lhs - rhs

    for x in (0.25, 0.5):
        resid = sum(rel(n) * x ** n for n in range(n_max + 1))
        assert abs(resid) < 1e-6


def test_convergence_ratio_examples():
    assert osc.convergence_ratio(osc.OscParams(2, 1.0, 1.0), 0.0, 4, 2) == 0.0
    assert abs(osc.convergence_ratio(osc.OscParams(1, 2.0, 1.0), 0.0, 10, 1) - 2.0) < 1e-12
    assert abs(osc.convergence_ratio(osc.OscParams(1, 1.0, 1.0), math.pi / 2, 6, 1) - 4.0) < 1e-12


# ---------------------------------------------------------------------------
# theta_phase
# ---------------------------------------------------------------------------


def test_phase_constants_at_n1():
    a, k, b, c, d = osc.phase_constants(1)
    assert (a, k) == (12.0, 3.0)
    # Gamma arguments (4N+3)/(2N+2), 1/(2N+2), 2/(2N+1), N/(N+1)
    assert ((4 * 1 + 3) / (2 * 1 + 2), 1 / (2 * 1 + 2), 2 / (2 * 1 + 1), 1 / (1 + 1)) == (
        7 / 4, 1 / 4, 2 / 3, 1 / 2)
    assert (b, c, d) == (-1 / 4, 3 / 4, 1 / 2)


def test_theta_small_t_limit_is_finite():
    # The t->0 limit is a combination of complete gammas; convergence is
    # O(t^{1-c}) so the check uses a tiny t with a matching tolerance.
    N, gamma, E = 1, 0.3, 1.0
    p = osc.OscParams(N, gamma, E)
    a, k, b, c, d = osc.phase_constants(N)
    lim = (-E * k * a ** -c * sf.gamma(1.0 / (2 * N + 2))
           - 0.5 * k * sf.cpow(a, b) * cmath.exp(-1j * math.pi * b) * sf.gamma(2.0 / (2 * N + 1))
           - k * p.potential_coeff * a ** -d * sf.gamma(N / (N + 1.0)))
    got = osc.theta_phase(p, 1e-16)
    assert abs(got - lim) < 1e-3


@pytest.mark.xfail(
    strict=True,
    reason="the printed closed-form phase is not an antiderivative of the printed"
    " first-order ODE: the residual theta'(x) e^{x^{2N+1}/(2N+1)} - integral"
    " is not constant in x (checked numerically)",
)
def test_theta_matches_ode_integration():
    N, gamma, E = 1, 0.3, 1.0
    p = osc.OscParams(N, gamma, E)
    a = (2 * N + 1) * (2 * N + 2)
    pot = p.potential_coeff

    def beta(x):
        return x ** 2 - x ** (4 * N + 2) / (2 * N + 1) ** 2 + pot * x ** (2 * N) - E

    def inner(x):
        re = quad(lambda u: (beta(u) * math.exp(u ** (2 * N + 2) / a)).real, 0, x)[0]
        im = quad(lambda u: (beta(u) * math.exp(u ** (2 * N + 2) / a)).imag, 0, x)[0]
        return re + 1j * im

    def f(x, th):
        return math.exp(-x ** (2 * N + 1) / (2 * N + 1)) * inner(x)

    x1 = 1.0
    y0 = complex(osc.theta_phase(p, 1e-6 ** (2 * N + 2) / a))
    sol = solve_ivp(lambda x, th: [f(x, th)], (1e-6, x1), [y0],
                    method="RK45", rtol=1e-10, atol=1e-12)
    want = sol.y[0, -1]
    got = osc.theta_phase(p, x1 ** (2 * N + 2) / a)
    assert abs(got - want) / abs(want) < 1e-5


def test_theta_requires_positive_n():
    with pytest.raises(DomainError):
        osc.theta_phase(osc.OscParams(0, 0.0, 1.0), 0.3)


# ---------------------------------------------------------------------------
# assemble_wavefunction
# ---------------------------------------------------------------------------


def test_wavefunction_at_origin_is_c0():
    s = osc.frobenius_coeffs(osc.OscParams(1, 0.5, 1.0), (2.5, 0.1), 0.0, 12)
    assert osc.assemble_wavefunction(0.0, s) == 2.5


def test_wavefunction_matches_ode_shooting_at_n0():
    # Dual route: series summation vs RK45 shooting of the recurrence's
    # generating ODE alpha'' + x alpha' - E alpha = 0, times the prefactor.
    E = 1.3
    p = osc.OscParams(0, 0.0, E)
    s = osc.frobenius_coeffs(p, (1, 0), 0.0, 40)

    def f(x, y):
        return np.array([y[1], E * y[0] - x * y[1]], dtype=complex)

    for x1 in (0.4, 0.9, 1.5):
        sol = solve_ivp(f, (0.0, x1), np.array([1.0, 0.0], dtype=complex),
                        method="RK45", rtol=1e-10, atol=1e-12)
        want = math.exp(-x1 * x1 / 2.0) * sol.y[0, -1]
        got = osc.assemble_wavefunction(x1, s)
        assert abs(got - want) / abs(want) < 1e-5


def test_wavefunction_decays_at_large_x():
    p = osc.OscParams(1, 0.5, 1.0)
    s = osc.frobenius_coeffs(p, (1, 0), 0.0, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        vals = [abs(osc.assemble_wavefunction(x, s)) for x in (2.0, 3.0, 4.0)]
    assert vals[2] < vals[1] < vals[0]
    assert abs(complex(osc.assemble_wavefunction(0.5, s))) < np.inf


def test_wavefunction_phase_path_matches_explicit_sum():
    # psi(x) = e^{-t} sum_n c_n x^n e^{i n theta(t)} with t = x^4/12 at N = 1.
    p = osc.OscParams(1, 0.5, 1.0 + 0.2j)
    s = osc.frobenius_coeffs(p, (1, 0.3), 0.0, 30)
    for x in (0.4, 0.9):
        t = x ** 4 / 12.0
        theta = osc.theta_phase(p, t)
        want = cmath.exp(-t) * sum(c * x ** n * cmath.exp(1j * n * theta)
                                   for n, c in enumerate(s.coeffs))
        got = osc.assemble_wavefunction(x, s, p)
        assert abs(got - want) <= 1e-12 * abs(want)
        # the phase really enters: theta = 0 gives another value
        assert abs(got - osc.assemble_wavefunction(x, s)) > 1e-6 * abs(want)


def test_wavefunction_truncation_warning():
    p = osc.OscParams(1, 0.5, 1.0)
    s = osc.frobenius_coeffs(p, (1, 0), 0.0, 6)
    with pytest.warns(TruncationWarning):
        osc.assemble_wavefunction(2.5, s)


# ---------------------------------------------------------------------------
# unitary_phase_ode_solve
# ---------------------------------------------------------------------------


def test_phase_ode_zero_forcing_stays_put():
    # theta'' = 0 forcing at x = 0 with zero slope: a single zero-length
    # segment keeps the initial data.
    out = osc.unitary_phase_ode_solve(0.0, [0.0])
    assert out == [(0.0, 0.0 + 0.0j)]


def test_phase_ode_residual():
    xs = np.linspace(0.0, 2.0, 401)
    out = osc.unitary_phase_ode_solve(0.5, xs)
    th = np.array([v for _, v in out])
    h = xs[1] - xs[0]
    d1 = (th[2:] - th[:-2]) / (2 * h)
    d2 = (th[2:] - 2 * th[1:-1] + th[:-2]) / (h * h)
    x_mid = xs[1:-1]
    resid = d2 + 1j * x_mid * d1 + (0.5 - x_mid ** 2)
    assert np.max(np.abs(resid)) < 1e-3 * max(1.0, np.max(np.abs(th)))


def test_phase_ode_residual_fine_grid_converges():
    # Fourth-order integrator: the FD residual shrinks with the grid, and
    # a direct high-accuracy re-integration agrees to 1e-6.
    xs = np.linspace(0.0, 1.0, 11)
    out1 = osc.unitary_phase_ode_solve(0.5, xs)
    out2 = osc.unitary_phase_ode_solve(0.5, np.linspace(0.0, 1.0, 101))
    assert abs(out1[-1][1] - out2[-1][1]) < 1e-6


def test_phase_ode_bounded_spiral():
    out = osc.unitary_phase_ode_solve(0.25, np.linspace(0.0, 3.0, 61))
    th = np.array([v for _, v in out])
    assert np.all(np.isfinite(th.view(float)))
    assert np.max(np.abs(th)) < 50.0


def test_phase_ode_rejects_bad_grid():
    with pytest.raises(DomainError):
        osc.unitary_phase_ode_solve(0.5, [0.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# rho_omega
# ---------------------------------------------------------------------------


def test_rho_omega_zero_frequency():
    assert osc.rho_omega(0.0, 1.0) == 1.0


def test_rho_omega_terms_vs_oracles():
    omega, k = 0.5, 1.0
    w32 = abs(omega) ** 1.5
    arg_bei = 2 * w32 / (3 * math.sqrt(3) * cmath.sqrt(1j))
    arg_j = 2 * w32 / (3 * math.sqrt(3))
    want = (sf.kelvin_bei_complex(-1 / 3, arg_bei)
            + sf.bessel("J", -1 / 3, arg_j)
            + sf.pfq((1,), (7 / 6, 4 / 3, 5 / 3, 11 / 6), omega ** 6 / (2.18 ** 3)))
    assert abs(osc.rho_omega(omega, k) - want) < 1e-12


def test_rho_omega_small_omega_leading_orders():
    # Each oscillatory term grows like its order -1/3 leading power while
    # the hypergeometric term tends to 1.
    omega, k = 1e-4, 1.0
    got = osc.rho_omega(omega, k)
    w32 = omega ** 1.5
    arg_j = 2 * w32 / (3 * math.sqrt(3))
    lead_j = sf.cpow(arg_j / 2, -1.0 / 3.0) / sf.gamma(2.0 / 3.0)
    # the Bessel piece dominates and matches its leading order to ~arg^2
    assert abs(got.real) > 10
    arg_bei = 2 * w32 / (3 * math.sqrt(3) * cmath.sqrt(1j))
    lead_bei = (math.sin(math.pi * 0.75 * (-1 / 3))
                * sf.cpow(arg_bei / 2, -1.0 / 3.0) / sf.gamma(2.0 / 3.0))
    assert abs(got - (lead_j + lead_bei + 1.0)) / abs(got) < 1e-4


def test_rho_omega_requires_nonzero_k():
    with pytest.raises(DomainError):
        osc.rho_omega(0.5, 0.0)
