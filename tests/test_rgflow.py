"""Tests for the RG flow engines.

Oracles: scipy adaptive quadrature for the closed-form beta scales and the
contour effective potentials, exact Fraction arithmetic for the
continued-fraction recursion, truncated Fock-space operator algebra for the
normal-ordering weights, and extrapolated-Euler reintegration for the flows.
"""
import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cflow import rgflow as rg
from cflow.errors import (BlowUp, BranchCut, DimensionMismatch, DivisionByZero,
                          DomainError, ExceptionalPoint, FlowStopped, Overflow,
                          PoleError, StepSizeUnderflow)
from cflow.integrate import *  # noqa: F401,F403  (the DOP853 tableau, for the reference kernel)
from cflow.integrate import MAX_STEPS, solve_rk4
from cflow.integrate import _dense as pair_dense
from cflow.integrate import _dp_step as pair_step
from cflow.integrate import _interp as pair_interp


def cquad(f, a, b):
    re, _ = quad(lambda x: f(x).real, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
    im, _ = quad(lambda x: f(x).imag, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
    return complex(re, im)


# ---------------------------------------------------------------------------
# discrete step recursion
# ---------------------------------------------------------------------------

class TestTauStepRecursion:
    def test_decoupled_identity_at_zero_coupling(self):
        out = rg.tau_step_recursion(rg.FlowState(0.0, 1.7 + 0.3j, 0.0))
        assert out.g_inv == 1.7 + 0.3j
        assert out.gamma == 0.0

    def test_continuity_root_against_quadratic_formula(self):
        # larger root of g^2 - 2g + 0.01 = 0
        expect = 1.0 + math.sqrt(1.0 - 0.01)
        assert rg.continuity_root(2.0, 0.1) == pytest.approx(expect, rel=1e-14)

    def test_full_step_satisfies_both_implicit_equations(self):
        prev = rg.FlowState(0.0, 2.0, 0.1)
        out = rg.tau_step_recursion(prev)
        g, gam = out.g_inv, out.gamma
        assert abs(g - (prev.g_inv - gam * gam / g)) < 1e-10
        assert abs(gam - (prev.gamma + gam * gam * prev.gamma / g)) < 1e-10

    def test_branch_collision_at_degenerate_discriminant(self):
        with pytest.raises(ExceptionalPoint):
            rg.continuity_root(0.2, 0.1)

    def test_zero_propagator_rejected(self):
        with pytest.raises(DomainError):
            rg.tau_step_recursion(rg.FlowState(0.0, 0.0, 0.1))

    @given(st.floats(0.5, 5.0), st.floats(0.0, 0.2))
    @settings(max_examples=50, deadline=None)
    def test_step_consistency_property(self, g0, gam0):
        out = rg.tau_step_recursion(rg.FlowState(0.0, g0, gam0))
        g, gam = out.g_inv, out.gamma
        assert abs(g * g - g0 * g + gam * gam) < 1e-9 * max(1.0, abs(g0) ** 2)


# ---------------------------------------------------------------------------
# one-loop invariant flows
# ---------------------------------------------------------------------------

class TestOneLoopInvariantFlow:
    def test_v1_negative_t_raises(self):
        # t ~ 1/(9 gamma) sinks below the integrator's absolute tolerance
        grid = np.linspace(1e7, 1.4712130083212238e16, 43)
        with pytest.raises(DomainError):
            rg.one_loop_invariant_flow("separated_v1", grid, 1.0)

    @pytest.mark.parametrize("gamma_end", [1e10, 1e13])
    def test_v1_g_inv_off_its_level_set_raises(self, gamma_end):
        # t ~ 1/(9 gamma) falls to where ATOL, not RTOL, bounds its error
        grid = np.linspace(1e7, gamma_end, 43)
        with pytest.raises(DomainError, match="gamma = "):
            rg.one_loop_invariant_flow("separated_v1", grid, 1.0)

    def test_v1_invariant_drift_below_tolerance(self):
        grid = np.linspace(0.1, 1.0, 60)
        C0 = (2.0 / 3.0) * 4.0 ** -0.5 - 2.0 * math.sqrt(0.1)  # t0 = 4 at gamma0
        traj, inv = rg.one_loop_invariant_flow("separated_v1", grid, C0)
        drift = max(abs(c - inv[0]) for c in inv) / abs(inv[0])
        assert drift < 1e-6

    def test_v1_zero_constant_level_set(self):
        grid = np.linspace(0.2, 0.9, 20)
        traj, _ = rg.one_loop_invariant_flow("separated_v1", grid, 0.0)
        for s in traj.states:
            level = 3.0 * s.gamma.real ** 2
            assert abs(s.g_inv - level) < 1e-6 * level

    def test_v2_unit_point(self):
        traj, _ = rg.one_loop_invariant_flow("appendix_v2", [0.5, 1.0], 1.0)
        assert traj.states[-1].g_inv == pytest.approx(1.0)

    def test_v2_negative_argument_raises_in_real_mode(self):
        with pytest.raises(DomainError):
            rg.one_loop_invariant_flow("appendix_v2", [2.0, 3.0], 0.0)

    def test_v2_complex_mode_permits_negative_argument(self):
        traj, _ = rg.one_loop_invariant_flow("appendix_v2", [2.0, 3.0], 0.0,
                                             complex_mode=True)
        assert abs(traj.states[-1].g_inv.imag) > 0

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            rg.one_loop_invariant_flow("separated_v1", [0.5, 0.4], 0.0)

    def test_v1_empty_grid_raises(self):
        with pytest.raises(DomainError, match="at least one point"):
            rg.one_loop_invariant_flow("separated_v1", [], 1.0)


class TestTrajectory:
    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("bad", [complex(1.0, math.nan), math.nan, math.inf])
    def test_non_finite_entry_raises(self, column, bad):
        cols = [[0.0, 0.5, 1.0], [1.0, 1.0 + 1j, 2.0], [0.5, 0.5, 0.5]]
        cols[column][1] = bad
        with pytest.raises(DomainError):
            rg.Trajectory(*map(tuple, cols))

    def test_finite_entries_whose_sum_overflows_are_kept(self):
        traj = rg.Trajectory((0.0, 1.0), (1e308, 1.7e308), (1e308j, 1.7e308j))
        assert traj.g_inv == (1e308, 1.7e308)

    def test_columns_of_unequal_length_raise(self):
        with pytest.raises(DimensionMismatch):
            rg.Trajectory((0.0, 1.0), (1.0, 2.0), (0.5,))
        with pytest.raises(DomainError):
            rg.Trajectory((), (), ())

    def test_states_are_built_from_the_columns(self):
        traj = rg.n_power_flow(rg.FlowState(0.0, 0.8, 0.4), 2,
                               rg.ray_contour(math.pi / 8, 0.5, 11))
        assert traj.states == tuple(rg.FlowState(*row) for row in
                                    zip(traj.taus, traj.g_inv, traj.gamma))
        assert len(traj.states) == 11


# ---------------------------------------------------------------------------
# N-power flow
# ---------------------------------------------------------------------------

class TestNPowerFlow:
    def test_riccati_closed_form_at_zero_coupling(self):
        contour = rg.ray_contour(0.0, 0.5, 21)
        traj = rg.n_power_flow(rg.FlowState(0.0, 1.0, 0.0), 1, contour)
        for s in traj.states:
            expect = 1.0 / (1.0 - s.tau)
            assert abs(s.g_inv - expect) < 1e-8

    def test_blowup_reported_with_location(self):
        contour = rg.ray_contour(0.0, 2.0, 41)
        with pytest.raises(BlowUp) as exc:
            rg.n_power_flow(rg.FlowState(0.0, 1.0, 0.0), 1, contour)
        # pole of 1/(1 - tau) at tau = 1
        assert abs(complex(exc.value.tau_star) - 1.0) < 0.05

    @pytest.mark.parametrize("n_points", [1, 0])
    def test_ray_contour_needs_two_points(self, n_points):
        with pytest.raises(DomainError):
            rg.ray_contour(0.0, 1.0, n_points)

    def test_log_gamma_equals_contour_integral_of_g_inv(self):
        contour = rg.ray_contour(math.pi / 6, 0.6, 601)
        traj = rg.n_power_flow(rg.FlowState(0.0, 0.8, 0.4), 2, contour)
        taus = np.array([s.tau for s in traj.states])
        gs = np.array([s.g_inv for s in traj.states])
        integral = np.trapezoid(gs, taus)
        lhs = cmath.log(traj.states[-1].gamma / traj.states[0].gamma)
        assert abs(lhs - integral) < 1e-5

    @pytest.mark.parametrize("g0", [0.8, 1.0, 1.25])
    def test_node_on_the_pole_gets_no_sample(self, g0):
        # g_inv = g0/(1 - g0 tau) has its pole on the node tau = 1/g0
        contour = rg.ray_contour(0.0, 2.0, 41)
        with pytest.raises(BlowUp) as exc:
            rg.n_power_flow(rg.FlowState(0.0, g0, 0.0), 2, contour)
        pole = round(20 / g0)
        assert abs(contour[pole] - 1.0 / g0) < 1e-15
        assert abs(complex(exc.value.tau_star) - 1.0 / g0) < 1e-9
        assert len(exc.value.samples) == pole

    def test_fixed_step_convergence_order_at_least_eight(self):
        def rhs(tau, y):
            g, gam = y
            return (g * g - gam * gam, gam * g)

        y0 = (0.5 + 0j, 0.3 + 0j)

        def integrate(nsteps):
            y, k = y0, rhs(0.0, y0)
            h = 0.8 / nsteps
            for i in range(nsteps):
                y, _, ks = pair_step(rhs, i * h, y, k, h, 2)
                k = ks[-1]
            return np.array(y)

        # 2 and 4 steps keep both errors (4.4e-11, 1.4e-13) far above the
        # rounding error of the reference (a few 1e-15)
        ref = integrate(512)
        e1 = np.max(np.abs(integrate(2) - ref))
        e2 = np.max(np.abs(integrate(4) - ref))
        assert math.log2(e1 / e2) > 7.5

    @pytest.mark.xfail(strict=True, reason="the separated one-loop ODE in "
                       "(t, gamma) and the N=1 tau-flow are analytically "
                       "inequivalent; see the decisions ledger")
    def test_matches_separated_one_loop_level_set(self):
        contour = rg.ray_contour(0.0, 0.4, 41)
        traj = rg.n_power_flow(rg.FlowState(0.0, 0.9, 0.3), 1, contour)
        g0, gam0 = 0.9, 0.3
        C = (2.0 / 3.0) * g0 / gam0 ** 1.5 - 2.0 * math.sqrt(gam0)
        for s in traj.states[1:]:
            gam = s.gamma.real
            level = 1.5 * (2.0 * gam * gam + C * gam ** 1.5)
            assert abs(s.g_inv - level) < 1e-6 * abs(level)


# ---------------------------------------------------------------------------
# path integrator
# ---------------------------------------------------------------------------

# The generic DOP853 kernel, one list comprehension per stage over any number
# of components: the reference the pair kernel of cflow.integrate must match
# bit for bit.

def _dp_step(f, t, y, k1, dt):
    """One DOP853 step of (complex) length dt from (t, y), f(t, y) = k1.

    Returns the 8th-order y at t + dt, the scaled error estimate (not
    finite when any stage is not) and the stages k1..k13, k13 = f(t + dt, y1).
    """
    k2 = f(t + C2 * dt, [a + dt * (A21 * p) for a, p in zip(y, k1)])
    k3 = f(t + C3 * dt, [a + dt * (A31 * p + A32 * q)
                              for a, p, q in zip(y, k1, k2)])
    k4 = f(t + C4 * dt, [a + dt * (A41 * p + A43 * r)
                              for a, p, r in zip(y, k1, k3)])
    k5 = f(t + C5 * dt, [a + dt * (A51 * p + A53 * r + A54 * s)
                              for a, p, r, s in zip(y, k1, k3, k4)])
    k6 = f(t + C6 * dt, [a + dt * (A61 * p + A64 * s + A65 * v)
                              for a, p, s, v in zip(y, k1, k4, k5)])
    k7 = f(t + C7 * dt, [a + dt * (A71 * p + A74 * s + A75 * v + A76 * w)
                              for a, p, s, v, w in zip(y, k1, k4, k5, k6)])
    k8 = f(t + C8 * dt, [
        a + dt * (A81 * p + A84 * s + A85 * v + A86 * w + A87 * x)
        for a, p, s, v, w, x in zip(y, k1, k4, k5, k6, k7)])
    k9 = f(t + C9 * dt, [
        a + dt * (A91 * p + A94 * s + A95 * v + A96 * w + A97 * x + A98 * z)
        for a, p, s, v, w, x, z in zip(y, k1, k4, k5, k6, k7, k8)])
    k10 = f(t + C10 * dt, [
        a + dt * (A101 * p + A104 * s + A105 * v + A106 * w + A107 * x
                  + A108 * z + A109 * q)
        for a, p, s, v, w, x, z, q in zip(y, k1, k4, k5, k6, k7, k8, k9)])
    k11 = f(t + C11 * dt, [
        a + dt * (A111 * p + A114 * s + A115 * v + A116 * w + A117 * x
                  + A118 * z + A119 * q + A1110 * r)
        for a, p, s, v, w, x, z, q, r in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
    k12 = f(t + dt, [
        a + dt * (A121 * p + A124 * s + A125 * v + A126 * w + A127 * x
                  + A128 * z + A129 * q + A1210 * r + A1211 * e)
        for a, p, s, v, w, x, z, q, r, e
        in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])
    ws = [B1 * p + B6 * w + B7 * x + B8 * z + B9 * q + B10 * r + B11 * e
          + B12 * o for p, w, x, z, q, r, e, o
          in zip(k1, k6, k7, k8, k9, k10, k11, k12)]
    y1 = tuple(a + dt * b for a, b in zip(y, ws))
    k13 = f(t + dt, y1)
    ks = (k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13)
    # dt enters each term before squaring, so tiny steps over huge stages
    # do not overflow
    e5 = e3 = 0.0
    for a, b, c, p, w, x, z, q, r, e, o in zip(y, y1, ws, k1, k6, k7, k8, k9,
                                                k10, k11, k12):
        sc = ATOL + RTOL * max(abs(a), abs(b))
        e5 += (abs(dt * (ER1 * p + ER6 * w + ER7 * x + ER8 * z + ER9 * q
                         + ER10 * r + ER11 * e + ER12 * o)) / sc) ** 2
        e3 += (abs(dt * (c - BHH1 * p - BHH2 * q - BHH3 * o)) / sc) ** 2
    err = e5 / math.sqrt((e5 + 0.01 * e3) * len(y)) if e5 else 0.0
    # A non-finite stage fails the error test, even one the estimate omits.
    if not (err < math.inf and cmath.isfinite(sum(map(sum, ks)) + sum(y1))):
        err = math.inf
    return y1, err, ks


def _dense(f, t, y, y1, dt, ks):
    """Coefficients of DOP853's continuous extension over one step.

    Costs the three extra stages k14..k16.
    """
    k1, _, _, _, _, k6, k7, k8, k9, k10, k11, k12, k13 = ks
    k14 = f(t + C14 * dt, [
        a + dt * (A141 * p + A147 * x + A148 * z + A149 * q + A1410 * r
                  + A1411 * e + A1412 * o + A1413 * g)
        for a, p, x, z, q, r, e, o, g in zip(y, k1, k7, k8, k9, k10, k11, k12, k13)])
    k15 = f(t + C15 * dt, [
        a + dt * (A151 * p + A156 * w + A157 * x + A158 * z + A1511 * e
                  + A1512 * o + A1513 * g + A1514 * m)
        for a, p, w, x, z, e, o, g, m in zip(y, k1, k6, k7, k8, k11, k12, k13, k14)])
    k16 = f(t + C16 * dt, [
        a + dt * (A161 * p + A166 * w + A167 * x + A168 * z + A169 * q
                  + A1613 * g + A1614 * m + A1615 * n)
        for a, p, w, x, z, q, g, m, n in zip(y, k1, k6, k7, k8, k9, k13, k14, k15)])
    cont = []
    for a, b, p, w, x, z, q, r, e, o, g, m, n, v in zip(
            y, y1, k1, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16):
        d = b - a
        cont.append((
            a, d, dt * p - d, 2.0 * d - dt * (g + p),
            dt * (D41 * p + D46 * w + D47 * x + D48 * z + D49 * q + D410 * r
                  + D411 * e + D412 * o + D413 * g + D414 * m + D415 * n + D416 * v),
            dt * (D51 * p + D56 * w + D57 * x + D58 * z + D59 * q + D510 * r
                  + D511 * e + D512 * o + D513 * g + D514 * m + D515 * n + D516 * v),
            dt * (D61 * p + D66 * w + D67 * x + D68 * z + D69 * q + D610 * r
                  + D611 * e + D612 * o + D613 * g + D614 * m + D615 * n + D616 * v),
            dt * (D71 * p + D76 * w + D77 * x + D78 * z + D79 * q + D710 * r
                  + D711 * e + D712 * o + D713 * g + D714 * m + D715 * n + D716 * v)))
    return cont


def _interp(cont, ths):
    """y at each fraction th in ths of the step, from the coefficients of `_dense`."""
    return list(zip(*[[a + th * (r0 + (1.0 - th) * (r1 + th * (r2 + (1.0 - th) * (
        r3 + th * (r4 + (1.0 - th) * (r5 + th * r6)))))) for th in ths]
        for a, r0, r1, r2, r3, r4, r5, r6 in cont]))


def _bits(values):
    """float.hex of both parts of every complex number in `values`."""
    return [(float.hex(complex(z).real), float.hex(complex(z).imag)) for z in values]


def _pair_rhs(t, y):
    g, gam = y
    return (g * g - 4.0 * gam ** 4 + 0.3j * t, gam * g)


_KERNEL_CASES = ("scalar", "pair", "ndarray", "overflow")


def _kernel_case(case, rng):
    """(RHS for the reference, RHS for the pair kernel, y, n) of one draw."""
    def draw(scale=1.0):
        return complex(*rng.normal(0.0, scale, 2))

    if case == "scalar":
        def rhs(t, y):
            return y * y - 0.7j * t * y + 0.4

        y = draw()
        return (lambda t, v: (rhs(t, v[0]),), lambda t, v: (rhs(t, v[0]), 0j),
                (y,), 1)
    if case == "ndarray":
        def rhs(t, y):
            g, gam = y
            return np.array([g * g - 4.0 * gam ** 4, gam * g], dtype=complex)

        return rhs, rhs, (draw(), draw()), 2
    if case == "overflow":
        # k1 is finite; the stages after it overflow to inf and then nan
        return _pair_rhs, _pair_rhs, (draw(1e150), draw()), 2
    return _pair_rhs, _pair_rhs, (draw(), draw()), 2


class TestPathIntegrator:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy stages that overflow
    @pytest.mark.parametrize("case", _KERNEL_CASES)
    def test_pair_kernel_matches_generic_reference(self, case):
        # every float of the step, its error estimate, stages, continuous
        # extension and interpolated values, bit for bit
        rng = np.random.default_rng(_KERNEL_CASES.index(case))
        for _ in range(25):
            f_ref, f_pair, y, n = _kernel_case(case, rng)
            t = complex(*rng.uniform(-1.0, 1.0, 2))
            dt = complex(*rng.uniform(-0.4, 0.4, 2))
            y1, err, ks = _dp_step(f_ref, t, y, f_ref(t, y), dt)
            y2 = y + (0j,) * (2 - n)
            p1, perr, pks = pair_step(f_pair, t, y2, f_pair(t, y2), dt, n)
            if case == "overflow":
                assert err == math.inf
            assert _bits(p1[:n]) == _bits(y1)
            assert float.hex(perr) == float.hex(err)
            assert [_bits(k[:n]) for k in pks] == [_bits(k) for k in ks]
            cont = _dense(f_ref, t, y, y1, dt, ks)
            pcont = pair_dense(f_pair, t, y2, p1, dt, pks)
            assert [_bits(c) for c in pcont[:n]] == [_bits(c) for c in cont]
            ths = [0.0, 1.0] + list(rng.uniform(0.0, 1.0, 5))
            assert ([_bits(v[:n]) for v in pair_interp(pcont, ths)]
                    == [_bits(v) for v in _interp(cont, ths)])
            if n == 1:  # the zero second slot stays zero
                assert p1[1] == 0 and all(k[1] == 0 for k in pks)

    @pytest.mark.parametrize("y0", [[], [1.0, 2.0, 3.0], (1.0, 2.0, 3.0, 4.0)])
    def test_systems_other_than_scalar_or_pair_raise(self, y0):
        rhs = lambda t, y: tuple(y)  # noqa: E731
        with pytest.raises(DimensionMismatch):
            solve_rk4(rhs, [0.0, 1.0], y0)
        with pytest.raises(DimensionMismatch):
            solve_rk4(rhs, [0.0, 1.0], y0, events=((lambda t, y: abs(y[0]) - 1e10, BlowUp),))

    def test_one_component_sequence_keeps_its_shape(self):
        ys = solve_rk4(lambda t, y: (y[0],), [0.0, 0.5, 1.0], [1.0])
        assert all(len(y) == 1 for y in ys)
        assert ys == [(z,) for z in solve_rk4(lambda t, y: y, [0.0, 0.5, 1.0], 1.0)]

    def test_exponential_on_kinked_complex_polyline(self):
        # non-uniform segments, sharp turns and one zero-length segment
        nodes = [0.0, 0.3, 0.35 + 0.4j, 0.35 + 0.4j, -0.2 + 0.45j,
                 -0.21 + 1.3j, 0.9 + 1.0j]
        ys = solve_rk4(lambda t, y: y, nodes, 1.0)
        assert len(ys) == len(nodes)
        for t, y in zip(nodes, ys):
            assert abs(y - cmath.exp(t - nodes[0])) < 1e-9

    def test_step_carries_across_nodes(self):
        # A DOP853 step costs twelve evaluations, fifteen with the continuous
        # extension.  Restarting on every segment of this grid costs 37 per
        # node; carrying the step across nodes costs 0.33 per node.
        calls = []

        def rhs(tau, y):
            calls.append(tau)
            g, gam = y
            return np.array([g * g - 4.0 * gam ** 4, gam * g], dtype=complex)

        contour = rg.ray_contour(math.pi / 8, 1.0, 1201)
        solve_rk4(rhs, contour, [0.8, 0.4])
        assert len(calls) / (len(contour) - 1) <= 16

    def test_blowup_carries_stop_point_and_completed_nodes(self):
        nodes = rg.ray_contour(0.0, 2.0, 40)
        with pytest.raises(BlowUp) as exc:
            solve_rk4(lambda t, y: y * y, nodes, 1.0,
                      events=((lambda t, y: abs(y) - 1e12, BlowUp),))
        assert abs(exc.value.tau_star - 1.0) < 1e-9
        # nodes 0, 2/39, ..., 38/39 lie before the pole of 1/(1 - tau)
        samples = exc.value.samples
        assert len(samples) == 20
        for t, y in zip(nodes, samples):
            assert abs(y - 1.0 / (1.0 - t)) < 1e-8 * abs(y)

    def test_event_stops_at_its_crossing(self):
        class Half(FlowStopped):
            pass

        nodes = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        with pytest.raises(Half) as exc:
            solve_rk4(lambda t, y: 1.0, nodes, 0.0,
                      events=((lambda t, y: y.real - 0.5, Half),))
        assert abs(exc.value.tau_star - 0.5) < 1e-12
        # only the nodes before the crossing are sampled
        assert exc.value.samples == pytest.approx([0.0, 0.2, 0.4], abs=1e-12)

    def test_first_of_two_crossings_wins(self):
        # both events fire on the same step, listed in either order
        class Early(FlowStopped):
            pass

        class Late(FlowStopped):
            pass

        early = (lambda t, y: y.real - 0.5, Early)
        late = (lambda t, y: y.real - 0.5000001, Late)
        for events in ((early, late), (late, early)):
            with pytest.raises(Early) as exc:
                solve_rk4(lambda t, y: 1.0, [0.0, 1.0], 0.0, events=events)
            assert abs(exc.value.tau_star - 0.5) < 1e-12

    def test_event_that_never_fires_returns_every_node(self):
        nodes = rg.ray_contour(math.pi / 8, 1.0, 21)
        rhs = lambda t, y: (y[0] * y[1], -y[0])  # noqa: E731
        ys = solve_rk4(rhs, nodes, [0.5, 1.0],
                       events=((lambda t, y: abs(y[0]) - 1e10, BlowUp),))
        assert ys == solve_rk4(rhs, nodes, [0.5, 1.0])
        assert len(ys) == len(nodes)

    @pytest.mark.parametrize("bad", [complex(1.0, math.nan), math.nan, math.inf])
    def test_non_finite_node_raises(self, bad):
        with pytest.raises(DomainError):
            solve_rk4(lambda t, y: y, [0.0, 0.5, bad], 1.0)
        with pytest.raises(DomainError):
            rg.n_power_flow(rg.FlowState(0.0, 1.0, 0.5), 2, [0.0, bad, 1.0])

    @pytest.mark.parametrize("y0", [1.0, [1.0], [1.0, 2.0]])
    def test_no_nodes_raises(self, y0):
        # no node has a value to return
        with pytest.raises(DomainError):
            solve_rk4(lambda t, y: y, [], y0)

    def test_finite_nodes_whose_sum_overflows_integrate(self):
        # the up-front sum is inf, so every node is tested on its own
        ys = solve_rk4(lambda t, y: 1e-308, [1e308, 1.5e308, 1.7e308], 1.0)
        assert ys == pytest.approx([1.0, 1.5, 1.7], rel=1e-12)

    def test_segment_whose_length_overflows_is_a_kink(self):
        # 1e308 -> -1e308 differs by -inf: its direction is nan, which must
        # end the run from 0 rather than join it; the run that starts there
        # then has an infinite length
        with pytest.raises(DomainError):
            solve_rk4(lambda t, y: 1.0, [0.0, 1e308, -1e308], 1.0)

    def test_walk_reads_only_the_nodes_it_reaches(self):
        # an event at t = 0.5 on nodes up to t = 100: the walk reads nodes
        # only as far as its steps reach
        class Probe(list):
            read = -1

            def __getitem__(self, k):
                self.read = max(self.read, k)
                return super().__getitem__(k)

        class Half(FlowStopped):
            pass

        nodes = Probe(k * 1e-3 for k in range(100001))
        with pytest.raises(Half) as exc:
            solve_rk4(lambda t, y: 1.0, nodes, 0.0,
                      events=((lambda t, y: y.real - 0.5, Half),))
        assert abs(exc.value.tau_star - 0.5) < 1e-12
        assert 0 < nodes.read < 0.02 * len(nodes)

    def test_rhs_overflow_ends_in_step_underflow(self):
        # an OverflowError in any stage fails the error test; the step
        # shrinks onto t = 0.55 and then underflows
        def rhs(t, y):
            if t.real > 0.55:
                raise OverflowError("out of range")
            return y

        nodes = rg.ray_contour(0.0, 1.0, 11)
        with pytest.raises(StepSizeUnderflow) as exc:
            solve_rk4(rhs, nodes, 1.0)
        assert abs(exc.value.tau_star - 0.55) < 1e-9
        samples = exc.value.samples
        assert len(samples) == 6
        for t, y in zip(nodes, samples):
            assert abs(y - cmath.exp(t)) < 1e-9

    @pytest.mark.parametrize("length", [5e-324, 3.5e-323])
    def test_run_too_short_for_sixteen_steps_ends(self, length, time_limit):
        # the first step is the distance to the first node, here the whole
        # subnormal run, which it covers in one clamped step
        with time_limit(5.0):
            ys = solve_rk4(lambda t, y: y, [0.0, length], 1.0)
        assert ys == [1.0, 1.0]

    @pytest.mark.parametrize("length", [5e-324, 1e-310])
    def test_rejected_steps_on_a_subnormal_run_underflow(self, length,
                                                         time_limit):
        # length * MIN_STEP is 0, so only a step of 0 can stop the rejections
        with time_limit(5.0), pytest.raises(StepSizeUnderflow):
            solve_rk4(lambda t, y: complex(math.nan), [0.0, length], 1.0)

    def test_run_whose_length_overflows_raises(self, time_limit):
        with time_limit(5.0), pytest.raises(DomainError):
            solve_rk4(lambda t, y: y, [-1e308, 1e308], 1.0)

    def test_step_budget_stops_a_runaway_run(self, time_limit):
        # y' = i y over 1e11 would take some 1e10 steps
        with time_limit(20.0), pytest.raises(FlowStopped) as exc:
            solve_rk4(lambda t, y: 1j * y, [0.0, 1e11], 1.0)
        assert type(exc.value) is FlowStopped and str(MAX_STEPS) in str(exc.value)
        assert exc.value.samples == [1.0] and 0.0 < exc.value.tau_star < 1e11

    def test_dense_nodes_cost_at_most_two_evaluations_each(self):
        # Steps clamped onto every node cost twelve or more evaluations per
        # node; free steps, with the nodes read off the continuous extension
        # (fifteen evaluations per step), cost 0.33 per node here.
        calls = []

        def rhs(tau, y):
            calls.append(tau)
            g, gam = y
            return (g * g - 4.0 * gam ** 4, gam * g)

        contour = rg.ray_contour(math.pi / 8, 1.0, 1201)
        solve_rk4(rhs, contour, [0.8, 0.4])
        assert len(calls) / (len(contour) - 1) <= 2

    def test_continuous_extension_between_steps(self):
        # y' = i y on one straight complex run, about 230 nodes per step
        calls = []

        def rhs(t, y):
            calls.append(t)
            return 1j * y

        nodes = [k * (0.001 + 0.0001j) for k in range(10001)]
        ys = solve_rk4(rhs, nodes, 1.0)
        # fifteen evaluations per step with the extension: more than 25
        # nodes per step (this run takes 0.067 evaluations per node)
        assert len(calls) < 0.6 * len(nodes)
        for t, y in zip(nodes, ys):
            assert abs(y - cmath.exp(1j * t)) < 1e-9


# ---------------------------------------------------------------------------
# left-right flow
# ---------------------------------------------------------------------------

class TestLRFlow:
    def test_zero_angle_freezes_gamma(self):
        contour = rg.ray_contour(0.0, 0.5, 11)
        traj = rg.lr_flow(rg.FlowState(0.0, 1.0, 0.4), 1, 0.0, contour)
        for s in traj.states:
            assert s.gamma == pytest.approx(0.4)
            assert abs(s.g_inv - 1.0 / (1.0 - s.tau)) < 1e-8

    def test_even_n_at_max_angle_reduces_to_power_flow(self):
        # sin(nu/N) = 1 makes the two g equations coincide; the gamma
        # equations differ by the 1/N weight, visible in the short-time
        # displacement ratio
        contour = rg.ray_contour(0.0, 0.02, 5)
        N = 2
        a = rg.lr_flow(rg.FlowState(0.0, 0.7, 0.5), N, N * math.pi / 2, contour)
        b = rg.n_power_flow(rg.FlowState(0.0, 0.7, 0.5), N, contour)
        for sa, sb in zip(a.states, b.states):
            assert abs(sa.g_inv - sb.g_inv) < 5e-4
        da = a.states[-1].gamma - 0.5
        db = b.states[-1].gamma - 0.5
        assert abs(da / db - 1.0 / N) < 0.05

    def test_against_extrapolated_euler_reintegration(self):
        N, nu = 1, 0.3
        contour = rg.ray_contour(0.0, 0.3, 16)
        traj = rg.lr_flow(rg.FlowState(0.0, 0.8, 0.4), N, nu, contour)
        s = math.sin(nu / N)

        def euler(h):
            g, gam = 0.8 + 0j, 0.4 + 0j
            t = 0.0
            while t < 0.3 - 1e-12:
                dg = g * g - N * N * gam ** (2 * N) * s ** (2 * N)
                dgam = (-1.0) ** N * gam * s * s * g / N
                g, gam, t = g + h * dg, gam + h * dgam, t + h
            return g, gam

        g1, gam1 = euler(1e-4)
        g2, gam2 = euler(5e-5)
        g_ex, gam_ex = 2 * g2 - g1, 2 * gam2 - gam1
        assert abs(traj.states[-1].g_inv - g_ex) < 1e-6 * abs(g_ex)
        assert abs(traj.states[-1].gamma - gam_ex) < 1e-6 * abs(gam_ex)


# ---------------------------------------------------------------------------
# closed-form beta scales
# ---------------------------------------------------------------------------

class TestLRBetaClosedForm:
    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_advanced_matches_defining_quadrature(self, N, k):
        g_end = 0.8
        beta, _ = rg.lr_beta_closed_form(g_end, k, N, 0.3, form="advanced")
        oracle = quad(lambda x: x ** (2 * N) / (k + x ** (2 * N + 2)),
                      0.0, g_end, epsabs=1e-13, epsrel=1e-13)[0]
        assert abs(-beta - oracle) < 1e-8 * abs(oracle)

    @pytest.mark.parametrize("form", ["advanced", "retarded"])
    def test_power_beyond_double_range_raises(self, form):
        # 2N + 2 overflows, so the 2F1 parameters would be nan
        with pytest.raises(Overflow):
            rg.lr_beta_closed_form(1.0, 1.0, 1e308, 1.0, form=form)

    def test_zero_argument_gives_zero_beta(self):
        beta, gt = rg.lr_beta_closed_form(0.0, 1.0, 2, 0.3, form="advanced")
        assert beta == 0 and gt == 0

    def test_retarded_matches_geometric_series_integral(self):
        N, k, g_inv = 2, 0.5, 2.0
        beta, _ = rg.lr_beta_closed_form(g_inv, k, N, 0.3, form="retarded")
        G = 1.0 / g_inv
        oracle = quad(lambda x: 1.0 / (1.0 - k * x ** (2 * N)), 0.0, G,
                      epsabs=1e-13, epsrel=1e-13)[0]
        assert abs(beta - oracle) < 1e-10 * abs(oracle)

    def test_gamma_tilde_local_slopes_match_small_angle_model(self):
        nu = 0.01
        vals = [abs(rg.gamma_tilde(1.0, 1.0, N, nu)) for N in range(1, 7)]
        model = [N ** (-1.0 / N - 0.5) for N in range(1, 7)]
        for i in range(5):
            slope = (math.log(vals[i + 1]) - math.log(vals[i])) \
                / (math.log(i + 2) - math.log(i + 1))
            slope_model = (math.log(model[i + 1]) - math.log(model[i])) \
                / (math.log(i + 2) - math.log(i + 1))
            assert abs(slope - slope_model) < 0.01 * abs(slope_model)

    def test_gamma_tilde_rejects_degenerate_angle(self):
        with pytest.raises(DomainError):
            rg.gamma_tilde(1.0, 1.0, 2, 0.0)


# ---------------------------------------------------------------------------
# log-action saddle points
# ---------------------------------------------------------------------------

class TestSaddlePoints:
    @pytest.mark.parametrize("N", [1, 3, 4])
    def test_numeric_gradient_vanishes_at_returned_points(self, N):
        g_inv, gamma = 0.3, 0.7
        h = 1e-4
        for nu in rg.saddle_points(g_inv, gamma, N, [0, 1, 2]):
            grad = (rg.log_action(g_inv, gamma, N, nu + h)
                    - rg.log_action(g_inv, gamma, N, nu - h)) / (2 * h)
            assert abs(grad) < 1e-6

    def test_zero_propagator_gives_integer_multiples(self):
        nus = rg.saddle_points(0.0, 0.5, 3, [0, 1, 2])
        assert nus == [0.0, 3 * math.pi, 6 * math.pi]

    def test_periodicity_by_two_steps(self):
        nus = rg.saddle_points(0.2, 0.6, 4, [0, 1, 2, 3])
        assert abs(nus[2] - nus[0] - 2 * 4 * math.pi) < 1e-12
        assert abs(nus[3] - nus[1] - 2 * 4 * math.pi) < 1e-12

    def test_real_cut_argument_raises(self):
        # purely imaginary g_inv makes the arcsin argument real and > 1
        with pytest.raises(BranchCut):
            rg.saddle_points(0.1j, 1.0, 1, [0])

    def test_degenerate_power_rejected(self):
        with pytest.raises(DomainError):
            rg.saddle_points(0.3, 0.7, 2, [0])

    @pytest.mark.parametrize("N", [0, -1])
    def test_non_positive_power_rejected(self, N):
        # N = 0 divided by zero and N = -1 returned a number
        with pytest.raises(DomainError):
            rg.log_action(0.5j, 0.6, N, 0.9)
        with pytest.raises(DomainError):
            rg.saddle_points(0.3, 0.7, N, [0])

    def test_series_tail_branches_agree_inside_disc(self):
        # oracle: the defining power series sum_{m>=1} w^m/(m+b), summed
        # directly; inside the unit disc the continued tail is the principal one
        for w in (0.3 + 0.1j, -0.5 + 0.4j):
            want = sum(w ** m / (m - 0.5) for m in range(1, 400))
            assert abs(rg._tail(w, -0.5) - want) < 1e-10

    def test_series_tail_arc_continues_principal_from_above(self):
        # oracle: the defining integral over the straight contour, valid for
        # Im w > 0 (pole at t = 1/w sits below the path); substitution
        # t = sigma^2 removes the endpoint singularity
        w = 2.0 + 0.05j
        val = w * cquad(lambda s: 2.0 / (1.0 - w * s * s), 0.0, 1.0)
        assert abs(rg._tail(w, -0.5) - val) < 1e-9

    @pytest.mark.parametrize("b", [1.0, -1.0, -0.5, -1.0 / 3.0, -0.25])
    def test_tail_continues_principal_from_above_across_the_cut(self, b):
        # oracle: w int_0^1 t^b/(1 - w t) dt along 0 -> 2i -> 1 + 2i -> 1,
        # which passes above the pole t = 1/w for every w below; at b = -1
        # the divergent power m = 1 is dropped.  1.2 - 0.01i and 1.2 - 0.2i
        # lie on either side of the curve where a quadrature on a fixed
        # bowed contour jumped back to the principal branch.
        for w in (1.2 - 0.01j, 1.2 - 0.2j, 1.05 + 0.0j, 1.5 + 0.3j, 2.0 + 0.05j,
                  2.7 - 0.55j, 3.3 + 0.0j, 4.0 - 0.35j, 4.0 + 0.58j):
            with mp.workdps(20):
                wm = mp.mpc(w)
                if b == -1.0:
                    f = lambda t: wm * wm / (1 - wm * t)  # noqa: E731
                else:
                    f = lambda t: wm * t ** b / (1 - wm * t)  # noqa: E731
                want = complex(mp.quad(f, [0, 2j, 1 + 2j, 1]))
            assert abs(rg._tail(w, b) - want) < 1e-10 * abs(want), w
        with pytest.raises(PoleError):
            rg._tail(1.0 + 0.0j, b)

    @pytest.mark.parametrize("b", [1.0, -1.0, -0.5, -1.0 / 3.0, -0.25, -0.125])
    def test_tail_vs_mpmath(self, b):
        # oracle: w/(1+b) 2F1(1, 1+b; 2+b; w) (-w log(1-w) at b = -1) at 30
        # digits, plus the jump 2 pi i w^-b inside the strip; on the real cut
        # it is taken at w + 1e-40i, the limit from above
        angles = [2 * math.pi * k / 7 + 0.3 for k in range(7)] + [0.0, math.pi]
        pts = [r * cmath.exp(1j * a) for r in (1e-9, 1e-3, 0.49, 0.51, 3.0, 1e3, 1e7)
               for a in angles]
        pts += [1 + d * cmath.exp(1j * a) for d in (1e-12, 1e-6) for a in angles]
        pts += [1.01 + 0j, 2.0 + 0j, 50.0 + 0j, 1.5 - 0.3j, 3.0 - 1e-9j, 1.2 - 0.59j]
        for w in pts:
            with mp.workdps(30):
                wm = mp.mpc(w) + (1e-40j if w.imag == 0 and w.real > 1 else 0)
                if b == -1.0:
                    want = -wm * mp.log(1 - wm)
                else:
                    want = wm / (1 + b) * mp.hyp2f1(1, 1 + b, 2 + b, wm)
                if w.real > 1 and -0.6 < w.imag < 0:
                    want += 2j * mp.pi * mp.power(wm, -b)
                want = complex(want)
            assert abs(rg._tail(w, b) - want) <= 1e-13 * abs(want), w

    def test_log_action_far_out_and_non_finite(self):
        # N = 1, w = -1e7 i sin(1): the 2F1 continuation raised here
        want = 1.6829418125361721 + 1.5945491904689234e-06j
        assert abs(rg.log_action(1e7, 1.0, 1, 1.0) - want) <= 1e-13 * abs(want)
        for w in (complex(math.inf, 0.0), complex(0.0, math.nan)):
            with pytest.raises(Overflow):
                rg._tail(w, -0.5)
        with pytest.raises(Overflow):
            rg.log_action(1e308, 1e-3, 1, 0.9)
        # finite w ~ 3e306 at N = 3, where -w log(1 - w) overflows (was nan+infj)
        with pytest.raises(Overflow):
            rg.log_action(3e305, 1.0, 3, 1.0)

    @pytest.mark.parametrize("gamma", [1e-200, 1e200])
    def test_gamma_power_out_of_range_raises_overflow(self, gamma):
        # gamma^3 underflows to 0 (was ZeroDivisionError) or overflows
        # (was OverflowError)
        with pytest.raises(Overflow):
            rg.log_action(0.3, gamma, 3, 1.0)
        with pytest.raises(Overflow):
            rg.saddle_points(0.3, gamma, 3, [0, 1])


# ---------------------------------------------------------------------------
# regulator-integral energies
# ---------------------------------------------------------------------------

class TestWetterichGroundEnergy:
    def test_real_oscillator_half_frequency_limit(self):
        p = rg.WetterichParams(omega=1.0, Lambda=1e6)
        assert abs(rg.wetterich_ground_energy(p, "real_osc") - 0.5) < 1e-5

    def test_perturbed_prefactor_value(self):
        p = rg.WetterichParams(omega=1.0, Lambda=1e6, delta=0.1)
        E = rg.wetterich_ground_energy(p, "perturbed")
        s = math.sqrt(0.99)
        assert E == pytest.approx((1 / math.pi) * s * math.atan(1e6 / s), rel=1e-14)

    @pytest.mark.xfail(strict=True, reason="the quartic term of the exact "
                       "prefactor exceeds the stated 1e-4*delta^2 window; "
                       "see the decisions ledger")
    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.2])
    def test_parabolic_window_as_stated(self, delta):
        p = rg.WetterichParams(omega=1.0, Lambda=1e6, delta=delta)
        E = rg.wetterich_ground_energy(p, "perturbed").real
        assert abs(E - (0.5 - delta * delta / 4.0)) < 1e-4 * delta * delta

    def test_parabolic_to_quartic_accuracy(self):
        # honest version: the parabola holds once the documented
        # delta^4/16 + O(Lambda^{-1}) remainder is accounted for
        for delta in (0.05, 0.1, 0.2):
            p = rg.WetterichParams(omega=1.0, Lambda=1e6, delta=delta)
            E = rg.wetterich_ground_energy(p, "perturbed").real
            remainder = delta ** 4 / 16.0 + 1.0 / (math.pi * 1e6)
            assert abs(E - (0.5 - delta * delta / 4.0)) < remainder + 1e-4 * delta ** 2

    def test_complex_oscillator_typed_errors(self):
        # omega^2 underflows to 0, so r = 0
        p = rg.WetterichParams(omega=5e-324, Lambda=1.0)
        with pytest.raises(Overflow):
            rg.wetterich_ground_energy(p, "complex_osc")
        # r rounds to -i gamma, so Lambda/r = i, a branch point of atan
        big = 1.1773359751625864e136
        p = rg.WetterichParams(omega=5e-324, Lambda=big, gamma=big)
        with pytest.raises(PoleError):
            rg.wetterich_ground_energy(p, "complex_osc")

    def test_degenerate_perturbation_raises(self):
        p = rg.WetterichParams(omega=1.0, Lambda=10.0, delta=1.0)
        with pytest.raises(DomainError):
            rg.wetterich_ground_energy(p, "perturbed")

    def test_complex_mode_reduces_at_zero_coupling(self):
        p = rg.WetterichParams(omega=1.0, Lambda=100.0)
        E = rg.wetterich_ground_energy(p, "complex_osc")
        assert E == pytest.approx(math.atan(100.0), rel=1e-14)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            rg.WetterichParams(omega=-1.0, Lambda=1.0)
        with pytest.raises(DomainError):
            rg.WetterichParams(omega=1.0, Lambda=1.0, N=0)


class TestUEff:
    def test_n1_zero_coupling_continuity(self):
        p = rg.WetterichParams(omega=1.3, Lambda=50.0, gamma=1e-8)
        val = rg.u_eff(p, "n1")
        assert abs(val - 1.3 * math.atan(50.0 / 1.3)) < 1e-6

    def test_n1_arithmetic_oracle(self):
        w, g, L = 1.0, 0.4, 5.0
        p = rg.WetterichParams(omega=w, Lambda=L, gamma=g)
        root = math.sqrt(4 * w * w + g * g)
        expect = (0.5j * g * cmath.log(1j * g * L + L * L + w * w)
                  + (2 * w * w + g * g) * cmath.atan((2 * L + 1j * g) / root) / root)
        assert rg.u_eff(p, "n1") == pytest.approx(expect, rel=1e-14)

    def test_n2_arithmetic_oracle(self):
        w, g, L = 1.0, 0.3, 4.0
        p = rg.WetterichParams(omega=w, Lambda=L, gamma=g)
        a = 1.0 - g
        expect = w * math.atan(L * math.sqrt(a) / w) / a ** 1.5 - g * L / a
        assert rg.u_eff(p, "n2") == pytest.approx(expect, rel=1e-13)

    def test_omega0_split_matches_quadrature(self):
        N, L = 2, 0.8
        p = rg.WetterichParams(omega=1.0, Lambda=L, N=N)
        phi = (2 * N - 1) * math.pi / 2

        def integrand(kv):
            a1, a2 = cmath.exp(1j * phi), cmath.exp(-1j * phi)
            t = kv ** (2 * N)
            return a1 * t / (1 + a1 * t) - a2 * t / (1 + a2 * t)

        oracle = cquad(integrand, 0.0, L)
        assert abs(rg.u_eff(p, "omega0_split") - oracle) < 1e-8 * abs(oracle)

    def test_omega0_split_vanishes_with_cutoff(self):
        p = rg.WetterichParams(omega=1.0, Lambda=1e-12, N=2)
        assert abs(rg.u_eff(p, "omega0_split")) < 1e-11

    def test_n_infinity_direct_value(self):
        p = rg.WetterichParams(omega=1.0, Lambda=1.5, N=2)
        s = 1.0 + 1.5 ** 4
        assert rg.u_eff(p, "n_infinity") == pytest.approx(1j * (s * s / 2 - 0.5))


# ---------------------------------------------------------------------------
# continued-fraction recursion
# ---------------------------------------------------------------------------

class TestContinuedFractionRG:
    def test_depth_zero_adds_diagonal_regulator(self):
        g = [1.0, 2.0, 3.0]
        taus = [0.0, 0.5, 1.0]
        out = rg.continued_fraction_rg(g, taus, 0)
        for v, gi, t in zip(out, g, taus):
            assert v == pytest.approx(gi + math.exp(-t * t))

    def test_large_tau_tail_suppresses_corrections(self):
        g = [1.0 + 0.2j, 0.7, 1.3]
        taus = [30.0, 31.0, 32.0]
        out = rg.continued_fraction_rg(g, taus, 2)
        # with the vertex suppressed each level is the identity up to the
        # inter-level shift; two levels see one shift
        for n, v in enumerate(out):
            assert abs(v - g[(n + 1) % 3]) < 1e-12

    def test_depth_one_against_exact_fraction_expansion(self):
        g = [Fraction(3, 2), Fraction(5, 4), Fraction(7, 8)]
        taus = [0.1, 0.4, 0.9]
        R = {(i, j): Fraction(math.exp(-0.5 * (taus[i] ** 2 + taus[j] ** 2)))
             for i in range(3) for j in range(3)}
        expect = []
        for n in range(3):
            m = (n + 1) % 3
            head = g[n] + R[(n, n)]
            inner = head - R[(m, n)] * R[(n, m)] / (g[m] + R[(m, m)])
            expect.append(inner - R[(n, m)] * R[(m, n)] / inner)
        out = rg.continued_fraction_rg([float(v) for v in g], taus, 1)
        for v, e in zip(out, expect):
            assert abs(v - float(e)) < 1e-12 * abs(float(e))

    def test_vanishing_denominator_reports_site_and_depth(self):
        taus = [0.0, 0.0, 0.0]
        g = [1.0, -1.0, 2.0]  # g[1] + R_11 = -1 + 1 = 0
        with pytest.raises(DivisionByZero) as exc:
            rg.continued_fraction_rg(g, taus, 1)
        assert exc.value.site == 0 and exc.value.depth == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            rg.continued_fraction_rg([1.0], [0.0, 1.0], 1)


# ---------------------------------------------------------------------------
# third-order corrections
# ---------------------------------------------------------------------------

class TestThirdOrderCorrections:
    def test_worked_example(self):
        dg, dgam = rg.third_order_corrections(2.0, 1.0)
        assert dg == pytest.approx(10.0)
        assert dgam == pytest.approx(5.0)

    def test_ratio_identity_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            g = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            gam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(g - gam * gam) < 1e-3 or abs(gam) < 1e-3:
                continue
            dg, dgam = rg.third_order_corrections(g, gam)
            scale = max(abs(dg * gam), abs(dgam * g), 1e-30)
            assert abs(dg * gam - dgam * g) < 1e-12 * scale

    def test_exceptional_point_raises(self):
        with pytest.raises(ExceptionalPoint):
            rg.third_order_corrections(0.25, 0.5)

    @given(st.complex_numbers(max_magnitude=3, allow_nan=False,
                              allow_infinity=False),
           st.complex_numbers(max_magnitude=3, allow_nan=False,
                              allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_ratio_identity_property(self, g, gam):
        if abs(g - gam * gam) < 1e-3:
            return
        dg, dgam = rg.third_order_corrections(g, gam)
        scale = max(abs(dg * gam), abs(dgam * g), 1e-30)
        assert abs(dg * gam - dgam * g) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# normal-ordering weights
# ---------------------------------------------------------------------------

def _fock_matrices(dim):
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    return a, a.T.copy()


class TestNormalOrderCoeff:
    def test_worked_examples(self):
        assert rg.normal_order_coeff(2, 1, 0) == 1
        assert rg.normal_order_coeff(4, 2, 1) == 2

    def test_top_weight_is_unity(self):
        for n in range(1, 8):
            assert rg.normal_order_coeff(n, n, 0) == 1

    def test_range_validation(self):
        with pytest.raises(DomainError):
            rg.normal_order_coeff(2, 3, 0)
        with pytest.raises(DomainError):
            rg.normal_order_coeff(4, 2, 3)

    def test_factorial_table_up_to_six(self):
        for n in range(7):
            for m in range(n + 1):
                for l in range(min(m, n - m) + 1):
                    expect = Fraction(math.factorial(n),
                                      2 ** l * math.factorial(l)
                                      * math.factorial(n - l)
                                      * math.factorial(n - m - l))
                    assert rg.normal_order_coeff(n, m, l) == expect

    @staticmethod
    def _fock_residual(n, weight):
        # (a + a^+)^n against the weighted normal-ordered monomials on a
        # truncated Fock space; the upper-left block is exact once the
        # truncation exceeds n
        dim = 24
        a, ad = _fock_matrices(dim)
        lhs = np.linalg.matrix_power(a + ad, n)
        rhs = np.zeros_like(lhs)
        for m in range(n + 1):
            for l in range(min(m, n - m) + 1):
                rhs += weight(n, m, l) * (np.linalg.matrix_power(ad, m - l)
                                          @ np.linalg.matrix_power(a, n - m - l))
        block = dim - n
        return np.max(np.abs(lhs[:block, :block] - rhs[:block, :block]))

    @pytest.mark.xfail(strict=True, reason="the (n-l)! weight does not close "
                       "the operator expansion; see the decisions ledger")
    @pytest.mark.parametrize("n", range(2, 7))
    def test_operator_expansion_on_fock_space(self, n):
        res = self._fock_residual(n, lambda n, m, l: float(rg.normal_order_coeff(n, m, l)))
        assert res < 1e-9

    @pytest.mark.parametrize("n", range(1, 7))
    def test_operator_expansion_closes_with_m_shifted_weight(self, n):
        # sanity check that the Fock oracle itself is sound: replacing
        # (n-l)! by (m-l)! closes the expansion exactly
        def weight(n, m, l):
            return math.factorial(n) / (2 ** l * math.factorial(l)
                                        * math.factorial(m - l)
                                        * math.factorial(n - m - l))

        assert self._fock_residual(n, weight) < 1e-9
