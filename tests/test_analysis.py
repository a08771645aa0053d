"""Tests for trajectory diagnostics, flow-monotonicity checks, thermal
scales, and the phase-diagram scan.

Oracles: analytically closed curves (circles, ellipses, multi-loops) and
exact log spirals for the cycle detector; the polynomial-argument identity
for the coupling-angle field; scipy's erfi; direct arithmetic for the
spectral and contraction forms.
"""
import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from cflow import analysis, integrate
from cflow.errors import (DegenerateTrajectory, DimensionMismatch,
                          DomainError, FlowStopped, Overflow, PoleError,
                          StepSizeUnderflow)


def _circle(center=0.0, radius=1.0, n=256, turns=1, phase=0.0):
    t = np.linspace(0.0, 2.0 * math.pi * turns, n)
    return center + radius * np.exp(1j * (t + phase))


class TestDetectLimitCycle:
    def test_coordinates_near_double_range(self):
        # the sums behind the winding number overflow: a typed error, and
        # no RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                analysis.detect_limit_cycle(
                    [1e308 * cmath.exp(1j * k) for k in range(12)])
            rep = analysis.detect_limit_cycle(_circle(radius=1e306, n=40))
        assert rep.winding == 1

    def test_unit_circle_closed_winding_one(self):
        rep = analysis.detect_limit_cycle(_circle(), tol=1e-3)
        assert rep.closed
        assert rep.winding == 1
        assert rep.min_return_distance < 1e-12

    def test_orientation_flips_winding_sign(self):
        rep = analysis.detect_limit_cycle(np.conj(_circle()), tol=1e-3)
        assert rep.closed and rep.winding == -1

    def test_double_loop_winding_two(self):
        rep = analysis.detect_limit_cycle(_circle(n=512, turns=2), tol=1e-3)
        assert rep.closed and rep.winding == 2

    def test_ellipse_closed(self):
        t = np.linspace(0.0, 2.0 * math.pi, 301)
        rep = analysis.detect_limit_cycle(2.0 * np.cos(t) + 1j * np.sin(t),
                                          tol=1e-3)
        assert rep.closed and rep.winding == 1

    def test_epitrochoid_closed(self):
        t = np.linspace(0.0, 2.0 * math.pi, 601)
        traj = np.exp(1j * t) + 0.3 * np.exp(3j * t)
        rep = analysis.detect_limit_cycle(traj, tol=1e-3)
        assert rep.closed and rep.winding == 1

    def test_zero_winding_closed_curve_is_rejected(self):
        # figure-eight: geometrically closed but centroid winding 0; the
        # winding clause of the closure criterion excludes it
        t = np.linspace(0.0, 2.0 * math.pi, 401)
        traj = np.sin(2 * t) + 1j * np.sin(t)
        rep = analysis.detect_limit_cycle(traj, tol=1e-3)
        assert not rep.closed
        assert rep.winding == 0

    def test_log_spiral_open_with_recovered_invariant(self):
        th = np.linspace(0.0, 4.0 * math.pi, 500)
        traj = np.exp(-th) * np.exp(1j * th)
        rep = analysis.detect_limit_cycle(traj, tol=1e-3)
        assert not rep.closed
        assert rep.spiral_c is not None
        assert abs(rep.spiral_c - 1.0) < 1e-6
        assert rep.spiral_residual < 1e-6

    def test_off_center_spiral_focus_recovered(self):
        th = np.linspace(0.0, 4.0 * math.pi, 400)
        traj = (0.7 - 0.4j) + 2.0 * np.exp(-th) * np.exp(1j * th)
        rep = analysis.detect_limit_cycle(traj, tol=1e-3)
        assert not rep.closed
        assert abs(rep.spiral_c - 2.0) < 1e-6
        assert rep.spiral_residual < 1e-6

    def test_period_estimate_counts_samples_to_return(self):
        rep = analysis.detect_limit_cycle(_circle(n=256), tol=1e-3)
        assert rep.period_estimate == 255.0

    def test_degenerate_and_short_trajectories(self):
        with pytest.raises(DegenerateTrajectory):
            analysis.detect_limit_cycle([1.0 + 1.0j] * 20)
        with pytest.raises(DomainError):
            analysis.detect_limit_cycle([0.0, 1.0, 1j])

    @settings(max_examples=25, deadline=None)
    @given(radius=st.floats(0.1, 10.0), cx=st.floats(-5, 5),
           cy=st.floats(-5, 5), phase=st.floats(0, 6.28))
    def test_random_circles_always_close(self, radius, cx, cy, phase):
        traj = _circle(center=cx + 1j * cy, radius=radius, phase=phase)
        rep = analysis.detect_limit_cycle(traj, tol=1e-6 * radius)
        assert rep.closed and rep.winding == 1


class TestClosureIntegral:
    def test_closed_orbit_gives_two_pi_i_winding(self):
        vals = _circle() - 0.2   # V = z - 0.2 along the unit circle
        out = analysis.closure_integral(vals)
        assert abs(out - 2j * math.pi) < 1e-12

    def test_open_arc_is_not_a_multiple_of_two_pi_i(self):
        t = np.linspace(0.0, 2.5, 100)
        out = analysis.closure_integral(np.exp((1 + 1j) * t))
        assert abs(out - 2.5 * (1 + 1j)) < 1e-12

    def test_vanishing_value_raises(self):
        with pytest.raises(PoleError):
            analysis.closure_integral([1.0, 0.0, 1.0])


class TestSpiralInvariantFit:
    def test_exact_model(self):
        th = np.linspace(0.0, 10.0, 80)
        c, res = analysis.spiral_invariant_fit(zip(th, 2.0 * np.exp(-th)))
        assert abs(c - 2.0) < 1e-12
        assert res < 1e-12

    def test_small_noise_perturbs_c_proportionally(self):
        rng = np.random.default_rng(11)
        th = np.linspace(0.0, 10.0, 200)
        t = 2.0 * np.exp(-th) * (1.0 + 1e-6 * rng.standard_normal(len(th)))
        c, res = analysis.spiral_invariant_fit(zip(th, t))
        assert abs(c - 2.0) < 1e-5
        assert res < 1e-5

    def test_constant_radius_with_angle_sweep_flags_non_spiral(self):
        c0, res0 = analysis.spiral_invariant_fit([(0.0, 3.0)] * 10)
        assert abs(c0 - 3.0) < 1e-12 and res0 < 1e-12
        th = np.linspace(0.0, 10.0, 50)
        _, res = analysis.spiral_invariant_fit(zip(th, np.full(len(th), 3.0)))
        assert res > 1.0

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(DomainError):
            analysis.spiral_invariant_fit([(0.0, 1.0), (1.0, -2.0)])


class TestCouplingAngleSlope:
    def test_zero_coupling_limit(self):
        for n in (1, 2, 3, 4):
            for th in (0.3, 1.0, 2.2):
                want = (-1.0) ** n * math.tan(2.0 * th)
                assert analysis.coupling_angle_slope(1e-13, th, n) == pytest.approx(want, rel=1e-9)

    def test_zero_angle_gives_zero_slope(self):
        for n in (1, 2, 3):
            assert analysis.coupling_angle_slope(0.5, 0.0, n) == 0.0

    def test_arithmetic_pin(self):
        assert analysis.coupling_angle_slope(0.4, 0.7, 3) == pytest.approx(
            -1.527121126519717, rel=1e-12)

    def test_inner_angle_singularity_at_half_pi(self):
        # at (g, theta, n) = (0.5, pi/3, 3) the bracketed angle equals pi/2
        # exactly, so the slope is a tangent singularity rather than a number
        assert abs(analysis.coupling_angle_slope(0.5, math.pi / 3, 3)) > 1e12

    def test_polynomial_argument_identity(self):
        # the field direction is arg(z^2 (z^n - 1)(z - 1)) mod pi with
        # z = g e^{i theta}: an independent route to the slope
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 150:
            g = rng.uniform(0.05, 2.0)
            th = rng.uniform(-3.0, 3.0)
            n = int(rng.integers(1, 6))
            if (abs(g ** n * math.cos(n * th) - 1) < 1e-6
                    or abs(g * math.cos(th) - 1) < 1e-6):
                continue
            z = g * cmath.exp(1j * th)
            want = (-1.0) ** n * math.tan(cmath.phase(z * z * (z ** n - 1) * (z - 1)))
            got = analysis.coupling_angle_slope(g, th, n)
            if abs(got) > 1e3:     # skip near tangent poles
                continue
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
            checked += 1

    def test_excluded_denominators_raise(self):
        with pytest.raises(PoleError):
            analysis.coupling_angle_slope(1.0, 0.0, 2)


def _rk4_portrait(n, z0, step=1e-3, max_steps=15000, coast=0.01, flip_sign=False):
    """The coupling-angle portrait as cflow traced it before it moved onto
    `solve_rk4`, frozen as a reference: classical RK4 at a fixed arc-length
    step on the line field, with its sign tracked along the curve, the last
    direction held within ``coast`` of z = 0 and z = 1, and the same stops
    (first return, |z| > 4, ``max_steps``)."""
    def angle(g, theta):
        dn = g ** n * math.cos(n * theta) - 1.0
        d1 = g * math.cos(theta) - 1.0
        return (2.0 * theta + math.atan(g ** n * math.sin(n * theta) / dn)
                + math.atan(g * math.sin(theta) / d1))

    sgn = -1.0 if (n % 2 == 1) != flip_sign else 1.0
    z = complex(z0)
    pts = [z]
    prev = None

    def tangent(w, ref):
        if abs(w) < coast or abs(w - 1.0) < coast:
            return ref if ref is not None else 1.0 + 0.0j
        t = cmath.exp(1j * sgn * angle(abs(w), cmath.phase(w)))
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


class TestCouplingAnglePortrait:
    # documented grid for the parity checks: start points, and the steps the
    # acceptance test and the benchmark trace them at
    GRID = {1: (0.15 * cmath.exp(0.60j), 0.010),
            2: (0.15 * cmath.exp(0.75j), 0.012),
            3: (0.15 * cmath.exp(2.60j), 0.010),
            4: (0.10 * cmath.exp(0.60j), 0.008)}

    def test_odd_n_field_is_a_gradient_flow(self):
        # for odd n the tangent is conj(V)/|V| with V = z^2 (z^n - 1)(z - 1),
        # i.e. the normalized gradient of Re(integral of V): no closed orbits
        # can exist, and Re F must be monotone along every trajectory
        def F(z, n):
            return (z ** (n + 4) / (n + 4) - z ** (n + 3) / (n + 3)
                    - z ** 4 / 4 + z ** 3 / 3)
        for n in (1, 3):
            pts = analysis.coupling_angle_portrait(n, self.GRID[n][0], max_steps=3000)
            vals = np.array([F(z, n).real for z in pts])
            d = np.diff(vals)
            assert np.all(d > 0) or np.all(d < 0)

    def test_odd_n_trajectories_escape(self):
        for n in (1, 3):
            pts = analysis.coupling_angle_portrait(n, self.GRID[n][0])
            assert np.max(np.abs(pts - pts[0])) > 3.0
            assert not analysis.detect_limit_cycle(pts, tol=0.05).closed

    def test_even_n_curves_end_at_the_double_zero(self):
        # the even-n field is the normalized holomorphic flow of V; on the
        # grid its orbits run into the double zero z = 0 and end there, the
        # last sample less than two steps from it
        for n in (2, 4):
            z0, step = self.GRID[n]
            pts = analysis.coupling_angle_portrait(n, z0, step=step)
            assert abs(pts[-1]) < 2 * step
            assert np.max(np.abs(pts)) < 2.5

    def test_straight_orbit_ends_at_the_zero(self):
        # the curve ends before it comes within step of z = 0: at the arrival
        # event, or, where a step along the real axis (on which the unit field
        # is constant) runs through the zero without it firing, at the cut of
        # the samples there
        for n in (1, 2, 3, 4):
            pts = analysis.coupling_angle_portrait(n, -0.3, step=0.01)
            assert 0.01 <= abs(pts[-1]) < 0.02

    def test_odd_n_curves_match_the_rk4_reference(self):
        # on the nodes both curves share, the adaptive integration stays
        # within the fixed-step RK4's own truncation error of it
        for n in (1, 3):
            z0, step = self.GRID[n]
            new = analysis.coupling_angle_portrait(n, z0, step=step)
            old = _rk4_portrait(n, z0, step=step)
            m = min(len(new), len(old))
            assert m > 300
            assert np.max(np.abs(new[:m] - old[:m])) < 1e-6

    def test_one_ulp_in_z0_leaves_the_curve(self):
        for n, (z0, step) in self.GRID.items():
            pts = analysis.coupling_angle_portrait(n, z0, step=step)
            moved = analysis.coupling_angle_portrait(n, z0 * (1 + 2 ** -52), step=step)
            assert len(moved) == len(pts)
            assert np.max(np.abs(moved - pts)) < 1e-12

    @pytest.mark.xfail(strict=True, reason="the printed slope prefactor "
                       "makes the odd-n field a gradient flow (acyclic) and "
                       "the even-n field holomorphic; the stated parity is "
                       "inverted; see the decisions ledger")
    def test_parity_as_stated_odd_closed_even_open(self):
        found_odd = []
        for n in (1, 3):
            pts = analysis.coupling_angle_portrait(n, self.GRID[n][0])
            found_odd.append(analysis.detect_limit_cycle(pts, tol=0.05).closed)
        assert any(found_odd)
        for n in (2, 4):
            pts = analysis.coupling_angle_portrait(n, self.GRID[n][0])
            assert not analysis.detect_limit_cycle(pts, tol=0.05).closed

    def test_start_on_a_zero_raises(self):
        for n, z0 in ((2, 0.0), (2, 0j), (1, 1.0), (3, cmath.exp(2j * math.pi / 3)),
                      (4, 1j + 5e-4)):
            with pytest.raises(DomainError):
                analysis.coupling_angle_portrait(n, z0)

    def test_integrator_stops_propagate(self, monkeypatch):
        # only the portrait's own events end a curve quietly
        with pytest.raises(StepSizeUnderflow):
            analysis.coupling_angle_portrait(2, complex(math.nan, 0.0))
        monkeypatch.setattr(integrate, "MAX_STEPS", 2)
        with pytest.raises(FlowStopped) as exc:
            analysis.coupling_angle_portrait(1, self.GRID[1][0])
        assert type(exc.value) is FlowStopped

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            analysis.coupling_angle_portrait(2, 0.3, step=-1.0)
        for n in (0, 2.5):
            with pytest.raises(DomainError):
                analysis.coupling_angle_portrait(n, 0.3)
        # a nan or infinite step fails closed
        with pytest.raises(DomainError):
            analysis.coupling_angle_portrait(2, 0.3, step=math.nan)
        with pytest.raises(DomainError):
            analysis.coupling_angle_portrait(2, 0.3, step=math.inf)


class TestSpectrumVariance:
    def test_conjugate_pair_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            lam = rng.uniform(0.1, 5.0)
            th = rng.uniform(0.0, 2.0 * math.pi)
            pair = [lam * cmath.exp(1j * th), lam * cmath.exp(-1j * th)]
            out = analysis.spectrum_variance(pair)
            assert abs(out + 2.0 * lam * lam) < 1e-12 * max(1.0, lam * lam)

    def test_worked_pairs(self):
        assert analysis.spectrum_variance([1j, -1j]) == pytest.approx(-2.0)
        pair = [2 * cmath.exp(1j * math.pi / 3), 2 * cmath.exp(-1j * math.pi / 3)]
        assert analysis.spectrum_variance(pair) == pytest.approx(-8.0)

    def test_single_eigenvalue_vanishes(self):
        assert analysis.spectrum_variance([2.3 + 0.4j]) == 0

    def test_empty_spectrum_rejected(self):
        with pytest.raises(DomainError):
            analysis.spectrum_variance([])


class TestCFlowContraction:
    def test_unit_contraction(self):
        assert analysis.c_flow_contraction([1.0, 0.0], np.eye(2)) == -12.0

    def test_sign_flip_on_negative_metric_direction(self):
        G = np.diag([1.0, -1.0])
        assert analysis.c_flow_contraction([0.0, 0.5], G) == 12.0 * 0.25

    def test_positive_definite_metric_gives_negative_value(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            A = rng.standard_normal((4, 4))
            G = A.T @ A + 0.1 * np.eye(4)
            b = rng.standard_normal(4)
            assert analysis.c_flow_contraction(b, G) < 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            analysis.c_flow_contraction([1.0, 2.0], np.eye(3))


class TestMatsubaraScale:
    def test_unit_logarithm_point(self):
        gamma = 1.0 / math.e
        out = analysis.matsubara_scale(gamma, 1.0, 1.0)
        assert out.n_b == pytest.approx(gamma)
        assert not out.complex_branch
        assert out.tau == pytest.approx(math.sqrt(math.pi) * special.erfi(1.0),
                                        rel=1e-10)

    def test_direct_evaluation_against_erfi_oracle(self):
        out = analysis.matsubara_scale(0.5, 2.0, 1.0)
        L = math.log(4.0)
        assert out.n_b == pytest.approx(0.5 * math.sqrt(L), rel=1e-12)
        assert out.t_b == pytest.approx(1.0 / (2 * math.pi * math.log(1 - 0.5 / L)),
                                        rel=1e-12)
        assert out.tau == pytest.approx(math.sqrt(math.pi) * special.erfi(L),
                                        rel=1e-9)
        assert not out.complex_branch

    def test_negative_log_branch_is_flagged(self):
        out = analysis.matsubara_scale(2.0, 1.0, 1.0)   # C < gamma: L < 0
        assert out.complex_branch
        assert abs(out.n_b.real) < 1e-12 and out.n_b.imag != 0

    def test_poles(self):
        with pytest.raises(PoleError):
            analysis.matsubara_scale(2.0, 2.0, 1.0)
        gamma = 0.8
        with pytest.raises(PoleError):
            analysis.matsubara_scale(gamma, gamma * math.exp(gamma), 1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            analysis.matsubara_scale(-1.0, 1.0, 1.0)


class TestPhaseDiagramScan:
    def test_integer_branch_monotone_power_law(self):
        pts = analysis.phase_diagram_scan([2.0, 3.0, 4.0, 5.0, 6.0],
                                          0.5, 1.0, 1.0, 0.01)
        scales = [p.scale for p in pts]
        assert all(s > 0 and math.isfinite(s) for s in scales)
        assert all(a > b for a, b in zip(scales, scales[1:]))
        exponent, _, r2 = analysis.power_law_fit([p.N for p in pts], scales)
        assert r2 > 0.98
        assert all(p.exponent_fit == pytest.approx(exponent) for p in pts)

    def test_fractional_powers_marked_non_critical(self):
        pts = analysis.phase_diagram_scan([2.0, 2.5, 3.0, 3.5, 4.0],
                                          0.5, 1.0, 1.0, 0.01)
        by_n = {p.N: p for p in pts}
        assert by_n[2.5].exponent_fit is None
        assert by_n[3.5].exponent_fit is None
        assert by_n[2.0].exponent_fit is not None

    def test_left_branch_quadratic_exponent(self):
        Ns = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        shifted = [analysis.matsubara_propagator_sum(1.0, 0.01, N) - 1.0
                   for N in Ns]
        exponent, _, r2 = analysis.power_law_fit(Ns, shifted)
        assert abs(exponent - 2.0) < 1e-3
        assert r2 > 0.9999

    def test_single_point_smoke_value(self):
        pts = analysis.phase_diagram_scan([1.0], 0.5, 1.0, 1.0, 0.01)
        assert len(pts) == 1
        assert pts[0].exponent_fit is None
        assert not pts[0].divergent
        assert pts[0].scale == pytest.approx(11.10545148439308, rel=1e-9)

    def test_validation(self):
        with pytest.raises(DomainError):
            analysis.phase_diagram_scan([1.0], -0.5, 1.0, 1.0, 0.01)
        with pytest.raises(DomainError):
            analysis.matsubara_propagator_sum(1.0, 0.0, 2.0)

    @pytest.mark.parametrize("N", [5e-324, 1e-320])
    def test_nu_over_N_overflow_raises(self, N):
        with pytest.raises(Overflow):
            analysis.matsubara_propagator_sum(1.0, 1.0, N)


class TestPowerLawFit:
    def test_exact_power_laws(self):
        x = np.linspace(1.0, 9.0, 20)
        e, a, r2 = analysis.power_law_fit(x, 3.0 * x ** 2)
        assert e == pytest.approx(2.0) and a == pytest.approx(3.0)
        assert r2 == pytest.approx(1.0)
        e, _, _ = analysis.power_law_fit(x, x ** (2.0 / 3.0))
        assert e == pytest.approx(2.0 / 3.0)

    def test_noise_tolerance(self):
        rng = np.random.default_rng(23)
        x = np.linspace(1.0, 20.0, 60)
        y = x ** 2 * (1.0 + 0.01 * rng.standard_normal(len(x)))
        e, _, r2 = analysis.power_law_fit(x, y)
        assert abs(e - 2.0) < 0.02
        assert r2 > 0.99

    def test_rejects_bad_data(self):
        with pytest.raises(DomainError):
            analysis.power_law_fit([1.0, 2.0], [1.0, 4.0])
        with pytest.raises(DomainError):
            analysis.power_law_fit([1.0, -2.0, 3.0], [1.0, 4.0, 9.0])


class TestWavefnZRelation:
    def test_exponential_values(self):
        assert analysis.wavefn_z_relation(0.0) == 1.0
        assert analysis.wavefn_z_relation(1.0) == pytest.approx(math.e)

    def test_derivative_matches_finite_difference(self):
        h = 1e-7
        for z in (-1.0, 0.0, 0.7, 2.0):
            fd = (analysis.wavefn_z_relation(z + h)
                  - analysis.wavefn_z_relation(z - h)) / (2 * h)
            assert abs(fd - math.exp(z)) < 1e-8 * max(1.0, math.exp(z))
