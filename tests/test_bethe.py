"""Tests for the Bethe-ansatz machinery.

Oracles: numpy polynomial roots for the reduced symmetric-pair cubic, a
numpy-broadcast fixed-point defect for the root systems, central-difference
ODE residuals for the auxiliary Bessel solutions, and closed forms for the
scaling flows.
"""
import cmath
import math

import numpy as np
import pytest

from cflow import bethe
from cflow.errors import CollisionError, DomainError, PoleError


def root_defect(roots, N):
    """x_j - sum_{k != j} [1/(2(x_j - x_k)) + (-1)^N (x_j - x_k)^{2N}]."""
    x = np.asarray(roots, dtype=complex)
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, 1.0)
    terms = 0.5 / d + (-1.0) ** N * d ** (2 * N)
    np.fill_diagonal(terms, 0.0)
    return x - terms.sum(axis=1)


class TestSolveBetheRoots:
    def test_single_root_is_origin(self):
        for N in (0, 1, 2, 3):
            out = bethe.solve_bethe_roots(1, N)
            assert out.roots == (0.0 + 0.0j,)
            assert out.residual == 0.0

    def test_symmetric_ansatz_root_matches_cubic_oracle(self):
        x = bethe.symmetric_pair_root(1)
        cands = np.roots([16.0, 4.0, 0.0, -1.0])
        oracle = max(r.real for r in cands if abs(r.imag) < 1e-12)
        assert abs(x - oracle) < 1e-10

    def test_pair_solution_has_unit_gap(self):
        # subtracting the two pair equations forces (x1 - x2)^2 = 1, which
        # pins the full solution; the gap is exact
        out = bethe.solve_bethe_roots(2, 1)
        gap = out.roots[0] - out.roots[1]
        assert abs(abs(gap) - 1.0) < 1e-12

    @pytest.mark.xfail(strict=True, reason="the pair system forces "
                       "|x1 - x2| = 1 and admits no symmetric solution; "
                       "see the decisions ledger")
    def test_full_pair_solution_contains_cubic_root(self):
        out = bethe.solve_bethe_roots(2, 1)
        oracle = bethe.symmetric_pair_root(1)
        assert min(abs(r - oracle) for r in out.roots) < 1e-10

    def test_defects_below_tolerance(self):
        for n, N in [(2, 1), (3, 1), (2, 2), (4, 1), (6, 1), (12, 2), (16, 1)]:
            out = bethe.solve_bethe_roots(n, N)
            assert out.residual < 1e-10
            assert np.max(np.abs(root_defect(out.roots, N))) < 1e-10

    @pytest.mark.xfail(strict=True, reason="the even-power interaction term "
                       "breaks reflection antisymmetry; see the decisions "
                       "ledger")
    def test_even_count_root_set_reflection_symmetric(self):
        for n in (2, 4):
            out = bethe.solve_bethe_roots(n, 1)
            for r in out.roots:
                assert min(abs(r + s) for s in out.roots) < 1e-9

    def test_colliding_roots_are_rejected(self):
        with pytest.raises(CollisionError):
            bethe.BetheRoots((0.1, 0.1 + 1e-12), 1, 0.0)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            bethe.solve_bethe_roots(0, 1)
        with pytest.raises(DomainError):
            bethe.solve_bethe_roots(2, 1, tol=-1.0)

    def test_three_roots_take_at_most_sixty_linear_solves(self, monkeypatch):
        # the continuation from the Hermite zeros needs 32-38 solves; a
        # direct Newton tried first at full interaction spends 200 more
        calls = []
        solve = np.linalg.solve

        def counted(a, b):
            calls.append(1)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        out = bethe.solve_bethe_roots(3, 1)
        assert out.residual < 1e-12
        assert len(calls) <= 60


class TestBetheWavefunction:
    def test_vanishes_at_every_root(self):
        out = bethe.solve_bethe_roots(3, 1)
        for r in out.roots:
            assert abs(bethe.bethe_wavefunction(r, out)) < 1e-15

    def test_single_root_closed_form(self):
        roots = bethe.BetheRoots((0.0 + 0.0j,), 0, 0.0)
        # e^{-1/2} * 1 * e^{1}
        assert bethe.bethe_wavefunction(1.0, roots) == pytest.approx(math.exp(0.5))

    def test_sign_change_across_simple_zeros(self):
        out = bethe.solve_bethe_roots(2, 1)   # two real roots, gap 1
        lo, hi = sorted(r.real for r in out.roots)
        between = bethe.bethe_wavefunction(0.5 * (lo + hi), out).real
        beyond = bethe.bethe_wavefunction(hi + 0.3, out).real
        assert between * beyond < 0

    def test_decay_along_positive_axis(self):
        out = bethe.solve_bethe_roots(2, 1)
        mags = [abs(bethe.bethe_wavefunction(x, out)) for x in (2.0, 3.0, 4.0)]
        assert mags[0] > mags[1] > mags[2]
        assert mags[2] < 1e-8


class TestRiccatiU:
    def test_zero_amplitude(self):
        p = bethe.RiccatiParams(q=2.0, zeta=1.0, a=0.0)
        assert bethe.riccati_u(1.3, p) == 0

    @pytest.mark.parametrize("branch,zeta,q", [
        ("zeta_neg", 1.0, 3.0),    # even-power sign, q = N+1 with N = 2
        ("zeta_pos", -1.0, 2.0),   # odd-power sign, q = N+1 with N = 1
    ])
    def test_ode_residual_by_central_differences(self, branch, zeta, q):
        p = bethe.RiccatiParams(q=q, zeta=zeta, a=1.0)
        h = 1e-4
        for x in np.linspace(0.5, 2.0, 7):
            u0 = bethe.riccati_u(x, p, branch)
            upp = (bethe.riccati_u(x + h, p, branch) - 2 * u0
                   + bethe.riccati_u(x - h, p, branch)) / (h * h)
            res = upp - zeta * x ** (2 * q - 2) * u0
            assert abs(res) < 1e-5 * max(abs(upp), 1.0)

    def test_chain_rule_derivative_matches_finite_difference(self):
        p = bethe.RiccatiParams(q=3.0, zeta=1.0, a=0.7 + 0.1j)
        h = 1e-6
        for x in (0.6, 1.1, 1.9):
            fd = (bethe.riccati_u(x + h, p) - bethe.riccati_u(x - h, p)) / (2 * h)
            assert abs(bethe.riccati_u_derivative(x, p) - fd) < 1e-6 * max(abs(fd), 1.0)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            bethe.RiccatiParams(q=0.0, zeta=1.0, a=1.0)
        p = bethe.RiccatiParams(q=2.0, zeta=1.0, a=1.0)
        with pytest.raises(DomainError):
            bethe.riccati_u(0.0, p)
        with pytest.raises(DomainError):
            bethe.riccati_u(1.0, p, branch="bogus")


class TestQuasiMomentum:
    def _params(self):
        return bethe.RiccatiParams(q=2.0, zeta=-1.0, a=1.0)

    def test_leading_large_x_behaviour(self):
        # the direct contribution tends to ix - i/x; isolate it by removing
        # the auxiliary-solution part
        roots = bethe.solve_bethe_roots(1, 1)
        x = 8.0
        p = bethe.quasi_momentum(x, roots, self._params(), branch="zeta_pos")
        u = bethe.riccati_u(x, self._params(), "zeta_pos")
        du = bethe.riccati_u_derivative(x, self._params(), "zeta_pos")
        px = p - 1j * du / u
        assert abs(px - (1j * x - 1j / x)) < 1e-8
        assert abs(px - 1j * x) / x < 0.02

    def test_three_poles_at_the_roots(self):
        roots = bethe.solve_bethe_roots(3, 1)
        for r in roots.roots:
            p = bethe.quasi_momentum(r + 1e-7, roots, self._params(),
                                     branch="zeta_pos")
            assert abs(p) > 1e5

    @pytest.mark.xfail(strict=True, reason="the three-root family sits off "
                       "the real axis, so the real line carries no poles; "
                       "see the decisions ledger")
    def test_three_poles_on_real_line(self):
        roots = bethe.solve_bethe_roots(3, 1)
        xs = np.linspace(-4.0, 4.0, 2001)
        mags = [abs(bethe.quasi_momentum(x, roots, self._params(),
                                         branch="zeta_pos")) for x in xs]
        peaks = sum(1 for i in range(1, len(mags) - 1)
                    if mags[i] > 1e3 and mags[i] >= mags[i - 1]
                    and mags[i] >= mags[i + 1])
        assert peaks == 3

    def test_at_most_four_bessel_calls_per_root(self, monkeypatch):
        # u and u' share the Bessel pair at order nu and add one at nu - 1
        calls = []
        bessel = bethe.sf.bessel

        def counted(kind, nu, z):
            calls.append(kind)
            return bessel(kind, nu, z)

        roots = bethe.solve_bethe_roots(4, 1)
        monkeypatch.setattr(bethe.sf, "bessel", counted)
        for branch in ("zeta_pos", "zeta_neg"):
            calls.clear()
            bethe.quasi_momentum(0.3, roots, self._params(), branch=branch)
            assert len(calls) <= 4 * len(roots.roots)

    def test_pole_error_at_root(self):
        roots = bethe.solve_bethe_roots(2, 1)
        with pytest.raises(PoleError):
            bethe.quasi_momentum(roots.roots[0].real, roots, self._params(),
                                 branch="zeta_pos")


class TestGPScalingFlow:
    def test_xi_linear_flow_closed_form(self):
        traj = bethe.gp_scaling_flow(2.0, np.linspace(0.0, 0.5, 6), 1.0, 2.0)
        for s in traj.states:
            assert abs(s.gamma - 2.0 * cmath.exp(s.tau)) < 1e-12
        # xi at s' = 1 would be e * xi0; check by direct evaluation
        traj2 = bethe.gp_scaling_flow(2.0, [0.0, 0.5], 1.0, 1.0)
        assert abs(traj2.states[0].gamma - 1.0) < 1e-15

    def test_chi_closed_form_for_unit_power(self):
        # 2q - 1 = 1: d chi/ds = s chi/(1 - s), chi = chi0 e^{-s}/(1 - s)
        traj = bethe.gp_scaling_flow(2.0, np.linspace(0.0, 0.5, 11), 1.5, 1.0)
        for s in traj.states:
            expect = 1.5 * cmath.exp(-s.tau) / (1.0 - s.tau)
            assert abs(s.g_inv - expect) < 1e-8 * abs(expect)

    def test_fallback_gaussian_closed_form(self):
        traj = bethe.gp_scaling_flow(1.0, np.linspace(0.0, 2.0, 9), 0.7, 1.0)
        for s in traj.states:
            expect = 0.7 * cmath.exp(0.5 * s.tau * s.tau)
            assert abs(s.g_inv - expect) < 1e-8 * abs(expect)

    def test_singular_locus_raises(self):
        with pytest.raises(PoleError):
            bethe.gp_scaling_flow(2.0, np.linspace(0.0, 1.0, 21), 1.0, 1.0)

    def test_complex_contour_produces_rotating_trajectory(self):
        pts = [t * cmath.exp(1j * math.pi / 4) for t in np.linspace(0.0, 3.0, 61)]
        traj = bethe.gp_scaling_flow(2.0, pts, 1.0, 1.0)
        chis = [s.g_inv for s in traj.states]
        args = np.unwrap([cmath.phase(c) for c in chis])
        turning = np.sum(np.abs(np.diff(args)))
        assert turning > 0.5  # the phase turns and folds back: a spiral arc
        assert all(np.isfinite([c.real, c.imag]).all() for c in chis)
