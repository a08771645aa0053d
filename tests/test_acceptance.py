"""End-to-end acceptance checks, one per headline guarantee of the library.

Each test is a single pass/fail gate with an independent oracle: mpmath or
scipy quadrature for special functions, closed forms for limits, and
byte-level comparison for reproducibility.  Gates that the implemented
formulas cannot meet are kept as strict expected failures with the reason
stated; the analysis is recorded in DECISIONS.md.
"""
import json
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from cflow import analysis, bethe, oscillator as osc, rgflow as rg
from cflow import specfun as sf
from cflow.cli import main as cli_main

mp.mp.dps = 30


# -- regulator integrals -----------------------------------------------------

def test_01_regulator_integral_recovers_half_quantum():
    p = rg.WetterichParams(omega=1.0, Lambda=1e6)
    e = rg.wetterich_ground_energy(p, "real_osc")
    assert abs(e - 0.5) < 1e-5


@pytest.mark.xfail(strict=True, reason="the exact perturbed energy is "
                   "0.5 sqrt(1 - delta^2) + O(1/Lambda), whose delta^4/16 "
                   "term alone exceeds the 1e-4 delta^2 budget at every "
                   "listed delta; see the decisions ledger")
def test_02_perturbed_energy_parabolic_to_stated_budget():
    for delta in (0.05, 0.1, 0.2):
        p = rg.WetterichParams(omega=1.0, Lambda=1e6, delta=delta)
        e = rg.wetterich_ground_energy(p, "perturbed")
        assert abs(e - (0.5 - delta * delta / 4.0)) < 1e-4 * delta * delta


# -- series solutions --------------------------------------------------------

def test_03_free_limit_truncates_at_integer_energy():
    for n in (0, 2, 4, 6):
        s = osc.frobenius_coeffs(osc.OscParams(0, 0.0, float(n)),
                                 (1.0, 0.0), 0.0, 20)
        assert all(c == 0 for c in s.coeffs[n + 2::2])


# -- special functions -------------------------------------------------------

def test_04_special_function_oracle_suite():
    rng = np.random.default_rng(20260823)
    rel = 1e-8

    def close(a, b):
        b = complex(b)
        assert abs(a - b) <= rel * max(abs(b), 1e-12)

    for _ in range(100):
        s = complex(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
        z = complex(rng.uniform(0.2, 4.0), rng.uniform(-2.0, 2.0))
        close(sf.upper_incomplete_gamma(s, z), mp.gammainc(s, z))
    for _ in range(100):
        a, b = rng.uniform(0.2, 2.0, 2)
        c = rng.uniform(1.0, 3.0)
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.4, 0.4))
        close(sf.hyp2f1(a, b, c, z), mp.hyp2f1(a, b, c, z))
    for _ in range(100):
        a = rng.uniform(0.2, 2.0)
        b = rng.uniform(0.5, 3.0)
        z = complex(rng.uniform(-4.0, 4.0), rng.uniform(-2.0, 2.0))
        close(sf.pfq([a], [b], z), mp.hyp1f1(a, b, z))
    for _ in range(100):
        a = rng.uniform(0.2, 2.0)
        bs = rng.uniform(0.5, 3.0, 4)
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
        close(sf.pfq([a], list(bs), z), mp.hyper([a], list(bs), z))
    for _ in range(100):
        nu = rng.uniform(0.0, 3.0)
        z = complex(rng.uniform(0.3, 6.0), rng.uniform(-2.0, 2.0))
        close(sf.bessel("j", nu, z), mp.besselj(nu, z))
        close(sf.bessel("i", nu, z), mp.besseli(nu, z))
        n = int(rng.integers(0, 4))
        x = rng.uniform(0.3, 6.0)
        close(sf.bessel("y", float(n), x), mp.bessely(n, x))
        close(sf.bessel("k", float(n), x), mp.besselk(n, x))
    for _ in range(100):
        x = rng.uniform(-3.0, 3.0)
        close(complex(sf.erfi(x)), mp.erfi(x))
        nu = float(rng.integers(0, 3))
        xb = rng.uniform(0.2, 6.0)
        close(complex(sf.kelvin_bei(nu, xb)), mp.bei(nu, xb))

    # contiguous/recurrence residuals
    for _ in range(30):
        nu = rng.uniform(0.5, 3.0)
        z = complex(rng.uniform(0.5, 5.0), rng.uniform(-1.0, 1.0))
        lhs = sf.bessel("j", nu - 1, z) + sf.bessel("j", nu + 1, z)
        rhs = 2.0 * nu / z * sf.bessel("j", nu, z)
        assert abs(lhs - rhs) < 1e-6 * max(abs(rhs), 1.0)
        s = complex(rng.uniform(0.5, 2.5), rng.uniform(-0.5, 0.5))
        g1 = sf.upper_incomplete_gamma(s + 1, z)
        g0 = sf.upper_incomplete_gamma(s, z)
        res = g1 - s * g0 - sf.cpow(z, s) * np.exp(-z)
        assert abs(res) < 1e-6 * max(abs(g1), 1.0)


# -- coupling flows ----------------------------------------------------------

def test_05_one_loop_level_constant_conserved_along_flow():
    grid = np.linspace(0.1, 1.0, 80)
    C0 = (2.0 / 3.0) * 4.0 ** -0.5 - 2.0 * math.sqrt(0.1)
    _, inv = rg.one_loop_invariant_flow("separated_v1", grid, C0)
    drift = max(abs(c - inv[0]) for c in inv) / abs(inv[0])
    assert drift < 1e-6


def test_06_third_order_corrections_preserve_coupling_ratio():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 1000:
        g = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        gam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(g - gam * gam) < 1e-3 or abs(gam) < 1e-3:
            continue
        dg, dgam = rg.third_order_corrections(g, gam)
        scale = max(abs(dg * gam), abs(dgam * g), 1e-30)
        assert abs(dg * gam - dgam * g) < 1e-12 * scale
        checked += 1


def test_07_closed_form_beta_matches_defining_quadrature():
    for N in (1, 2, 3):
        for k in (0.5, 1.0, 2.0):
            beta, _ = rg.lr_beta_closed_form(0.8, k, N, 0.3, form="advanced")
            oracle = quad(lambda x: x ** (2 * N) / (k + x ** (2 * N + 2)),
                          0.0, 0.8, epsabs=1e-13, epsrel=1e-13)[0]
            assert abs(-beta - oracle) < 1e-8 * abs(oracle)


def test_08_reduced_coupling_local_slopes_match_power_law():
    nu = 0.01
    vals = [abs(rg.gamma_tilde(1.0, 1.0, N, nu)) for N in range(1, 7)]
    model = [N ** (-1.0 / N - 0.5) for N in range(1, 7)]
    for i in range(5):
        dlN = math.log(i + 2) - math.log(i + 1)
        slope = (math.log(vals[i + 1]) - math.log(vals[i])) / dlN
        slope_model = (math.log(model[i + 1]) - math.log(model[i])) / dlN
        assert abs(slope - slope_model) < 0.01 * abs(slope_model)


# -- root systems ------------------------------------------------------------

def test_09_root_systems_against_cubic_oracle():
    assert bethe.solve_bethe_roots(1, 1).roots == (0.0 + 0.0j,)
    cands = np.roots([16.0, 4.0, 0.0, -1.0])
    oracle = max(r.real for r in cands if abs(r.imag) < 1e-12)
    assert abs(bethe.symmetric_pair_root(1) - oracle) < 1e-10
    for n, N in [(2, 1), (3, 1), (2, 2)]:
        out = bethe.solve_bethe_roots(n, N)
        x = np.asarray(out.roots)
        d = x[:, None] - x[None, :]
        np.fill_diagonal(d, 1.0)
        terms = 0.5 / d + (-1.0) ** N * d ** (2 * N)
        np.fill_diagonal(terms, 0.0)
        assert np.max(np.abs(x - terms.sum(axis=1))) < 1e-10


# -- limit-cycle detection ---------------------------------------------------

def test_10_cycle_detector_calibration():
    ts = np.linspace(0.0, 2.0 * math.pi, 256)
    circle = np.exp(1j * ts)
    rep = analysis.detect_limit_cycle(circle)
    assert rep.closed and rep.winding == 1

    ts = np.linspace(0.0, 6.0 * math.pi, 800)
    spiral = np.exp((1j - 1.0) * ts)   # log spiral, pitch c = 1
    rep = analysis.detect_limit_cycle(spiral)
    assert not rep.closed
    assert rep.spiral_c == pytest.approx(1.0, abs=1e-6)


@pytest.mark.xfail(strict=True, reason="the printed slope field integrates "
                   "to a gradient flow for odd powers (no closed orbits) and "
                   "a holomorphic flow for even powers, inverting the stated "
                   "parity; flipping the sign prefactor restores it; see the "
                   "decisions ledger")
def test_10b_portrait_parity_as_stated():
    grid = {1: (0.15 * np.exp(0.60j), 0.010),
            2: (0.15 * np.exp(0.75j), 0.012),
            3: (0.15 * np.exp(2.60j), 0.010),
            4: (0.10 * np.exp(0.60j), 0.008)}
    for n, (z0, step) in grid.items():
        pts = analysis.coupling_angle_portrait(n, z0, step=step)
        rep = analysis.detect_limit_cycle(pts, tol=5e-2)
        if n % 2 == 1:
            assert rep.closed
        else:
            assert not rep.closed


# -- spectral diagnostics ----------------------------------------------------

def test_11_conjugate_pair_variance_identity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        lam = rng.uniform(0.1, 3.0)
        th = rng.uniform(0.0, 2.0 * math.pi)
        pair = [lam * np.exp(1j * th), lam * np.exp(-1j * th)]
        v = analysis.spectrum_variance(pair)
        assert abs(v - (-2.0 * lam * lam)) < 1e-10 * lam * lam


def test_12_action_saddles_have_vanishing_gradient():
    g_inv, gamma, h = 0.3, 0.7, 1e-4
    for N in (1, 3, 4):
        for nu in rg.saddle_points(g_inv, gamma, N, [0, 1, 2]):
            grad = (rg.log_action(g_inv, gamma, N, nu + h)
                    - rg.log_action(g_inv, gamma, N, nu - h)) / (2 * h)
            assert abs(grad) < 1e-6


# -- phase scan --------------------------------------------------------------

def test_13_phase_scan_branches_fit_power_laws(tmp_path, monkeypatch):
    # the published branch exponents hinge on an unpinned mode-sum
    # normalization, so the gate checks the scan's structural guarantees
    # and records the fitted exponents instead of asserting their values
    pts = analysis.phase_diagram_scan([2, 3, 4, 5, 6, 2.5, 3.5],
                                      gamma=0.5, E0=1.0, k=1.0, nu=0.3)
    ints = [p for p in pts if abs(p.N - round(p.N)) < 1e-9]
    fracs = [p for p in pts if abs(p.N - round(p.N)) >= 1e-9]
    scales = [p.scale for p in sorted(ints, key=lambda q: q.N)]
    assert all(b < a for a, b in zip(scales, scales[1:]))   # monotone branch
    _, _, r2 = analysis.power_law_fit([p.N for p in ints], scales)
    assert r2 > 0.98
    assert all(p.exponent_fit is not None for p in ints)
    assert all(p.exponent_fit is None for p in fracs)

    # the driver records the fitted exponent in the run JSON
    monkeypatch.chdir(tmp_path)
    assert cli_main(["phase", "--N_list", "2,3,4,5,6", "--gamma", "0.5",
                     "--E0", "1.0", "--k_re", "1.0", "--nu", "0.3",
                     "--out", "ph.csv"]) == 0
    fit = json.loads((tmp_path / "ph_fit.json").read_text())
    assert fit["r_squared"] > 0.98
    assert math.isfinite(fit["exponent"])

    # left branch: the mode-summed correlator grows as N^2
    sums = [analysis.matsubara_propagator_sum(1.0, 0.05, N) - 0.0
            for N in (4, 8, 16, 32)]
    expo, _, r2l = analysis.power_law_fit([4, 8, 16, 32], sums)
    assert abs(expo - 2.0) < 1e-2 and r2l > 0.9999


# -- reproducibility ---------------------------------------------------------

def test_14_driver_outputs_are_byte_reproducible(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["flow", "--variant", "lr", "--N", "2", "--nu", "0.4",
            "--gamma0", "0.3", "--ginv0", "1.0", "--s_max", "1.0",
            "--n_points", "21"]
    assert cli_main(args + ["--out", "a.csv", "--svg", "a.svg"]) == 0
    assert cli_main(args + ["--out", "b.csv", "--svg", "b.svg"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    assert cli_main(["bethe", "--n", "2", "--N", "1", "--out", "r1.json"]) == 0
    assert cli_main(["bethe", "--n", "2", "--N", "1", "--out", "r2.json"]) == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
