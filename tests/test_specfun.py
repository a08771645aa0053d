"""Special-function tests against independent quadrature / high-precision oracles."""
import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cflow import specfun as sf
from cflow.errors import (BranchCut, DomainError, NonConvergence, Overflow,
                          PoleError)

mp.mp.dps = 30


def rel_err(got, want):
    return abs(complex(got) - complex(want)) / max(abs(complex(want)), 1e-300)


# ---------------------------------------------------------------------------
# upper incomplete gamma
# ---------------------------------------------------------------------------


def test_gamma_1_z_is_exp():
    assert rel_err(sf.upper_incomplete_gamma(1.0, 2.0), math.exp(-2)) < 1e-12


def test_gamma_s_at_zero_is_complete_gamma():
    assert rel_err(sf.upper_incomplete_gamma(3.0, 0.0), 2.0) < 1e-14


def test_gamma_half_one_vs_quadrature():
    # Independent oracle: adaptive quadrature of the defining integral.
    val, err = quad(lambda t: t ** -0.5 * math.exp(-t), 1.0, np.inf)
    assert err < 1e-8
    assert abs(val - 0.27880559) < 5e-8  # frozen digits
    assert rel_err(sf.upper_incomplete_gamma(0.5, 1.0), val) < 1e-10


def test_cpow_exponent_overflow_raises():
    # a log w overflows in both parts, where cmath.exp has no value
    with pytest.raises(Overflow):
        sf.cpow(1e-320 + 3e189j, 1.7976931348623157e308)


def test_gamma_pole_at_nonpositive_integer_origin():
    with pytest.raises(PoleError):
        sf.upper_incomplete_gamma(-2.0, 0.0)
    with pytest.raises(PoleError):
        sf.upper_incomplete_gamma(0.0, 0.0)


@pytest.mark.parametrize("s", [-3 - 1e-9, -1 - 1e-9, -10 - 1e-6, -3 + 1e-9j])
def test_complete_gamma_next_to_poles_vs_mpmath(s):
    # the reflection formula's sin(pi s) must keep its digits next to the
    # poles, where pi s alone rounds away most of s - round(s)
    want = complex(mp.gamma(mp.mpc(s)))
    assert rel_err(sf.gamma(s), want) < 1e-13


@pytest.mark.parametrize("s", [0.3 + 300j, 0.3 - 300j, -0.7 + 250j, -5.5 - 400j,
                               0.49 + 227j, 0.1 + 480j])
def test_complete_gamma_where_the_reflection_sine_overflows_vs_mpmath(s):
    # sin(pi s) is past the double range, Gamma(s) is tiny but finite (below
    # the double range, so 0, at 0.1 + 480i)
    want = complex(mp.gamma(mp.mpc(s)))
    assert rel_err(sf.gamma(s), want) < 1e-12


def test_gamma_negative_real_argument():
    # The continued analytic function at negative z, principal branch.
    want = complex(mp.gammainc(mp.mpf("0.4"), mp.mpf("-3.0")))
    assert rel_err(sf.upper_incomplete_gamma(0.4, -3.0), want) < 1e-10


@pytest.mark.parametrize("z", [0.8 + 0.3j, -1.5 + 0.2j, 2.5])
def test_gamma_negative_integer_s_vs_mpmath(z):
    # for |z| < 2, s = -3 takes three steps of the upward recurrence before
    # the E_1 series; z = 2.5 takes the continued fraction
    want = complex(mp.gammainc(-3, mp.mpc(z)))
    assert rel_err(sf.upper_incomplete_gamma(-3.0, z), want) < 1e-11


@pytest.mark.parametrize("s, z", [(-2.0625, 3.0), (-2.75, 3.0),
                                  (-3.8856 + 0.95j, 5.0)])
def test_gamma_negative_re_s_continued_fraction_vs_mpmath(s, z):
    # Re s < 0, Re z > 0, |z| >= 2: gamma(s) minus the lower-gamma series
    # cancels there (2.4e-10 at (-2.0625, 3)), the continued fraction does not
    want = complex(mp.gammainc(mp.mpc(s), mp.mpc(z)))
    assert rel_err(sf.upper_incomplete_gamma(s, z), want) < 1e-11


@pytest.mark.parametrize("s, z", [
    # gamma(s) minus z^s e^-z 1F1(1; s+1; z) / s
    (0.5 + 0.3j, 1.2 - 0.4j), (2.7, 0.9 + 1.5j), (-1.4, -0.8 + 0.6j),
    (3.3 - 0.5j, 2.0 + 2.0j),
    # E_1 = -euler_gamma - Log z + z 2F2(1, 1; 2, 2; -z), lifted for s < 0
    (0.0, 0.3 + 0.4j), (0.0, -0.6 + 0.2j), (-1.0, 0.05 - 0.7j),
    (-1.0, -0.5 - 0.5j), (-3.0, -0.6 + 0.2j), (-3.0, 0.05 - 0.7j)])
def test_gamma_hypergeometric_series_paths_vs_mpmath(s, z):
    want = complex(mp.gammainc(mp.mpc(s), mp.mpc(z)))
    assert rel_err(sf.upper_incomplete_gamma(s, z), want) < 1e-10


def test_gamma_recurrence_is_capped():
    # s + 1 == s in floats, so the recurrence would never reach s = 0
    with pytest.raises(NonConvergence):
        sf.upper_incomplete_gamma(-1e308, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.complex_numbers(min_magnitude=0.1, max_magnitude=4.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=6.0, allow_nan=False, allow_infinity=False),
)
def test_gamma_shift_recurrence(s, z):
    # Gamma(s+1, z) = s Gamma(s, z) + z^s e^{-z}
    if abs(s.imag) < 1e-3 and abs(s.real - round(s.real)) < 1e-3 and s.real < 0.5:
        return  # stay off the poles of the complete gamma
    lhs = sf.upper_incomplete_gamma(s + 1, z)
    rhs = s * sf.upper_incomplete_gamma(s, z) + sf.cpow(z, s) * cmath.exp(-z)
    assert rel_err(lhs, rhs) < 1e-10


# ---------------------------------------------------------------------------
# pfq / 2F1
# ---------------------------------------------------------------------------


def test_2f1_at_zero_is_one():
    assert sf.pfq((0.3 + 0.1j, 2.0), (1.7,), 0.0) == 1.0


def test_2f1_log_identity():
    # 2F1(1,1;2;z) = -log(1-z)/z
    assert rel_err(sf.pfq((1, 1), (2,), 0.5), -math.log(0.5) / 0.5) < 1e-12


def test_2f1_vs_high_precision_series():
    # 30-digit term-wise summation oracle, independent code path.
    a, b, c, z = mp.mpf(1), mp.mpf(3) / 4, mp.mpf(7) / 4, mp.mpf("-0.2")
    term, total = mp.mpf(1), mp.mpf(1)
    for k in range(200):
        term *= (a + k) * (b + k) / (c + k) * z / (k + 1)
        total += term
    assert rel_err(sf.pfq((1, 0.75), (1.75,), -0.2), complex(total)) < 1e-12


@pytest.mark.parametrize("z", [-5.0, 3.0j, -2.0 + 1.5j, 2.0 + 0.01j, 1.0 / 0.95])
def test_2f1_analytic_continuation(z):
    if complex(z).imag == 0 and complex(z).real >= 1.0:
        with pytest.raises(BranchCut):
            sf.pfq((1.0, 0.75), (1.75,), z)
        return
    want = complex(mp.hyp2f1(1, mp.mpf(3) / 4, mp.mpf(7) / 4, mp.mpc(z)))
    assert rel_err(sf.pfq((1.0, 0.75), (1.75,), z), want) < 1e-10


def test_2f1_just_outside_unit_circle_vs_mpmath():
    # |z| = 1.0012, where the 1/z series (|1/z| = 0.9988) cannot converge
    # within the term budget; the 1-z transformation (|1-z| = 0.28) can.
    a, b, c, z = 0.49977, 1.49812, 2.29672, 0.96148 + 0.27931j
    want = complex(mp.hyp2f1(a, b, c, mp.mpc(z)))
    assert rel_err(sf.hyp2f1(a, b, c, z), want) < 1e-10


@pytest.mark.parametrize("z", [0.3, 0.95 + 0.1j])
def test_2f1_near_nonpositive_integer_a_vs_mpmath(z):
    # a = -2 + 1e-10 is no polynomial: the series does not terminate
    a, b, c = -2 + 1e-10, 0.5, 1.5
    want = complex(mp.hyp2f1(a, b, c, mp.mpc(z)))
    assert rel_err(sf.hyp2f1(a, b, c, z), want) < 1e-10


@pytest.mark.parametrize("a, b, c, z", [
    (0.3, 1.3 - 5e-9, 1.9, 10 * cmath.exp(2j)),  # a - b near -1: 1/z cancels
    (0.3, 1.3 - 1e-6, 1.9, 10 * cmath.exp(2j)),
    (1.0, 0.75, 1.75 + 2e-9, 0.95 + 0.3j),       # c - a - b near 0: 1-z cancels
])
def test_2f1_declined_transformations_vs_mpmath(a, b, c, z):
    want = complex(mp.hyp2f1(a, b, c, mp.mpc(z)))
    assert rel_err(sf.hyp2f1(a, b, c, z), want) < 1e-10


_E3 = cmath.exp(1j * math.pi / 3)
_E6 = cmath.exp(1j * math.pi / 6)


# The regions of the hyp2f1 docstring that no other test reaches: "value"
# must meet the bound, "raises" must raise NonConvergence, and "either" may
# do both but never return a value outside the bound.
@pytest.mark.parametrize("a, b, c, z, bound, outcome", [
    (-3.0, 0.5, 1.5, 5.0 + 1.0j, 1e-10, "value"),                # terminating
    (0.3, 0.7, 1.9, _E3, 1e-10, "value"),                        # continuation
    (0.3, 0.7, 1.9, _E3.conjugate(), 1e-10, "value"),
    (0.3, 0.7, 1.9, 0.4068 + 0.9026j, 1e-10, "value"),
    (0.5, 1.5, 2.3, 1.05 * _E3, 1e-10, "value"),                 # a - b integer
    (0.5, 1.5, 2.3, 1.05 * _E3.conjugate(), 1e-10, "value"),
    (1.0, 2.0, 3.5, 1.05 * _E3, 1e-10, "value"),
    (1.0, 2.0, 3.5, 1.05 * _E3.conjugate(), 1e-10, "value"),
    (1.0, 0.75, 1.75, _E6, 1e-10, "value"),                      # c = a + b
    (1.0, 0.75, 1.75, _E6.conjugate(), 1e-10, "value"),
    (1.0, 0.5, 1.5, _E6, 1e-10, "value"),
    (1.0, 0.5, 1.5, _E6.conjugate(), 1e-10, "value"),
    (1.0, 0.995, 1.9, -7e19, 1e-13, "value"),                    # 1/z far out
    (1.0, 1.0, 2.5, -1e10, None, "raises"),                      # past 40 steps
    (1.0, 0.75, 1.75, 1 - 1e-6 * (1 - 1j), 1e-10, "either"),
])
def test_2f1_region_map_vs_mpmath(a, b, c, z, bound, outcome):
    try:
        got = sf.hyp2f1(a, b, c, z)
    except NonConvergence:
        assert outcome != "value"
        return
    assert outcome != "raises"
    assert rel_err(got, complex(mp.hyp2f1(a, b, c, mp.mpc(z)))) < bound


def test_pfq_bad_denominator_parameter():
    with pytest.raises(PoleError):
        sf.pfq((1.0, 2.0), (-1.0,), 0.3)


@pytest.mark.parametrize("a, b, c, z", [(-2, 1, -3, 0.5), (1, -1, -2, 2 + 1j), (-3, 0.5, -5, -1.5j)])
def test_pfq_agrees_with_hyp2f1_where_the_series_ends_before_a_pole_in_c(a, b, c, z):
    got = sf.pfq((a, b), (c,), z)
    assert got == sf.hyp2f1(a, b, c, z)
    assert rel_err(got, complex(mp.hyp2f1(a, b, c, mp.mpmathify(z)))) < 1e-14


def test_1f1_and_1f4():
    assert rel_err(sf.pfq((1,), (2,), 1.5j), complex(mp.hyp1f1(1, 2, mp.mpc(0, 1.5)))) < 1e-10
    want = complex(mp.hyper([mp.mpf(1)], [mp.mpf(1) / 2, mp.mpf(3) / 4, mp.mpf(5) / 4, mp.mpf(3) / 2], mp.mpf("-0.8")))
    assert rel_err(sf.pfq((1,), (0.5, 0.75, 1.25, 1.5), -0.8), want) < 1e-10


def test_pfq_non_finite_sum_raises_overflow():
    # 1F1(1; 2; 800) = (e^800 - 1)/800 is beyond the float range
    with pytest.raises(Overflow):
        sf.pfq((1.0,), (2.0,), 800.0)


def test_pfq_overflowing_terms_raise_overflow():
    # z a overflows, so z a b is nan where b = 0 should end the series
    # before c = -1 makes a denominator 0
    with pytest.raises(Overflow):
        sf.hyp2f1(6.9888087343722935e193, 0.0, -1.0,
                  complex(6.9888087343722935e193, 771.3234287776531))


# ---------------------------------------------------------------------------
# Bessel
# ---------------------------------------------------------------------------


def test_bessel_half_integer_closed_forms():
    assert rel_err(sf.bessel("J", 0.5, 1.0), math.sqrt(2 / math.pi) * math.sin(1)) < 1e-12
    assert rel_err(sf.bessel("I", 0.5, 1.0), math.sqrt(2 / math.pi) * math.sinh(1)) < 1e-12


def test_bessel_k_vs_integral_representation():
    # K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt
    nu, z = 1.0 / 3.0, 0.8
    val, err = quad(lambda t: math.exp(-z * math.cosh(t)) * math.cosh(nu * t), 0, 30)
    assert err < 1e-8
    assert rel_err(sf.bessel("K", nu, z), val) < 1e-10


def test_bessel_y_k_pole_at_origin():
    with pytest.raises(PoleError):
        sf.bessel("Y", 0.3, 0.0)
    with pytest.raises(PoleError):
        sf.bessel("K", 2.0, 0.0)


_MP_BESSEL = {"J": mp.besselj, "I": mp.besseli, "Y": mp.bessely,
              "K": mp.besselk}


@pytest.mark.parametrize("kind", ["J", "I"])
@pytest.mark.parametrize("nu", [-3.0, -2.5, -1.0, -1.0 / 3.0])
@pytest.mark.parametrize("z", [0.7 + 0.4j, 2.5 - 1.2j, -1.8 + 0.9j, 4.0 + 0.3j])
def test_bessel_ji_negative_order_vs_mpmath(kind, nu, z):
    want = complex(_MP_BESSEL[kind](mp.mpf(nu), mp.mpc(z)))
    assert rel_err(sf.bessel(kind, nu, z), want) < 1e-10


_K_AT_6 = pytest.mark.xfail(
    strict=True, reason="the K_n series cancels against 2 I_n Log(x/2) and "
    "loses 1e-10 to 6e-10 relative at x = 6 (large-argument K fault)")


@pytest.mark.parametrize("kind, n, x", [
    pytest.param(kind, n, x, marks=_K_AT_6)
    if kind == "K" and x == 6.0 and n in (-3, -1, 0, 1, 3) else (kind, n, x)
    for kind in ("Y", "K") for n in range(-3, 7)
    for x in (0.3, 1.1, 2.4, 4.2, 6.0)])
def test_bessel_yk_integer_order_vs_mpmath(kind, n, x):
    want = complex(_MP_BESSEL[kind](n, mp.mpf(x)))
    assert rel_err(sf.bessel(kind, float(n), x), want) < 1e-10


@pytest.mark.parametrize("nu", [0.0, 1.0, -2.0, 1.0 / 3.0, -0.4, 2.5])
@pytest.mark.parametrize("z", [0.7, 2.3, 1.0 + 0.8j])
def test_bessel_derivative_recurrences(nu, z):
    # f'_nu = f_{nu-1} - (nu/z) f_nu for J and I; K'_nu = -K_{nu-1} - (nu/z) K_nu.
    h = 1e-6
    for kind, sign in (("J", 1.0), ("I", 1.0), ("K", -1.0)):
        deriv = (sf.bessel(kind, nu, z + h) - sf.bessel(kind, nu, z - h)) / (2 * h)
        rhs = sign * sf.bessel(kind, nu - 1, z) - (nu / z) * sf.bessel(kind, nu, z)
        assert abs(deriv - rhs) < 1e-6


@pytest.mark.parametrize("nu", [0.0, 1.0, 0.25, -0.7])
@pytest.mark.parametrize("z", [0.5, 1.9, 4.2])
def test_bessel_wronskian(nu, z):
    w = sf.bessel("J", nu + 1, z) * sf.bessel("Y", nu, z) - sf.bessel("J", nu, z) * sf.bessel("Y", nu + 1, z)
    assert rel_err(w, 2.0 / (math.pi * z)) < 1e-10


# ---------------------------------------------------------------------------
# Kelvin bei / erfi
# ---------------------------------------------------------------------------


def test_bei_at_origin():
    assert sf.kelvin_bei(0.0, 0.0) == 0.0
    # bei_{-1} = -bei_1 reflects a zero, which stays +0.0
    assert math.copysign(1.0, sf.kelvin_bei(-1.0, 0.0)) == 1.0


def test_bei_matches_rotated_bessel():
    # Independent path: Im J_0(x e^{3 i pi / 4}) through the bessel op.
    for x in (0.3, 1.0, 2.4):
        want = sf.bessel("J", 0.0, x * cmath.exp(0.75j * math.pi)).imag
        assert rel_err(sf.kelvin_bei(0.0, x), want) < 1e-10
    # Two independent routes (rotated-argument Bessel and the defining series)
    # both give 0.24956604 here; frozen to the oracle value.
    assert abs(sf.kelvin_bei(0.0, 1.0) - 0.24956604) < 5e-8


def test_bei_negative_order_vs_series_oracle():
    # Term-wise defining series at 30 digits.
    nu, x = mp.mpf(-1) / 3, mp.mpf("0.5")
    total = mp.mpf(0)
    for k in range(40):
        total += mp.sin(mp.pi * (3 * nu / 4 + mp.mpf(k) / 2)) * (x / 2) ** (nu + 2 * k) / (
            mp.factorial(k) * mp.gamma(nu + k + 1)
        )
    assert rel_err(sf.kelvin_bei(-1.0 / 3.0, 0.5), float(total)) < 1e-10


@pytest.mark.parametrize("z", [r * cmath.exp(-0.25j * math.pi)
                               for r in (0.8, 1.6, 2.6)] + [1.2 + 0.5j])
def test_bei_complex_negative_third_vs_mpmath(z):
    # rho_omega evaluates bei_{-1/3} at |w|^{3/2} e^{-i pi/4} times a constant
    want = complex(mp.bei(mp.mpf(-1.0 / 3.0), mp.mpc(z)))
    assert rel_err(sf.kelvin_bei_complex(-1.0 / 3.0, z), want) < 1e-10


@pytest.mark.parametrize("n", [-1, -2])
@pytest.mark.parametrize("x", [0.4, 1.3, 2.8, 4.5])
def test_bei_negative_integer_order_vs_mpmath(n, x):
    want = float(mp.bei(n, mp.mpf(x)))
    assert rel_err(sf.kelvin_bei(float(n), x), want) < 1e-10


_HALF_UNDERFLOWS = [5e-324, -5e-324, 5e-324j]


@pytest.mark.parametrize("z", _HALF_UNDERFLOWS)
@pytest.mark.parametrize("kind, nu", [("Y", 0.0), ("K", 0.0), ("K", 5e-324)])
def test_bessel_pole_where_half_z_underflows(kind, nu, z):
    # z/2 rounds to 0, so integer-order Y and K meet the pole of Log(z/2)
    with pytest.raises(PoleError):
        sf.bessel(kind, nu, z)


@pytest.mark.parametrize("z", [0.0] + _HALF_UNDERFLOWS)
def test_bessel_values_where_half_z_underflows(z):
    for kind in ("J", "I"):
        assert sf.bessel(kind, 0.0, z) == 1.0
        assert sf.bessel(kind, -2.0, z) == 0.0
    # negative integer orders reflect to positive ones, which vanish at 0
    assert sf.bessel("J", -1.0, z) == 0.0
    assert sf.kelvin_bei_complex(-1.0, z) == 0.0
    # Y_-1.5 = J_1.5, whose first term underflows
    assert sf.bessel("Y", -1.5, z) == 0.0


@pytest.mark.parametrize("z", _HALF_UNDERFLOWS)
@pytest.mark.parametrize("fn, nu", [("J", 0.001), ("I", 0.01), ("bei", 0.01),
                                    ("J", 0.5), ("I", 0.25), ("Y", 0.5),
                                    ("K", 0.5), ("J", -0.5), ("I", -0.5),
                                    ("Y", -0.5), ("bei", -0.5)])
def test_small_order_where_half_z_underflows_vs_mpmath(fn, nu, z):
    # z/2 rounds to 0 but (z/2)^nu need not: the series is its first term,
    # and non-integer Y and K follow from J or I at +-nu
    if fn == "bei":
        got, want = sf.kelvin_bei_complex(nu, z), mp.bei(nu, mp.mpc(z))
    else:
        got, want = sf.bessel(fn, nu, z), _MP_BESSEL[fn](nu, mp.mpc(z))
    assert rel_err(got, complex(want)) < 1e-13


@pytest.mark.parametrize("z", _HALF_UNDERFLOWS)
@pytest.mark.parametrize("fn", ["J", "I", "K", "bei"])
def test_order_below_minus_one_overflows_where_half_z_underflows(fn, z):
    # (z/2)^-1.5 is about 1e485 here
    with pytest.raises(Overflow):
        if fn == "bei":
            sf.kelvin_bei_complex(-1.5, z)
        else:
            sf.bessel(fn, -1.5, z)


@pytest.mark.parametrize("z", [1e-300, 1e-20, 1e-10, 1.0, 2.5 + 1j])
@pytest.mark.parametrize("nu", [-0.5, -1.5, -30.5, 0.5])
def test_y_half_integer_order_vs_mpmath(nu, z):
    # cos(pi nu) = 0 there; with math.cos's 6e-17 the J_nu term swamped
    # Y_-0.5(1e-20) = 8e-11 as -4.9e-7
    got, want = sf.bessel("Y", nu, z), mp.bessely(nu, mp.mpc(z))
    assert rel_err(got, complex(want)) < 1e-13


def test_bei_errors():
    with pytest.raises(PoleError):
        sf.kelvin_bei(-1.0 / 3.0, 0.0)
    # 1e-10 from a negative integer is a non-integer order, as in the complex path
    with pytest.raises(PoleError):
        sf.kelvin_bei(-1 + 1e-10, 0.0)
    with pytest.raises(PoleError):
        sf.kelvin_bei_complex(-1 + 1e-10, 0.0)
    with pytest.raises(DomainError):
        sf.kelvin_bei(0.0, -1.0)


def test_erfi_basic():
    assert sf.erfi(0.0) == 0.0
    x = 1e-8
    assert rel_err(sf.erfi(x), 2 * x / math.sqrt(math.pi)) < 1e-12
    val, err = quad(lambda t: math.exp(t * t), 0.0, 1.0)
    assert rel_err(sf.erfi(1.0), 2 / math.sqrt(math.pi) * val) < 1e-10
    assert abs(sf.erfi(1.0) - 1.65042576) < 5e-8
    assert sf.erfi(-2.0) == -sf.erfi(2.0)


def test_erfi_overflow():
    with pytest.raises(Overflow):
        sf.erfi(30.0)


@pytest.mark.parametrize("call", [
    lambda: sf.bessel("Q", 1.0, 1.0),
    lambda: sf.bessel("J", math.inf, 1.0),
    lambda: sf.bessel("K", math.nan, 1.0),
    lambda: sf.erfi(math.inf),
    lambda: sf.erfi(math.nan),
], ids=["bessel-kind", "bessel-inf-order", "bessel-nan-order", "erfi-inf",
        "erfi-nan"])
def test_invalid_arguments_raise_domain_error(call):
    # these raised a bare ValueError, outside the CflowError hierarchy
    with pytest.raises(DomainError):
        call()


# ---------------------------------------------------------------------------
# poly_via_2f1
# ---------------------------------------------------------------------------


def test_poly_at_zero_cancels():
    assert abs(sf.poly_via_2f1(0.0, 3)) < 1e-14


def test_poly_matches_independent_arctan_route():
    # 2F1(1/2,1;3/2;-w^2) = arctan(w)/w, so the combination equals
    # arctan(1+z^n) - arctan(1-z^n); check our series path against cmath.
    for z, n in ((0.5, 2), (0.3 + 0.2j, 2), (0.9j, 3)):
        zn = complex(z) ** n
        want = cmath.atan(1 + zn) - cmath.atan(1 - zn)
        assert rel_err(sf.poly_via_2f1(z, n), want) < 1e-10


@pytest.mark.xfail(
    strict=True,
    reason="the printed hypergeometric combination equals arctan(1+z^n)-arctan(1-z^n),"
    " which agrees with z^n only to leading order (z=0.5, n=2 gives 0.252554)",
)
def test_poly_equals_power_on_unit_disc():
    grid = [0.5, 0.25 + 0.25j, -0.3 + 0.4j, 0.6j]
    for z in grid:
        for n in (1, 2, 3):
            assert rel_err(sf.poly_via_2f1(z, n), complex(z) ** n) < 1e-8


def test_poly_small_argument_leading_order():
    # The representation does reproduce z^n in the small-argument limit.
    z, n = 0.01 + 0.005j, 2
    assert rel_err(sf.poly_via_2f1(z, n), z ** n) < 1e-6
