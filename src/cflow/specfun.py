"""Complex-argument special functions on the principal branch.

Everything here is self-contained (series, continued fractions and the
standard linear transformations); the test suite cross-checks each function
against independent quadrature / high-precision oracles.

Every series and continued fraction stops by one fixed rule: once a term
(or a Lentz correction) is at most ``REL_TOL`` of the running sum, and it
raises ``NonConvergence`` after ``MAX_TERMS`` terms.  ``erfi`` alone sums
its always-convergent series to 1e-16.
"""
from __future__ import annotations

import cmath
import math

from .errors import BranchCut, DomainError, NonConvergence, Overflow, PoleError

__all__ = [
    "clog",
    "cpow",
    "gamma",
    "upper_incomplete_gamma",
    "pfq",
    "hyp2f1",
    "bessel",
    "kelvin_bei",
    "erfi",
    "poly_via_2f1",
]

_EULER_GAMMA = 0.5772156649015328606

# Lanczos approximation, g = 7, 9 terms.
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


# Stopping rule of every series and continued fraction below.
REL_TOL = 1e-12
MAX_TERMS = 10000


def clog(w: complex) -> complex:
    """Principal logarithm with -0.0 imaginary parts canonicalized to +0.0."""
    w = complex(w)
    if w.imag == 0:
        w = complex(w.real, 0.0)
    return cmath.log(w)


def cpow(w: complex, a: complex) -> complex:
    """Principal-branch complex power w**a = exp(a log w)."""
    if w == 0:
        if a == 0:
            return 1.0 + 0.0j
        if complex(a).real > 0:
            return 0.0 + 0.0j
        raise PoleError("0 raised to a non-positive power")
    return cmath.exp(complex(a) * clog(w))


def _is_nonpositive_integer(s: complex, tol: float = 1e-12) -> bool:
    s = complex(s)
    if abs(s.imag) > tol:
        return False
    n = round(s.real)
    return n <= 0 and abs(s.real - n) <= tol


def gamma(s: complex) -> complex:
    """Complex gamma function (Lanczos, reflection for Re s < 1/2)."""
    s = complex(s)
    if _is_nonpositive_integer(s):
        raise PoleError(f"gamma pole at s = {s}")
    if s.real < 0.5:
        # Reflection formula.
        return math.pi / (cmath.sin(math.pi * s) * gamma(1.0 - s))
    z = s - 1.0
    x = complex(_LANCZOS[0])
    for i in range(1, len(_LANCZOS)):
        x += _LANCZOS[i] / (z + i)
    t = z + 7.5
    return math.sqrt(2.0 * math.pi) * cpow(t, z + 0.5) * cmath.exp(-t) * x


def _lower_gamma_series(s: complex, z: complex) -> complex:
    """Kummer series for the lower incomplete gamma, z**s e**-z sum z**k / (s)_{k+1}."""
    term = 1.0 / s
    total = term
    for k in range(1, MAX_TERMS):
        term *= z / (s + k)
        total += term
        if abs(term) <= REL_TOL * abs(total):
            return cpow(z, s) * cmath.exp(-z) * total
    raise NonConvergence("lower incomplete gamma series did not converge")


def _upper_gamma_cf(s: complex, z: complex) -> complex:
    """Legendre continued fraction for Gamma(s, z), Re z > 0 (modified Lentz)."""
    tiny = 1e-300
    b = z + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / (b if b != 0 else tiny)
    h = d
    for i in range(1, MAX_TERMS):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if d == 0:
            d = tiny
        c = b + an / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < REL_TOL:
            return cpow(z, s) * cmath.exp(-z) * h
    raise NonConvergence("incomplete gamma continued fraction did not converge")


def upper_incomplete_gamma(s: complex, z: complex) -> complex:
    """Upper incomplete gamma Gamma(s, z) on the principal branch.

    Gamma(s, 0) reduces to the complete gamma.  Re z > 0 with
    |z| > |s| + 1, or with Re s < 0 and |z| >= 2, takes the Legendre
    continued fraction.  Otherwise, for s at or near a negative integer the
    recurrence
    Gamma(s, z) = (Gamma(s+1, z) - z**s e**-z) / s lifts s out of the
    pole of the complete gamma used by the series path, at most
    ``MAX_TERMS`` unit steps; beyond that it raises NonConvergence.
    """
    s = complex(s)
    z = complex(z)
    if z == 0:
        if _is_nonpositive_integer(s):
            raise PoleError(f"Gamma(s, 0) pole at s = {s}")
        return gamma(s)

    def near_integer(s):
        return s.imag == 0 and abs(s.real - round(s.real)) < 1e-9

    def cf_applies(s):
        # for Re s < 0 the series path subtracts two near-equal terms once
        # |z| reaches 2, while the fraction converges there
        return z.real > 0 and (abs(z) > abs(s) + 1.0
                               or (s.real < 0 and abs(z) >= 2.0))

    lifted = []
    while near_integer(s) and round(s.real) < 0 and not cf_applies(s):
        if len(lifted) == MAX_TERMS:
            raise NonConvergence(f"Gamma(s, z) recurrence did not reach s = 0 "
                                 f"within {MAX_TERMS} steps")
        lifted.append(s)
        s = s + 1.0
    if cf_applies(s):
        total = _upper_gamma_cf(s, z)
    elif near_integer(s) and round(s.real) == 0:
        # Gamma(0, z) = E_1(z) = -euler_gamma - Log z - sum (-z)^k / (k k!).
        total = -_EULER_GAMMA - clog(z)
        term = 1.0 + 0.0j
        for k in range(1, MAX_TERMS):
            term *= -z / k
            total -= term / k
            if abs(term) <= REL_TOL * max(abs(total), 1e-300):
                break
        else:
            raise NonConvergence("exponential-integral series did not converge")
    else:
        total = gamma(s) - _lower_gamma_series(s, z)
    for sk in reversed(lifted):
        total = (total - cpow(z, sk) * cmath.exp(-z)) / sk
    return total


def _pfq_series(numer, denom, z, term_limit=MAX_TERMS):
    term = 1.0 + 0.0j
    total = term
    for k in range(term_limit):
        ratio = z / (k + 1.0)
        for a in numer:
            ratio *= a + k
        for b in denom:
            ratio /= b + k
        term = term * ratio
        total += term
        if term == 0:
            return total
        if abs(term) <= REL_TOL * abs(total) and k > 2:
            return total
    raise NonConvergence("pFq series did not converge within max_terms")


def _hyp2f1_series(a, b, c, z):
    return _pfq_series((a, b), (c,), z)


def _near_integer(x: complex, tol: float = 1e-9):
    x = complex(x)
    n = round(x.real)
    if abs(x.imag) <= tol and abs(x.real - n) <= tol:
        return n
    return None


def hyp2f1(a, b, c, z) -> complex:
    """Gauss hypergeometric 2F1 with the standard linear transformations.

    Raises BranchCut if z lies exactly on the cut [1, inf).
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if _is_nonpositive_integer(c):
        # Allowed only when the series terminates first.
        na, nb = _near_integer(a), _near_integer(b)
        nc = _near_integer(c)
        terminates = any(
            n is not None and n <= 0 and n > nc for n in (na, nb)
        )
        if not terminates:
            raise PoleError(f"2F1 denominator parameter c = {c} is a non-positive integer")
    na, nb = _near_integer(a), _near_integer(b)
    if (na is not None and na <= 0) or (nb is not None and nb <= 0):
        # Terminating polynomial case.
        n = min(x for x in (na, nb) if x is not None and x <= 0)
        return _pfq_series((a, b), (c,), z, term_limit=-n + 1)
    if z == 0:
        return 1.0 + 0.0j
    if z.imag == 0 and z.real >= 1.0:
        raise BranchCut(f"2F1 argument {z} lies on the cut [1, inf)")
    if abs(z) < 0.9:
        return _hyp2f1_series(a, b, c, z)
    # Pfaff transformation.
    w = z / (z - 1.0)
    if abs(w) < 0.9:
        return cpow(1.0 - z, -a) * _hyp2f1_series(a, c - b, c, w)
    # 1/z transformation (needs a - b non-integer).
    if _near_integer(a - b) is None and abs(1.0 / z) < 0.95:
        return _hyp2f1_inv_z(a, b, c, z)
    # 1/(1-z) transformation (needs a - b non-integer).
    if _near_integer(a - b) is None:
        w = 1.0 / (1.0 - z)
        if abs(w) < 0.95:
            t1 = (
                gamma(c) * gamma(b - a) / (gamma(b) * gamma(c - a))
                * cpow(1.0 - z, -a)
                * _hyp2f1_series(a, c - b, a - b + 1.0, w)
            )
            t2 = (
                gamma(c) * gamma(a - b) / (gamma(a) * gamma(c - b))
                * cpow(1.0 - z, -b)
                * _hyp2f1_series(b, c - a, b - a + 1.0, w)
            )
            return t1 + t2
    # 1-z transformation (needs c - a - b non-integer).
    if _near_integer(c - a - b) is None:
        w = 1.0 - z
        if abs(w) < 0.95:
            t1 = (
                gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b))
                * _hyp2f1_series(a, b, a + b - c + 1.0, w)
            )
            t2 = (
                gamma(c) * gamma(a + b - c) / (gamma(a) * gamma(b))
                * cpow(w, c - a - b)
                * _hyp2f1_series(c - a, c - b, c - a - b + 1.0, w)
            )
            return t1 + t2
    # Slowly converging region near |z| = 1: fall back to whichever of the
    # direct, Pfaff and 1/z series has the smallest |w| < 1, with the full
    # term budget.  |1/z| is taken as 1/|z|, so |z| = 1 never qualifies.
    w = z / (z - 1.0)
    radius, series = abs(z), "direct"
    if abs(w) < radius:
        radius, series = abs(w), "pfaff"
    if _near_integer(a - b) is None and 1.0 / abs(z) < radius:
        radius, series = 1.0 / abs(z), "inv_z"
    if radius >= 1.0:
        raise NonConvergence(f"no usable 2F1 transformation for z = {z}")
    if series == "pfaff":
        return cpow(1.0 - z, -a) * _hyp2f1_series(a, c - b, c, w)
    if series == "inv_z":
        return _hyp2f1_inv_z(a, b, c, z)
    return _hyp2f1_series(a, b, c, z)


def _hyp2f1_inv_z(a, b, c, z):
    """2F1 through the 1/z transformation; needs a - b non-integer."""
    w = 1.0 / z
    t1 = (
        gamma(c) * gamma(b - a) / (gamma(b) * gamma(c - a))
        * cpow(-z, -a)
        * _hyp2f1_series(a, 1.0 - c + a, 1.0 - b + a, w)
    )
    t2 = (
        gamma(c) * gamma(a - b) / (gamma(a) * gamma(c - b))
        * cpow(-z, -b)
        * _hyp2f1_series(b, 1.0 - c + b, 1.0 - a + b, w)
    )
    return t1 + t2


def pfq(numer, denom, z) -> complex:
    """Generalized hypergeometric pFq by truncated series.

    2F1 arguments with |z| >= 0.9 are routed through the linear
    transformations; other (p, q) pairs must converge termwise.
    """
    numer = [complex(v) for v in numer]
    denom = [complex(v) for v in denom]
    z = complex(z)
    for b in denom:
        if _is_nonpositive_integer(b):
            raise PoleError(f"pFq denominator parameter {b} is a non-positive integer")
    if len(numer) == 2 and len(denom) == 1:
        if abs(z) >= 0.9:
            return hyp2f1(numer[0], numer[1], denom[0], z)
        return _hyp2f1_series(numer[0], numer[1], denom[0], z)
    if z == 0:
        return 1.0 + 0.0j
    total = _pfq_series(numer, denom, z)
    if not cmath.isfinite(total):
        raise Overflow(f"pFq sum is not finite at z = {z}")
    return total


# ---------------------------------------------------------------------------
# Bessel functions
# ---------------------------------------------------------------------------


def _bessel_j_series(nu: float, z: complex) -> complex:
    return _bessel_ji_series(nu, z, sign=-1.0)


def _bessel_i_series(nu: float, z: complex) -> complex:
    return _bessel_ji_series(nu, z, sign=1.0)


def _bessel_ji_series(nu: float, z: complex, sign: float) -> complex:
    z = complex(z)
    if z == 0:
        if nu == 0:
            return 1.0 + 0.0j
        if nu > 0:
            return 0.0 + 0.0j
        raise PoleError("Bessel of negative order at z = 0")
    q = z * z / 4.0
    # term_k = (z/2)^nu (sign q)^k / (k! Gamma(nu+k+1))
    try:
        g0 = gamma(nu + 1.0)
        term = cpow(z / 2.0, nu) / g0
    except PoleError:
        # Negative integer nu: leading terms vanish.
        n = -round(nu)
        term = cpow(z / 2.0, nu) * cpow(sign * q, n) / (math.gamma(n + 1) * gamma(nu + n + 1.0))
        total = term
        for k in range(n + 1, MAX_TERMS):
            term *= sign * q / (k * (nu + k))
            total += term
            if abs(term) <= REL_TOL * abs(total):
                return total
        raise NonConvergence("Bessel series did not converge")
    total = term
    for k in range(1, MAX_TERMS):
        term *= sign * q / (k * (nu + k))
        total += term
        if abs(term) <= REL_TOL * abs(total):
            return total
    raise NonConvergence("Bessel series did not converge")


def _psi_int(m: int) -> float:
    """Digamma at a positive integer."""
    return -_EULER_GAMMA + sum(1.0 / j for j in range(1, m))


def _bessel_y_int(n: int, z: complex) -> complex:
    if n < 0:
        return (-1.0) ** (-n) * _bessel_y_int(-n, z)
    half = z / 2.0
    jn = _bessel_j_series(float(n), z)
    total = (2.0 / math.pi) * clog(half) * jn
    for k in range(n):
        total -= (math.gamma(n - k) / math.gamma(k + 1)) / math.pi * cpow(half, 2 * k - n)
    q = -half * half
    term = cpow(half, n) / math.gamma(n + 1)
    for k in range(MAX_TERMS):
        total -= (_psi_int(k + 1) + _psi_int(n + k + 1)) / math.pi * term
        nxt = term * q / ((k + 1.0) * (n + k + 1.0))
        if abs(nxt) <= REL_TOL * max(abs(total), 1e-300):
            return total
        term = nxt
    raise NonConvergence("integer-order Y series did not converge")


def _bessel_k_int(n: int, z: complex) -> complex:
    n = abs(n)
    half = z / 2.0
    inz = _bessel_i_series(float(n), z)
    total = (-1.0) ** (n + 1) * clog(half) * inz
    for k in range(n):
        total += 0.5 * (-1.0) ** k * (math.gamma(n - k) / math.gamma(k + 1)) * cpow(half, 2 * k - n)
    q = half * half
    term = cpow(half, n) / math.gamma(n + 1)
    for k in range(MAX_TERMS):
        total += (-1.0) ** n * 0.5 * (_psi_int(k + 1) + _psi_int(n + k + 1)) * term
        nxt = term * q / ((k + 1.0) * (n + k + 1.0))
        if abs(nxt) <= REL_TOL * max(abs(total), 1e-300):
            return total
        term = nxt
    raise NonConvergence("integer-order K series did not converge")


def bessel(kind: str, nu: float, z: complex) -> complex:
    """Bessel function of the given kind (J, Y, I or K), principal branch."""
    kind = kind.upper()
    if kind not in ("J", "Y", "I", "K"):
        raise ValueError(f"unknown Bessel kind {kind!r}")
    if not math.isfinite(nu):
        raise ValueError("order must be finite")
    z = complex(z)
    if z == 0 and kind in ("Y", "K"):
        raise PoleError(f"Bessel {kind} is singular at z = 0")
    nint = _near_integer(nu, tol=1e-8)
    if kind == "J":
        return _bessel_j_series(nu, z)
    if kind == "I":
        return _bessel_i_series(nu, z)
    if kind == "Y":
        if nint is not None:
            return _bessel_y_int(nint, z)
        s = math.sin(math.pi * nu)
        return (_bessel_j_series(nu, z) * math.cos(math.pi * nu)
                - _bessel_j_series(-nu, z)) / s
    # K
    if nint is not None:
        return _bessel_k_int(nint, z)
    s = math.sin(math.pi * nu)
    return math.pi / 2.0 * (_bessel_i_series(-nu, z)
                            - _bessel_i_series(nu, z)) / s


def kelvin_bei_complex(nu: float, z: complex) -> complex:
    """Analytic continuation of bei_nu to complex argument via its series.

    bei_nu(x) = sum_k sin(pi (3 nu / 4 + k / 2)) (x/2)^(nu+2k) / (k! Gamma(nu+k+1)).
    """
    z = complex(z)
    if z == 0:
        if nu >= 0:
            return 0.0 + 0.0j
        raise PoleError("bei of negative order at z = 0")
    half = z / 2.0
    q = half * half
    k0 = 0
    try:
        term = cpow(half, nu) / gamma(nu + 1.0)
    except PoleError:
        # Negative integer order: skip the vanishing leading terms.
        k0 = -round(nu)
        term = cpow(half, nu + 2 * k0) / (math.gamma(k0 + 1) * gamma(nu + k0 + 1.0))
    total = 0.0 + 0.0j
    for k in range(k0, MAX_TERMS):
        total += math.sin(math.pi * (0.75 * nu + 0.5 * k)) * term
        term *= q / ((k + 1.0) * (nu + k + 1.0))
        if abs(term) <= REL_TOL * max(abs(total), 1e-300) and k > k0 + 2:
            return total
    raise NonConvergence("Kelvin bei series did not converge")


def kelvin_bei(nu: float, x: float) -> float:
    """Kelvin function bei_nu(x) = Im J_nu(x exp(3 i pi / 4)) for x >= 0."""
    if x < 0:
        raise DomainError("kelvin_bei requires x >= 0")
    if x == 0:
        if nu < 0 and _near_integer(nu) is None:
            raise PoleError("bei of negative non-integer order at x = 0")
        return 0.0
    return kelvin_bei_complex(nu, complex(x)).real


def erfi(x: float) -> float:
    """Imaginary error function erfi(x) = (2/sqrt(pi)) int_0^x exp(t^2) dt."""
    if not math.isfinite(x):
        raise ValueError("erfi argument must be finite")
    if abs(x) > 26.6:
        raise Overflow(f"erfi({x}) exceeds double range")
    # Odd series: (2/sqrt(pi)) sum x^(2k+1) / (k! (2k+1)), always convergent.
    x2 = x * x
    total = x
    term = x
    k = 0
    while True:
        k += 1
        term *= x2 / k
        contrib = term / (2 * k + 1)
        total += contrib
        if abs(contrib) <= 1e-16 * max(abs(total), 1e-300):
            break
        if k > 2000:
            raise NonConvergence("erfi series did not converge")
    return 2.0 / math.sqrt(math.pi) * total


def poly_via_2f1(z: complex, n: int) -> complex:
    """Multi-valued representation of z**n through a pair of 2F1 values.

    (1+z^n) 2F1(1/2,1;3/2;-(1+z^n)^2) - (1-z^n) 2F1(1/2,1;3/2;-(1-z^n)^2),
    which collapses to z**n on the principal branch.
    """
    z = complex(z)
    zn = cpow(z, n) if z != 0 else (0.0 + 0.0j if n > 0 else 1.0 + 0.0j)
    up = 1.0 + zn
    dn = 1.0 - zn
    f_up = pfq((0.5, 1.0), (1.5,), -(up * up))
    f_dn = pfq((0.5, 1.0), (1.5,), -(dn * dn))
    return up * f_up - dn * f_dn
