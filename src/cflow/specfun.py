"""Complex-argument special functions on the principal branch.

Everything here is self-contained (series, continued fractions and the
standard linear transformations); the test suite cross-checks each function
against independent quadrature / high-precision oracles.

Every hypergeometric-type series (incomplete gamma, 2F1/pFq, Bessel J/I,
Kelvin bei) is summed by one loop, ``_pfq_series``; integer-order Bessel
Y/K add a digamma series in ``_bessel_yk_int``.  Every series and
continued fraction stops by one fixed rule: once a term (or a Lentz
correction) is at most ``REL_TOL`` of the running sum, and it raises
``NonConvergence`` after ``MAX_TERMS`` terms.  ``erfi`` alone sums its
always-convergent series to 1e-16.
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


def _near_integer(x: complex, tol: float):
    """The integer within ``tol`` of x in both parts, else None."""
    x = complex(x)
    n = round(x.real)
    if abs(x.imag) <= tol and abs(x.real - n) <= tol:
        return n
    return None


def gamma(s: complex) -> complex:
    """Complex gamma function (Lanczos, reflection for Re s < 1/2)."""
    s = complex(s)
    n = _near_integer(s, 1e-12)
    if n is not None and n <= 0:
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
        n = _near_integer(s, 1e-12)
        if n is not None and n <= 0:
            raise PoleError(f"Gamma(s, 0) pole at s = {s}")
        return gamma(s)

    def cf_applies(s):
        # for Re s < 0 the series path subtracts two near-equal terms once
        # |z| reaches 2, while the fraction converges there
        return z.real > 0 and (abs(z) > abs(s) + 1.0
                               or (s.real < 0 and abs(z) >= 2.0))

    # the integer within 1e-9 of an exactly real s, else None
    n = _near_integer(s, 1e-9) if s.imag == 0 else None
    lifted = []
    while n is not None and n < 0 and not cf_applies(s):
        if len(lifted) == MAX_TERMS:
            raise NonConvergence(f"Gamma(s, z) recurrence did not reach s = 0 "
                                 f"within {MAX_TERMS} steps")
        lifted.append(s)
        s = s + 1.0
        n += 1
    if cf_applies(s):
        total = _upper_gamma_cf(s, z)
    elif n == 0:
        # Gamma(0, z) = E_1(z) = -euler_gamma - Log z + z 2F2(1, 1; 2, 2; -z)
        total = (-_EULER_GAMMA - clog(z)
                 + z * _pfq_series((1.0, 1.0), (2.0, 2.0), -z))
    else:
        # lower incomplete gamma z**s e**-z 1F1(1; s+1; z) / s (DLMF 8.5.1)
        total = gamma(s) - (cpow(z, s) * cmath.exp(-z) / s
                            * _pfq_series((1.0,), (s + 1.0,), z))
    for sk in reversed(lifted):
        total = (total - cpow(z, sk) * cmath.exp(-z)) / sk
    return total


def _pfq_series(numer, denom, z, term_limit=MAX_TERMS):
    term = total = 1.0 + 0.0j
    for k in range(term_limit):
        num = z
        for a in numer:
            num *= a + k
        den = k + 1.0
        for b in denom:
            den *= b + k
        term *= num / den
        total += term
        if abs(term) <= REL_TOL * abs(total) and (k > 2 or term == 0):
            return total
    raise NonConvergence("pFq series did not converge within max_terms")


def _hyp2f1_series(a, b, c, z):
    return _pfq_series((a, b), (c,), z)


def hyp2f1(a, b, c, z) -> complex:
    """Gauss hypergeometric 2F1 with the standard linear transformations.

    Raises BranchCut if z lies exactly on the cut [1, inf).
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    na, nb = _near_integer(a, 1e-9), _near_integer(b, 1e-9)
    nc = _near_integer(c, 1e-12)
    if nc is not None and nc <= 0:
        # Allowed only when the series terminates first.
        if not any(n is not None and nc < n <= 0 for n in (na, nb)):
            raise PoleError(f"2F1 denominator parameter c = {c} is a non-positive integer")
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
    if _near_integer(a - b, 1e-9) is None and abs(1.0 / z) < 0.95:
        return _hyp2f1_inv_z(a, b, c, z)
    # 1/(1-z) transformation (needs a - b non-integer).
    if _near_integer(a - b, 1e-9) is None:
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
    if _near_integer(c - a - b, 1e-9) is None:
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
    if _near_integer(a - b, 1e-9) is None and 1.0 / abs(z) < radius:
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
        n = _near_integer(b, 1e-12)
        if n is not None and n <= 0:
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


def _bessel_ji(nu: float, z: complex, sign: float) -> complex:
    """J_nu (sign -1) or I_nu (sign +1): (z/2)^nu 0F1(; nu+1; sign z^2/4) / Gamma(nu+1)."""
    z = complex(z)
    if z == 0:
        if nu == 0:
            return 1.0 + 0.0j
        if nu > 0:
            return 0.0 + 0.0j
        raise PoleError("Bessel of negative order at z = 0")
    try:
        scale = cpow(z / 2.0, nu) / gamma(nu + 1.0)
    except PoleError:
        # nu is a negative integer n: J_n = (-1)^n J_{-n} and I_n = I_{-n}
        n = round(nu)
        return sign ** n * _bessel_ji(float(-n), z, sign)
    return scale * _pfq_series((), (nu + 1.0,), sign * z * z / 4.0)


def _bessel_yk_int(kind: str, n: int, z: complex) -> complex:
    """Y_n or K_n at integer order n (DLMF 10.8.1 and 10.31.1).

    Both read c [F - 2 e Log(z/2) C_n + e S] with C_n = J_n (I_n), the
    finite sum F = sum_{k<n} (n-k-1)!/k! (-q)^k (z/2)^-n and the digamma
    series S = (z/2)^n sum_k (psi(k+1) + psi(n+k+1)) q^k / (k! (n+k)!):
    q = -(z/2)^2, c = -1/pi, e = 1 for Y and q = (z/2)^2, c = 1/2,
    e = (-1)^n for K.
    """
    # Y_{-n} = (-1)^n Y_n and K_{-n} = K_n
    reflect = (-1.0) ** n if kind == "Y" and n < 0 else 1.0
    n = abs(n)
    sign, c, e = (-1.0, -1.0 / math.pi, 1.0) if kind == "Y" else (1.0, 0.5, (-1.0) ** n)
    half = z / 2.0
    q = sign * half * half
    total = c * sum(math.gamma(n - k) / math.gamma(k + 1) * (-sign) ** k
                    * cpow(half, 2 * k - n) for k in range(n))
    total -= 2.0 * c * e * clog(half) * _bessel_ji(float(n), z, sign)
    psi = -2.0 * _EULER_GAMMA + sum(1.0 / j for j in range(1, n + 1))
    term = cpow(half, n) / math.gamma(n + 1)
    for k in range(MAX_TERMS):
        total += c * e * psi * term
        term *= q / ((k + 1.0) * (n + k + 1.0))
        psi += 1.0 / (k + 1) + 1.0 / (n + k + 1)
        if abs(term) <= REL_TOL * max(abs(total), 1e-300):
            return reflect * total
    raise NonConvergence(f"integer-order {kind} series did not converge")


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
    if kind == "J":
        return _bessel_ji(nu, z, -1.0)
    if kind == "I":
        return _bessel_ji(nu, z, 1.0)
    nint = _near_integer(nu, 1e-8)
    if nint is not None:
        return _bessel_yk_int(kind, nint, z)
    s = math.sin(math.pi * nu)
    if kind == "Y":
        return (_bessel_ji(nu, z, -1.0) * math.cos(math.pi * nu)
                - _bessel_ji(-nu, z, -1.0)) / s
    return math.pi / 2.0 * (_bessel_ji(-nu, z, 1.0) - _bessel_ji(nu, z, 1.0)) / s


def kelvin_bei_complex(nu: float, z: complex) -> complex:
    """Analytic continuation of bei_nu to complex argument via its series.

    bei_nu(x) = sum_k sin(pi (3 nu / 4 + k / 2)) (x/2)^(nu+2k) / (k! Gamma(nu+k+1)),
    summed as its even-k and odd-k halves, each a 0F3 series in -x^4/256.
    """
    z = complex(z)
    if z == 0:
        if nu >= 0:
            return 0.0 + 0.0j
        raise PoleError("bei of negative order at z = 0")
    half = z / 2.0
    try:
        scale = cpow(half, nu) / gamma(nu + 1.0)
    except PoleError:
        # nu is a negative integer n: bei_n = (-1)^n bei_{-n}
        n = round(nu)
        return (-1.0) ** n * kelvin_bei_complex(float(-n), z)
    q = half * half
    w = -q * q / 16.0
    even = _pfq_series((), (0.5, (nu + 1.0) / 2.0, (nu + 2.0) / 2.0), w)
    odd = q / (nu + 1.0) * _pfq_series((), (1.5, (nu + 2.0) / 2.0, (nu + 3.0) / 2.0), w)
    return scale * (math.sin(0.75 * math.pi * nu) * even
                    + math.cos(0.75 * math.pi * nu) * odd)


def kelvin_bei(nu: float, x: float) -> float:
    """Kelvin function bei_nu(x) = Im J_nu(x exp(3 i pi / 4)) for x >= 0."""
    if x < 0:
        raise DomainError("kelvin_bei requires x >= 0")
    if x == 0:
        if nu < 0 and _near_integer(nu, 1e-9) is None:
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
