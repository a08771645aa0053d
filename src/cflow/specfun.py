"""Complex-argument special functions on the principal branch.

Everything here is self-contained (series, continued fractions, the
standard linear transformations and, for 2F1, a Taylor continuation along
its ODE); the test suite cross-checks each function against independent
quadrature / high-precision oracles.

Every hypergeometric-type series (incomplete gamma, 2F1/pFq, Bessel J/I,
Kelvin bei) is summed by one loop, ``_pfq_series``; integer-order Bessel
Y/K add a digamma series in ``_bessel_yk_int``, and the 2F1 continuation
its Taylor steps.  Every series and continued fraction stops by one fixed
rule: once a term (or a Lentz correction) is at most ``REL_TOL`` of the
running sum, and it raises ``NonConvergence`` after ``MAX_TERMS`` terms.
``erfi`` alone sums its always-convergent series to 1e-16.

Where z/2 is 0 or underflows, J, I and bei are their first series term
(``_first_term``) and non-integer Y and K follow from J and I at +-nu, so
only integer-order Y and K raise PoleError at every such z.  At z = 0, J, I
and bei raise it for a negative non-integer order, and non-integer Y and K
for every order but the negative half-integers of Y, where
Y_nu = -J_-nu / sin(pi nu) is 0.
"""
from __future__ import annotations

import cmath
import math

from .errors import BranchCut, DomainError, NonConvergence, Overflow, PoleError, _finite

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
    try:
        return cmath.log(w)
    except ValueError:  # w = 0
        raise PoleError("log of 0") from None


def cpow(w: complex, a: complex) -> complex:
    """Principal-branch complex power w**a = exp(a log w)."""
    if w == 0:
        if a == 0:
            return 1.0 + 0.0j
        if complex(a).real > 0:
            return 0.0 + 0.0j
        raise PoleError("0 raised to a non-positive power")
    try:
        return _finite(cmath.exp(complex(a) * clog(w)), "a complex power")
    except (OverflowError, ValueError):  # the power, or a log w in both parts, overflowed
        raise Overflow(f"({w})**({a}) leaves the double range") from None


def _near_integer(x: complex, tol: float):
    """The integer within ``tol`` of x in both parts, else None."""
    x = complex(x)
    n = round(x.real)
    if abs(x.imag) <= tol and abs(x.real - n) <= tol:
        return n
    return None


def _negative_integer(nu: float) -> bool:
    """nu + 1 is within `gamma`'s pole tolerance of an integer <= 0."""
    n = _near_integer(nu + 1.0, 1e-12)
    return n is not None and n <= 0


def gamma(s: complex) -> complex:
    """Complex gamma function (Lanczos, reflection for Re s < 1/2)."""
    s = complex(s)
    n = _near_integer(s, 1e-12)
    if n is not None and n <= 0:
        raise PoleError(f"gamma pole at s = {s}")
    if s.real < 0.5:
        # Reflection formula, with sin(pi s) = (-1)^k sin(pi (s - k)): s - k is
        # exact near the pole s = k, so the sine keeps its digits there.
        k = round(s.real)
        try:
            sin = cmath.sin(math.pi * (s - k))
        except OverflowError:
            # |Im s| past about 226: 1/sin(w) = -2i e^{iw}, w = pi (s - k) signed
            # so that Im w > 0, exact to e^{-2 Im w}; e^{iw} is split in halves,
            # each in range while Gamma(1 - s) is.  Gamma(1 - s) = 0 leaves
            # |Gamma(s)| below the double range.
            sign = 1.0 if s.imag > 0 else -1.0
            half = cmath.exp(0.5j * sign * math.pi * (s - k))
            g = gamma(1.0 - s)
            return (-2j * sign * math.pi * (-1) ** k * half / g * half) if g else 0j
        return math.pi / ((-sin if k % 2 else sin) * gamma(1.0 - s))
    z = s - 1.0
    x = complex(_LANCZOS[0])
    for i in range(1, len(_LANCZOS)):
        x += _LANCZOS[i] / (z + i)
    t = z + 7.5
    return _finite(math.sqrt(2.0 * math.pi) * cpow(t, z + 0.5) * cmath.exp(-t) * x, "gamma")


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
    try:
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
    except OverflowError:  # e**-z past the double range
        raise Overflow("Gamma(s, z) leaves the double range") from None
    return _finite(total, "Gamma(s, z)")


def _pfq_series(numer, denom, z):
    # k! is the Pochhammer symbol (1)_k, which a numerator parameter 1 cancels
    kfact = 1.0 not in numer
    if not kfact:
        numer = list(numer)
        numer.remove(1.0)
    term = total = 1.0 + 0.0j
    try:
        for k in range(MAX_TERMS):
            num = z
            for a in numer:
                num *= a + k
            den = k + 1.0 if kfact else 1.0
            for b in denom:
                den *= b + k
            term *= num / den
            total += term
            if abs(term) <= REL_TOL * abs(total) and (k > 2 or term == 0):
                return total
    except (OverflowError, ZeroDivisionError):
        # abs() past the double range, or a denominator parameter at 0: callers
        # end the series before it, unless overflow left a nan where terms end
        raise Overflow(f"pFq terms overflow at z = {z}") from None
    raise NonConvergence("pFq series did not converge within max_terms")


def hyp2f1(a, b, c, z) -> complex:
    """Gauss hypergeometric 2F1 on the principal branch.

    Region map, first match wins:

    - |z| < 0.9, or a or b exactly a non-positive integer (any z): the
      direct series, which a zero term ends in the terminating case;
    - |z/(z-1)| < 0.9: Pfaff, (1-z)^-a 2F1(a, c-b; c; z/(z-1));
    - |1/z| < 0.95: the 1/z transformation, unless a - b is within
      max(1e-6, sqrt(1e-5/|z|)) of an integer;
    - |1-z| < 0.95: the 1-z transformation, unless c - a - b is within
      max(1e-6, sqrt(1e-5 |1-z|)) of an integer;
    - everything else, declined arguments too: Taylor continuation along
      the hypergeometric ODE (``_hyp2f1_continue``), which needs no
      degenerate (logarithmic) form.

    Raises PoleError for a non-positive integer c that the series does not
    terminate before, BranchCut for z exactly on the cut [1, inf), and
    NonConvergence past 40 continuation steps, from |z| ~ 1e6 or |1-z| ~ 1e-11,
    and Overflow where the value or a gamma factor leaves the double range.
    """
    try:
        return _finite(_hyp2f1(complex(a), complex(b), complex(c), complex(z)), "2F1")
    except ZeroDivisionError:  # a gamma product of the 1/z or 1-z form underflowed
        raise Overflow("2F1 gamma factors leave the double range") from None


def _hyp2f1(a, b, c, z):
    """``hyp2f1`` on complex arguments, by its region map."""
    na, nb = _near_integer(a, 0.0), _near_integer(b, 0.0)
    nc = _near_integer(c, 1e-12)
    # a pole in c is allowed only when the series terminates first
    if nc is not None and nc <= 0 and not any(n is not None and nc < n <= 0 for n in (na, nb)):
        raise PoleError(f"2F1 denominator parameter c = {c} is a non-positive integer")
    if abs(z) < 0.9 or (na is not None and na <= 0) or (nb is not None and nb <= 0):
        return _pfq_series((a, b), (c,), z)
    if z.imag == 0 and z.real >= 1.0:
        raise BranchCut(f"2F1 argument {z} lies on the cut [1, inf)")
    w = z / (z - 1.0)
    if abs(w) < 0.9:
        return cpow(1.0 - z, -a) * _pfq_series((a, c - b), (c,), w)
    # 1/z and 1-z, argument w: as e = a - b, resp. c - a - b, nears an
    # integer their two terms cancel, losing about 1e-16/d, and 1e-15 |w|/d^2
    # for a nonzero integer, at a distance d.  e is formed once, so that both
    # terms see the same value; declined arguments go to the continuation.
    g = gamma
    e, w = a - b, 1.0 / z
    if abs(w) < 0.95 and _near_integer(e, max(1e-6, math.sqrt(1e-5 * abs(w)))) is None:
        return (g(c) * g(-e) / (g(b) * g(c - a)) * cpow(-z, -a)
                * _pfq_series((a, 1.0 - c + a), (1.0 + e,), w)
                + g(c) * g(e) / (g(a) * g(c - b)) * cpow(-z, -b)
                * _pfq_series((b, 1.0 - c + b), (1.0 - e,), w))
    e, w = c - a - b, 1.0 - z
    if abs(w) < 0.95 and _near_integer(e, max(1e-6, math.sqrt(1e-5 * abs(w)))) is None:
        return (g(c) * g(e) / (g(c - a) * g(c - b)) * _pfq_series((a, b), (1.0 - e,), w)
                + g(c) * g(-e) / (g(a) * g(b)) * cpow(w, e)
                * _pfq_series((c - a, c - b), (1.0 + e,), w))
    return _hyp2f1_continue(a, b, c, z)


def _hyp2f1_continue(a, b, c, z):
    """2F1 by Taylor steps along z(1-z)F'' + (c - (a+b+1)z)F' - abF = 0.

    F and F' come from the direct series at z0 = (1 +- i)/2, on z's side of
    the real axis.  Each step h from z0 towards z is at most half the
    distance to the nearer singular point, 0 or 1, and sums F's Taylor
    series about z0, whose coefficients obey
    f_{n+2} = -[((1-2z0)n + c - (a+b+1)z0)(n+1) f_{n+1} - (n+a)(n+b) f_n]
              / (z0(1-z0)(n+1)(n+2)),
    as g_n = f_n h^n, which fall at least like 2^-n.  Each step adds up to
    about REL_TOL of error; past 40 steps it raises NonConvergence.
    """
    z0 = complex(0.5, -0.5 if z.imag < 0 else 0.5)
    f = _pfq_series((a, b), (c,), z0)
    df = a * b / c * _pfq_series((a + 1.0, b + 1.0), (c + 1.0,), z0)
    for _ in range(40):
        h = z - z0
        reach = 0.5 * min(abs(z0), abs(1.0 - z0))
        last = abs(h) <= reach
        if not last:
            # end on a representable point, so that F is known exactly there
            h = z0 + h * (reach / abs(h)) - z0
        p = z0 * (1.0 - z0)
        s, t, u = (1.0 - 2.0 * z0) * h / p, (c - (a + b + 1.0) * z0) * h / p, h * h / p
        g0, g1 = f, df * h
        f, dh = g0 + g1, g1  # F and h F' at z0 + h
        for n in range(MAX_TERMS):
            g0, g1 = g1, (u * (n + a) * (n + b) * g0 / (n + 1.0) - (s * n + t) * g1) / (n + 2.0)
            f += g1
            dh += (n + 2) * g1
            if (n + 2) * (abs(g0) + abs(g1)) <= REL_TOL * (abs(f) + abs(dh)):
                break
        else:
            raise NonConvergence(f"2F1 Taylor step at {z0} did not converge")
        if last:
            return f
        z0 += h
        df = dh / h
    raise NonConvergence(f"2F1 continuation needs more than 40 steps to reach z = {z}")


def pfq(numer, denom, z) -> complex:
    """Generalized hypergeometric pFq by truncated series.

    2F1 goes to ``hyp2f1``; other (p, q) pairs must converge termwise.
    """
    numer = [complex(v) for v in numer]
    denom = [complex(v) for v in denom]
    z = complex(z)
    if len(numer) == 2 and len(denom) == 1:  # hyp2f1 allows a c pole the series ends before
        return hyp2f1(numer[0], numer[1], denom[0], z)
    for b in denom:
        n = _near_integer(b, 1e-12)
        if n is not None and n <= 0:
            raise PoleError(f"pFq denominator parameter {b} is a non-positive integer")
    return _finite(_pfq_series(numer, denom, z), "pFq sum")


# ---------------------------------------------------------------------------
# Bessel functions
# ---------------------------------------------------------------------------


def _first_term(nu: float, z: complex, bei: bool = False) -> complex:
    """J, I or bei where z/2 is 0 or underflows: the first series term (z/2)^nu
    / Gamma(nu+1), times sin(3 pi nu / 4) for bei, with the power cpow(z, nu)
    2^-nu.  Exactly 1 (0 for bei) at nu = 0, 0 without Gamma where the power
    underflows, and cpow's PoleError for nu < 0 at z = 0.
    """
    if nu == 0:
        return 0j if bei else 1.0 + 0j
    p = cpow(z, nu) * 2.0 ** -nu
    if p and bei:
        p *= math.sin(0.75 * math.pi * nu)
    return _finite(p / gamma(nu + 1.0), "(z/2)**nu / Gamma(nu + 1)") if p else p


def _bessel_ji(nu: float, z: complex, sign: float) -> complex:
    """J_nu (sign -1) or I_nu (sign +1): (z/2)^nu 0F1(; nu+1; sign z^2/4) / Gamma(nu+1)."""
    if _negative_integer(nu):
        # J_n = (-1)^n J_{-n} and I_n = I_{-n}
        n = round(nu)
        return sign ** n * _bessel_ji(float(-n), z, sign)
    z = complex(z)
    half = z / 2.0
    if half == 0:
        return _first_term(nu, z)
    scale = cpow(half, nu) / gamma(nu + 1.0)
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
    if half == 0:  # z is 0 or z/2 underflowed: the Log(z/2) and (z/2)^-n poles
        raise PoleError(f"Bessel {kind} is singular at z = 0")
    q = sign * half * half
    try:
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
    except OverflowError:  # math.gamma past n = 170, or abs() past the double range
        raise Overflow(f"integer-order {kind} series leaves the double range") from None
    raise NonConvergence(f"integer-order {kind} series did not converge")


def bessel(kind: str, nu: float, z: complex) -> complex:
    """Bessel function of the given kind (J, Y, I or K), principal branch."""
    kind = kind.upper()
    if kind not in ("J", "Y", "I", "K"):
        raise DomainError(f"unknown Bessel kind {kind!r}")
    if not math.isfinite(nu):
        raise DomainError("order must be finite")
    z = complex(z)
    if kind in ("J", "I"):
        val = _bessel_ji(nu, z, -1.0 if kind == "J" else 1.0)
    elif _near_integer(nu, 1e-8) is not None:
        val = _bessel_yk_int(kind, round(nu), z)
    elif kind == "Y":
        # cos(pi nu) is exactly 0 at half-integer orders, not math.cos's 6e-17
        jc = _bessel_ji(nu, z, -1.0) * math.cos(math.pi * nu) if (nu - 0.5) % 1.0 else 0.0
        val = (jc - _bessel_ji(-nu, z, -1.0)) / math.sin(math.pi * nu)
    else:
        val = (math.pi / 2.0 * (_bessel_ji(-nu, z, 1.0) - _bessel_ji(nu, z, 1.0))
               / math.sin(math.pi * nu))
    return _finite(val, f"Bessel {kind}")


def kelvin_bei_complex(nu: float, z: complex) -> complex:
    """Analytic continuation of bei_nu to complex argument via its series.

    bei_nu(x) = sum_k sin(pi (3 nu / 4 + k / 2)) (x/2)^(nu+2k) / (k! Gamma(nu+k+1)),
    summed as its even-k and odd-k halves, each a 0F3 series in -x^4/256.
    """
    if _negative_integer(nu):
        # bei_n = (-1)^n bei_{-n}
        n = round(nu)
        return (-1.0) ** n * kelvin_bei_complex(float(-n), z)
    z = complex(z)
    half = z / 2.0
    if half == 0:
        return _first_term(nu, z, bei=True)
    scale = cpow(half, nu) / gamma(nu + 1.0)
    q = half * half
    w = -q * q / 16.0
    even = _pfq_series((), (0.5, (nu + 1.0) / 2.0, (nu + 2.0) / 2.0), w)
    odd = q / (nu + 1.0) * _pfq_series((), (1.5, (nu + 2.0) / 2.0, (nu + 3.0) / 2.0), w)
    return _finite(scale * (math.sin(0.75 * math.pi * nu) * even
                            + math.cos(0.75 * math.pi * nu) * odd), "bei")


def kelvin_bei(nu: float, x: float) -> float:
    """Kelvin function bei_nu(x) = Im J_nu(x exp(3 i pi / 4)) for x >= 0."""
    if x < 0:
        raise DomainError("kelvin_bei requires x >= 0")
    bei = kelvin_bei_complex(nu, complex(x)).real
    # bei_nu(0) is 0 where it is no pole; the odd-order reflection signs that zero
    return bei if x else abs(bei)


def erfi(x: float) -> float:
    """Imaginary error function erfi(x) = (2/sqrt(pi)) int_0^x exp(t^2) dt."""
    if not math.isfinite(x):
        raise DomainError("erfi argument must be finite")
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
