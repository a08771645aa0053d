"""Renormalization-group flow engines for the complex-coupled oscillator.

Covers the discrete step recursion in Matsubara time, one-loop ODE flows and
their conserved combinations, the N-power and left-right flows with their
closed-form beta scales, saddle points of the log-action, regulator-integral
ground-state energies, effective-potential contour formulas, the
continued-fraction propagator recursion, and third-order corrections.

Flow contours are polylines in the complex tau plane; straight-ray contours
tau(s) = s e^{i alpha} are built with `ray_contour`.  The log-action tail is
a power series near 0 and a finite sum of logarithms elsewhere, continued
across its cut by the closed-form jump, so the module needs no numpy.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from . import specfun as sf
from .errors import (BlowUp, BranchCollision, BranchCut, DimensionMismatch,
                     DivisionByZero, DomainError, ExceptionalPoint, NoConvergence,
                     Overflow, PoleError, RangeError, _finite)
from .integrate import solve_rk4


@dataclass(frozen=True)
class FlowState:
    """One point of a coupling flow: parameter tau, inverse propagator, coupling."""

    tau: complex
    g_inv: complex
    gamma: complex

    def __post_init__(self):
        for v in (self.tau, self.g_inv, self.gamma):
            if not cmath.isfinite(v):
                raise DomainError("flow state fields must be finite")


@dataclass(frozen=True)
class Trajectory:
    """Ordered flow samples, held as three equal-length tuples of columns."""

    taus: tuple
    g_inv: tuple
    gamma: tuple

    def __post_init__(self):
        if len(self.taus) == 0:
            raise DomainError("trajectory must contain at least one state")
        if not len(self.taus) == len(self.g_inv) == len(self.gamma):
            raise DimensionMismatch("trajectory columns differ in length")
        for col in (self.taus, self.g_inv, self.gamma):
            # the sum is finite only when every entry is; it overflows for some that are
            if not cmath.isfinite(sum(col)) and not all(map(cmath.isfinite, col)):
                raise DomainError("flow state fields must be finite")

    @property
    def states(self) -> tuple:
        """The samples as FlowStates, built on each access."""
        return tuple(map(FlowState, self.taus, self.g_inv, self.gamma))


@dataclass(frozen=True)
class WetterichParams:
    """Regulator-integral parameters: frequency, couplings, UV cutoff, power."""

    omega: float
    Lambda: float
    gamma: float = 0.0
    delta: float = 0.0
    N: int = 1

    def __post_init__(self):
        if self.omega <= 0 or self.Lambda <= 0:
            raise DomainError("omega and Lambda must be positive")
        if self.gamma < 0 or self.delta < 0:
            raise DomainError("gamma and delta must be non-negative")
        if self.N < 1:
            raise DomainError("N must be a positive integer")


def ray_contour(angle: float, s_max: float, n_points: int):
    """Straight contour tau(s) = s e^{i angle}, s on [0, s_max]."""
    if n_points < 2:
        raise DomainError("contour needs at least two points")
    e = cmath.exp(1j * angle)
    return [s_max * k / (n_points - 1) * e for k in range(n_points)]


# ---------------------------------------------------------------------------
# discrete step recursion
# ---------------------------------------------------------------------------

def continuity_root(g_prev: complex, gamma_n: complex) -> complex:
    """Root of g^2 - g_prev g + gamma^2 = 0 closest to g_prev."""
    disc = g_prev * g_prev - 4.0 * gamma_n * gamma_n
    try:
        scale = max(abs(g_prev) ** 2, abs(gamma_n) ** 2, 1e-300)
        collided = abs(disc) <= 1e-14 * scale
    except OverflowError:
        raise Overflow("squared coupling overflows the float range") from None
    if collided:
        raise BranchCollision("quadratic discriminant vanished (exceptional point)")
    r = cmath.sqrt(disc)
    cand = (0.5 * (g_prev + r), 0.5 * (g_prev - r))
    return min(cand, key=lambda g: abs(g - g_prev))


# damped fixed point of tau_step_recursion: relative tolerance, iteration cap
_RECURSION_TOL = 1e-13
_RECURSION_MAX_ITER = 500


def tau_step_recursion(prev: FlowState, step: float = 1.0) -> FlowState:
    """One implicit step of the coupled recursion.

    g_n = g_{n-1} - gamma_n^2/g_n is solved as a quadratic with the branch
    chosen by continuity; gamma_n = gamma_{n-1} + gamma_n^2 gamma_{n-1}/g_n is
    closed by a damped fixed point seeded at gamma_{n-1}.
    """
    if prev.g_inv == 0:
        raise DomainError("step requires a nonzero inverse propagator")
    g_prev, gam_prev = complex(prev.g_inv), complex(prev.gamma)
    if gam_prev == 0:
        return FlowState(prev.tau + step, g_prev, 0.0)
    gam = gam_prev
    g = g_prev
    for _ in range(_RECURSION_MAX_ITER):
        g = continuity_root(g_prev, gam)
        gam_next = gam_prev + gam * gam * gam_prev / g
        if abs(gam_next - gam) <= _RECURSION_TOL * max(abs(gam_next), 1e-300):
            return FlowState(prev.tau + step, continuity_root(g_prev, gam_next), gam_next)
        gam = gam + 0.5 * (gam_next - gam)
    raise NoConvergence("coupling fixed point did not converge")


# ---------------------------------------------------------------------------
# one-loop invariant flows
# ---------------------------------------------------------------------------

def one_loop_invariant_flow(variant: str, gamma_grid, C: float,
                            complex_mode: bool = False):
    """One-loop flow as a function of the running coupling gamma.

    separated_v1 integrates dt/dgamma = -3 t^{3/2} gamma^{-1/2} for
    t = gamma^3/g_inv^2 (so (2/3) g_inv = 2 gamma^2 + C gamma^{3/2} is
    conserved) and reports g_inv = gamma^{3/2}/sqrt(t), raising DomainError at
    the first gamma where the drift of that invariant shows g_inv off by more
    than 1e-9 relative; appendix_v2 evaluates the level set
    g_inv = gamma sqrt(log(1/gamma) + C) directly.

    Returns (trajectory, invariants) with one invariant value per sample.
    """
    gammas = [float(g) for g in gamma_grid]
    if any(g <= 0 for g in gammas) or any(b <= a for a, b in zip(gammas, gammas[1:])):
        raise DomainError("gamma_grid must be positive and increasing")
    g_invs, invariants = [], []
    if variant == "separated_v1":
        root = 1.5 * (C + 2.0 * math.sqrt(gammas[0]))
        if root <= 0:
            raise DomainError("no real t matches this invariant at the first gamma")

        def f(g, y):
            return -3.0 * y ** 1.5 / math.sqrt(g)

        for g, t in zip(gammas, solve_rk4(f, gammas, root ** -2.0)):
            t = t.real
            if t < 0:  # t fell below the integrator's absolute tolerance
                raise DomainError("one-loop t = gamma^3/g_inv^2 turns negative "
                                  f"at gamma = {g}")
            # inf where t underflowed to 0; g ** 1.5 itself may raise OverflowError
            g_inv = _finite(g ** 1.5 / math.sqrt(t) if t else g ** 1.5 * math.inf, "one-loop g_inv")
            # the invariant witnesses g_inv: its drift over (2/3) t^{-1/2} =
            # C + 2 sqrt(gamma) is the relative error of g_inv
            level = (2.0 / 3.0) * t ** -0.5
            invariants.append(level - 2.0 * math.sqrt(g))
            if abs(invariants[-1] - invariants[0]) > 1e-9 * level:
                raise DomainError(f"one-loop g_inv cannot be held to 1e-9 at gamma = {g}")
            g_invs.append(g_inv)
    elif variant == "appendix_v2":
        for g in gammas:
            arg = math.log(1.0 / g) + C
            if arg < 0 and not complex_mode:
                raise DomainError("negative level-set argument; pass complex_mode=True")
            g_inv = g * cmath.sqrt(arg)
            g_invs.append(g_inv)
            invariants.append((g_inv / g) ** 2 - math.log(1.0 / g))
    else:
        raise DomainError(f"unknown variant {variant!r}")
    gammas = tuple(gammas)
    return Trajectory(gammas, tuple(g_invs), gammas), invariants


# ---------------------------------------------------------------------------
# N-power and left-right flows
# ---------------------------------------------------------------------------

BLOWUP_G = 1e10
_BLOWUP = ((lambda tau, y: max(abs(y[0]), abs(y[1])) - BLOWUP_G, BlowUp),)


def _flow(rhs, init: FlowState, contour) -> Trajectory:
    """Integrate (g_inv, gamma)' = rhs along the contour's nodes."""
    taus = [complex(t) for t in contour]
    if len(taus) < 2:
        raise DomainError("contour needs at least two points")
    try:
        samples = solve_rk4(rhs, taus, [init.g_inv, init.gamma], events=_BLOWUP)
    except BlowUp as exc:  # name what diverged
        raise BlowUp(f"inverse propagator diverged at flow parameter {exc.tau_star}",
                     exc.tau_star, exc.samples) from None
    g_inv, gamma = zip(*samples)
    return Trajectory(tuple(taus), g_inv, gamma)


def n_power_flow(init: FlowState, N: int, contour) -> Trajectory:
    """Flow dg/dtau = g^2 - N^2 gamma^{2N}, dgamma/dtau = gamma g."""
    if N < 1:
        raise DomainError("N must be a positive integer")

    nn, two_n = N * N, 2 * N

    def rhs(tau, y):
        g, gam = y
        return (g * g - nn * gam ** two_n, gam * g)

    return _flow(rhs, init, contour)


def lr_flow(init: FlowState, N: int, nu: float, contour) -> Trajectory:
    """Left-right basis flow with the angular weight sin(nu/N).

    dg/dtau = g^2 - N^2 gamma^{2N} sin^{2N}(nu/N);
    dgamma/dtau = (-1)^N gamma sin^2(nu/N) g / N.
    """
    if N < 1:
        raise DomainError("N must be a positive integer")
    s = math.sin(nu / N)
    sign = (-1.0) ** N
    nn, two_n = N * N, 2 * N
    s_two_n = s ** two_n

    def rhs(tau, y):
        g, gam = y
        dg = g * g - nn * gam ** two_n * s_two_n
        dgam = sign * gam * s * s * g / N
        return (dg, dgam)

    return _flow(rhs, init, contour)


def lr_beta_closed_form(g_inv: complex, k: complex, N: int, nu: float,
                        form: str = "advanced"):
    """Closed-form beta scale of the left-right flow.

    advanced: beta = -g^{2N+1} 2F1(1,(2N+1)/(2N+2);(4N+3)/(2N+2);-g^{2N+2}/k)
    / ((2N+1) k), paired with gamma_tilde; retarded: beta = G 2F1(1, 1/(2N);
    1+1/(2N); k G^{2N}) with G = 1/g_inv.  Raises Overflow where 2N + 2
    leaves the double range.
    """
    if N < 1:
        raise DomainError("N must be a positive integer")
    _finite(2.0 * N + 2, f"2N + 2 at N = {N}")
    g = complex(g_inv)
    k = complex(k)
    if form == "advanced":
        if g == 0:
            return 0.0 + 0.0j, 0.0 + 0.0j
        z = -g ** (2 * N + 2) / k
        f = sf.hyp2f1(1.0, (2.0 * N + 1) / (2.0 * N + 2), (4.0 * N + 3) / (2.0 * N + 2), z)
        beta = -g ** (2 * N + 1) * f / (2.0 * k * N + k)
        return beta, gamma_tilde(beta, k, N, nu)
    if form == "retarded":
        if g == 0:
            raise DomainError("retarded form requires g_inv != 0")
        G = 1.0 / g
        beta = G * sf.hyp2f1(1.0, 1.0 / (2.0 * N), 1.0 + 1.0 / (2.0 * N), k * G ** (2 * N))
        return beta, gamma_tilde(beta, k, N, nu)
    raise DomainError(f"unknown form {form!r}")


def gamma_tilde(beta: complex, k: complex, N, nu: float) -> complex:
    """Renormalized coupling scale beta k^{1/(2N)} N^{-(2N+2)/(2N)} / sqrt(sin(nu/N))."""
    s = math.sin(nu / N)
    if s <= 0:
        raise DomainError("requires sin(nu/N) > 0")
    return (complex(beta) * sf.cpow(k, 1.0 / (2.0 * N))
            * N ** (-(2.0 * N + 2) / (2.0 * N)) / math.sqrt(s))


# ---------------------------------------------------------------------------
# log-action and its saddle points
# ---------------------------------------------------------------------------

def _tail(w: complex, b: float) -> complex:
    """T(w) = sum_{m>=1} w^m/(m + b) for b = s/q = +-1/q, dropping m = -b.

    The series for |w| <= 1/2; elsewhere, by Gauss's digamma theorem with
    v = w^{1/q} and e_r = e^{2 pi i r/q}, T = -v^{-s} sum_{r<q} e_r^{-s}
    log(1 - e_r v) - q [b > 0], the r = 0 log taken as log((1 - w)/sum_{j<q}
    v^j) to keep its digits next to w = 1.  In the strip Re w > 1,
    -0.6 < Im w <= 0 that log takes its branch from above, which adds the
    jump 2 pi i w^{-b} (DLMF 15.2(i)) and continues T from above across
    [1, inf): its cut runs from w = 1 down to 1 - 0.6i and along Im w = -0.6.
    Raises PoleError at w = 1 and Overflow for non-finite w.
    """
    if w == 1:
        raise PoleError("log-action tail diverges at w = 1")
    _finite(w, "log-action tail argument")
    if abs(w) <= 0.5:
        total, power, m = 0j, w, 1
        while abs(power) > 1e-17 * abs(total):
            if m + b:
                total += power / (m + b)
            power, m = power * w, m + 1
        return total
    q, s = round(1.0 / abs(b)), (1 if b > 0 else -1)
    v = w ** (1.0 / q)
    # on the cut clog is the limit from below; in the strip move it above
    jump = 2j * math.pi if w.real > 1.0 and -0.6 < w.imag <= 0.0 else 0.0
    acc = sf.clog((1.0 - w) / sum(v ** j for j in range(q))) - jump
    for r in range(1, q):
        e = cmath.exp(2j * math.pi * r / q)
        acc += e ** -s * cmath.log(1.0 - e * v)
    return -v ** -s * acc - (q if s > 0 else 0)


def _action_constant(g_inv: complex, gamma: float, N: int) -> complex:
    """c = -g_inv N e^{i N pi/2} / gamma^N, for N >= 1, N != 2 and gamma > 0.

    Raises Overflow where gamma^N leaves the double range (over- or
    underflow).
    """
    if N < 1:
        raise DomainError("N must be a positive integer")
    if N == 2:
        raise DomainError("log-action family is degenerate at N = 2")
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    if not g_inv:
        return 0j
    try:
        return -complex(g_inv) * N * (1j ** N) / gamma ** N
    except (OverflowError, ZeroDivisionError) as exc:
        raise Overflow("gamma^N leaves the double range") from exc


def log_action(g_inv: complex, gamma: float, N: int, nu: complex) -> complex:
    """ln(S_eff/S_0) = u (N - T(w)) with u = sin(nu/N), w = c u^{2-N},
    c = -g_inv N e^{i N pi/2} / gamma^N, T(w) = sum_{m>=1} w^m/(m + 1/(2-N)).

    T is continued from above across [1, inf), where the saddles w* = N/2
    (N != 3) lie (see ``_tail``).  Raises DomainError for N < 1 or N = 2,
    PoleError where w = 1, and Overflow where w or the value is not finite.
    """
    c = _action_constant(g_inv, gamma, N)
    u = cmath.sin(complex(nu) / N)
    if u == 0:
        return 0.0 + 0.0j
    w = c * u ** (2 - N)
    return _finite(u * (N - _tail(w, 1.0 / (2.0 - N))), "log-action")


def saddle_points(g_inv: complex, gamma: float, N: int, n_range):
    """Stationary points nu_n = N [n pi + (-1)^n arcsin(u*)] of the log-action.

    The stationary condition fixes w* = c u*^{2-N}: w* = N/2 for the full
    series tail, and the root of w^2 - N w + N = 0 for the regularized tail
    at N = 3 (where the m = 1 series weight is divergent and dropped).
    """
    c = _action_constant(g_inv, gamma, N)
    w_star = 0.5 * (3.0 + 1j * math.sqrt(3.0)) if N == 3 else complex(N / 2.0)
    u_star = sf.cpow(w_star / c, 1.0 / (2.0 - N)) if g_inv else 0j
    if abs(u_star.imag) < 1e-14 and abs(u_star.real) > 1.0:
        raise BranchCut("arcsin argument on the real cut")
    asin_u = cmath.asin(u_star)
    return [N * (n * math.pi + (-1) ** n * asin_u) for n in n_range]


# ---------------------------------------------------------------------------
# regulator-integral ground-state energies and effective potentials
# ---------------------------------------------------------------------------

def wetterich_ground_energy(params: WetterichParams, mode: str) -> complex:
    """Ground-state energy from the regulator integral at cutoff Lambda.

    complex_osc raises Overflow where omega^2 - gamma^2 + i gamma omega
    underflows to 0, and PoleError where Lambda/r hits a branch point of atan.
    """
    w, L = params.omega, params.Lambda
    if mode == "real_osc":
        return (w / math.pi) * math.atan(L / w)
    if mode == "perturbed":
        d = params.delta
        if d >= w:
            raise DomainError("perturbed mode requires delta < omega")
        s = math.sqrt(1.0 - (d / w) ** 2)
        return (w / math.pi) * s * math.atan(L / (w * s))
    if mode == "complex_osc":
        g = params.gamma
        r = cmath.sqrt(w * w - g * g + 1j * g * w)
        if r == 0:
            raise Overflow("omega^2 - gamma^2 + i gamma omega underflows to 0")
        try:
            return r * cmath.atan(L / r)
        except ValueError:  # L/r = +-i, the branch points of atan
            raise PoleError(f"atan is singular at Lambda/r = {L / r}") from None
    raise DomainError(f"unknown mode {mode!r}")


def u_eff(params: WetterichParams, mode: str) -> complex:
    """Effective-potential contour integrals, evaluated in closed form.

    The phase factors e^{i pi/2} and e^{i pi} that encode the rotated contour
    are kept exact (i and -1).
    """
    w, g, L, N = params.omega, params.gamma, params.Lambda, params.N
    if mode == "n1":
        root = cmath.sqrt(4.0 * w * w + g * g)
        term1 = 0.5j * g * sf.clog(1j * g * L + L * L + w * w)
        term2 = (-2.0 * w * w - g * g) * cmath.atan((2.0 * L + 1j * g) / root) / root
        return term1 - term2
    if mode == "n2":
        a = 1.0 - g + 0.0j
        if a == 0:
            raise DomainError("n2 mode degenerate at gamma = 1")
        return (w * cmath.atan(L * cmath.sqrt(a) / w) / sf.cpow(a, 1.5)
                - g * L / a)
    if mode == "omega0_split":
        phi = (2.0 * N - 1.0) * math.pi / 2.0
        zm = -cmath.exp(-1j * phi) * L ** (2 * N)
        zp = -cmath.exp(1j * phi) * L ** (2 * N)
        b = 1.0 / (2.0 * N)
        return L * (sf.hyp2f1(1.0, b, 1.0 + b, zm) - sf.hyp2f1(1.0, b, 1.0 + b, zp))
    if mode == "n_infinity":
        s = 1.0 + (-1.0) ** N * L ** (2 * N)
        return 1j * (s * s / 2.0 - 0.5)
    raise DomainError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# continued-fraction propagator recursion
# ---------------------------------------------------------------------------

def regulator_matrix_entry(tau_i: float, tau_j: float) -> float:
    """Gaussian vertex R_{i,j} = e^{-(tau_i^2 + tau_j^2)/2}."""
    return math.exp(-0.5 * (tau_i * tau_i + tau_j * tau_j))


def continued_fraction_rg(g0, tau_grid, depth: int):
    """Two-level Jacobi continued-fraction correction, iterated `depth` times.

    Each level replaces g_n by (g_n + R_nn) - R^2/(g_{n+1} + R_{n+1,n+1})
    - R^2/[that same bracket], with the Gaussian vertex R and periodic site
    index; between levels the working couplings shift n -> n+1.  depth = 0
    returns the bare g_n + R_nn.
    """
    if depth < 0:
        raise DomainError("depth must be non-negative")
    g = [complex(v) for v in g0]
    taus = [float(t) for t in tau_grid]
    if len(g) != len(taus):
        raise DomainError("g0 and tau_grid must have the same length")
    L = len(g)
    diag = [regulator_matrix_entry(t, t) for t in taus]
    if depth == 0:
        return [g[n] + diag[n] for n in range(L)]
    off = [regulator_matrix_entry(taus[n], taus[(n + 1) % L]) for n in range(L)]
    work = g
    tilde = None
    for d in range(depth):
        tilde = []
        for n in range(L):
            m = (n + 1) % L
            head = work[n] + diag[n]
            den1 = work[m] + diag[m]
            if den1 == 0:
                raise DivisionByZero("inner denominator vanished", site=n, depth=d)
            inner = head - off[n] * off[n] / den1
            if inner == 0:
                raise DivisionByZero("outer denominator vanished", site=n, depth=d)
            tilde.append(inner - off[n] * off[n] / inner)
        work = [tilde[(n + 1) % L] for n in range(L)]
    return tilde


# ---------------------------------------------------------------------------
# third-order corrections and normal-ordering weights
# ---------------------------------------------------------------------------

def third_order_corrections(g_inv: complex, gamma: complex):
    """Third-order vertex corrections; their ratio equals g_inv/gamma."""
    g = complex(g_inv)
    gam = complex(gamma)
    den = g - gam * gam
    if den == 0:
        raise ExceptionalPoint("third-order corrections degenerate at g_inv = gamma^2")
    dg = -(gam * gam * g - g * g - g * g * g) / den
    dgam = -(-gam * g + gam ** 3 - gam * g * g) / den
    return dg, dgam


def normal_order_coeff(n: int, m: int, l: int) -> Fraction:
    """Normal-ordering weight n! / (2^l l! (n-l)! (n-m-l)!), exact."""
    if not (0 <= m <= n):
        raise RangeError("requires 0 <= m <= n")
    if not (0 <= l <= min(m, n - m)):
        raise RangeError("requires 0 <= l <= min(m, n-m)")
    return Fraction(math.factorial(n),
                    2 ** l * math.factorial(l) * math.factorial(n - l)
                    * math.factorial(n - m - l))
