"""Checks of workload outputs against computations made apart from cflow.

Every checker takes the job's normalized output, the outputs of the whole
pass by job id, and the job's check arguments, and returns (ok, err, note):
`err` is the checker's error figure (relative error for special functions),
`note` says what was compared.  References are scipy `solve_ivp` (DOP853,
rtol 1e-12) on the equations written out below, first integrals, closed
forms, mpmath at 30 digits, a numpy recomputation of the Bethe defect, and a
byte comparison of the config echo re-run.  None is a stored copy of cflow's
output.
"""
from __future__ import annotations

import cmath
import csv
import io
import json
import math
import xml.etree.ElementTree as ET

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp

from workloads import Raised

mp.mp.dps = 30

FLOW_TOL = 1e-9          # per node, relative to max(1, |y|)
# g^2/gamma^2 + N^2 gamma^(2N-2)/(N-1) at least doubles the relative node
# errors (1.3e-9 on the hardest sparse N = 3 flow)
INTEGRAL_TOL = 1e-8
SPECFUN_TOL = 1e-8       # relative, as tests/test_acceptance.py::test_04
BETHE_DEFECT_MULT = 10   # recomputed defect must be below this multiple of tol
PORTRAIT_TOL = 1e-2      # step length (relative) and direction (radians)
PORTRAIT_CLEARANCE = 0.2  # steps this close to a stationary point are skipped


def run_check(job, value, values):
    if isinstance(value, Raised):
        return False, math.inf, f"raised {value}"
    name, spec = job.check
    return globals()["check_" + name](value, values, **spec)


def _verdict(err, tol, what):
    err = float(err)
    return err <= tol, err, f"{what}: error {err:.3g} (limit {tol:.0e})"


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def _ivp(f, t_eval, y0):
    sol = solve_ivp(f, (t_eval[0], t_eval[-1]), np.asarray(y0, dtype=complex),
                    method="DOP853", rtol=1e-12, atol=1e-14, t_eval=t_eval)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


def _node_error(got, ref):
    got, ref = np.atleast_2d(got.T).T, np.atleast_2d(ref.T).T
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=1))
    return float(np.max(np.max(np.abs(got - ref), axis=1) / scale))


def contour_rhs(variant, N, nu):
    """dg/dtau, dgamma/dtau of the N-power and left-right flows."""
    if variant == "n_power":
        return lambda g, gam: (g * g - N * N * gam ** (2 * N), gam * g)
    s = math.sin(nu / N)
    sign = (-1.0) ** N
    return lambda g, gam: (g * g - N * N * gam ** (2 * N) * s ** (2 * N),
                           sign * gam * s * s * g / N)


def check_contour_flow(value, values, variant, N, nu, angle, s_max, n_nodes, y0):
    if value.shape != (n_nodes, 3):
        return False, math.inf, f"shape {value.shape}, expected {(n_nodes, 3)}"
    e = cmath.exp(1j * angle)
    s = np.linspace(0.0, s_max, n_nodes)
    if np.max(np.abs(value[:, 0] - s * e)) > 1e-12:
        return False, math.inf, "nodes are not on the ray contour"
    rhs = contour_rhs(variant, N, nu)
    ref = _ivp(lambda t, y: e * np.array(rhs(y[0], y[1])), s, y0)
    err = _node_error(value[:, 1:], ref)
    if variant == "n_power" and N >= 2:
        g, gam = value[:, 1], value[:, 2]
        first = g * g / (gam * gam) + N * N * gam ** (2 * N - 2) / (N - 1)
        drift = float(np.max(np.abs(first - first[0])) / abs(first[0]))
        if drift > INTEGRAL_TOL:
            return False, drift, f"first integral drifts by {drift:.3g}"
    return _verdict(err, FLOW_TOL, "nodes against solve_ivp")


def check_one_loop_v1(value, values, grid, C):
    traj, inv = value["traj"], value["inv"]
    bad_inv = float(np.max(np.abs(inv - C))) / max(1.0, abs(C))
    if bad_inv > FLOW_TOL:
        return False, bad_inv, f"invariant differs from C by {bad_inv:.3g}"
    t0 = (1.5 * (C + 2.0 * math.sqrt(grid[0]))) ** -2.0
    ref_t = _ivp(lambda g, y: -3.0 * y ** 1.5 / np.sqrt(g), grid, [t0])[:, 0].real
    ref = grid ** 1.5 / np.sqrt(ref_t)
    return _verdict(_node_error(traj[:, 1], ref), FLOW_TOL, "g_inv against solve_ivp")


def check_gp_flow(value, values, q2, beta, radii, chi0, xi0):
    e = cmath.exp(1j * beta)
    s = radii * e

    def f(r, y):
        z = r * e
        return e * z * y / (1.0 - z ** (q2 - 1.0))

    ref = _ivp(f, radii, [chi0])[:, 0]
    if np.max(np.abs(value[:, 0] - s)) > 1e-12:
        return False, math.inf, "nodes are not on the contour"
    xi_err = _node_error(value[:, 2], xi0 * np.exp(s))
    if xi_err > FLOW_TOL:
        return False, xi_err, "xi differs from xi0 e^s"
    return _verdict(_node_error(value[:, 1], ref), FLOW_TOL, "chi against solve_ivp")


def check_phase_ode(value, values, c1, xs):
    ref = _ivp(lambda x, y: np.array([y[1], -1j * x * y[1] - (c1 - x * x)]), xs, [0.0, 0.0])
    if np.max(np.abs(value[:, 0] - xs)) > 0:
        return False, math.inf, "samples are not at the grid points"
    return _verdict(_node_error(value[:, 1], ref[:, 0]), FLOW_TOL, "theta against solve_ivp")


def check_blowup(value, values, g0):
    if value["tau_star"] is None:
        return False, math.inf, "flow through the pole did not raise BlowUp"
    return _verdict(abs(value["tau_star"] - 1.0 / g0) * g0, FLOW_TOL, "tau_star against 1/g0")


def pole_error(tau, g, g0):
    """Largest |1/g - (1/g0 - tau)| g0: the gamma0 = 0 flow is g0/(1 - g0 tau).

    Compared through 1/g, which is linear in tau: near the pole a relative
    error of g grows like |g| times the tau-error (1.6e-6 was seen on an
    honest row next to the pole), while 1/g stays well conditioned.
    """
    return float(np.max(np.abs(1.0 / g - (1.0 / g0 - tau)))) * g0


def check_pole_twin(value, values, g0):
    if np.any(value[:, 2] != 0):
        return False, math.inf, "gamma left zero"
    return _verdict(pole_error(value[:, 0], value[:, 1], g0), FLOW_TOL,
                    "1/g against 1/g0 - tau")


def check_portrait(value, values, n, step):
    pts = np.asarray(value, dtype=complex)
    stationary = np.concatenate([[0.0], np.exp(2j * np.pi * np.arange(n) / n)])

    def clearance(z):
        return np.min(np.abs(z[:, None] - stationary[None, :]), axis=1)

    d = np.diff(pts)
    far = (clearance(pts[:-1]) > PORTRAIT_CLEARANCE) & (clearance(pts[1:]) > PORTRAIT_CLEARANCE)
    if not np.any(far):
        return False, math.inf, "no step away from the stationary points"
    mid = 0.5 * (pts[1:] + pts[:-1])[far]
    # line-field angle arg(z^2 (z^n - 1)(z - 1)) mod pi; odd n run it negated
    field = np.angle(mid ** 2 * (mid ** n - 1.0) * (mid - 1.0)) * (-1.0 if n % 2 else 1.0)
    turn = (np.angle(d[far]) - field + math.pi / 2) % math.pi - math.pi / 2
    length = np.abs(np.abs(d[far]) / step - 1.0)
    return _verdict(max(np.max(length), np.max(np.abs(turn))), PORTRAIT_TOL,
                    "step length and line-field direction")


def check_detect(value, values, portrait):
    pts = np.asarray(values[portrait], dtype=complex)
    d0 = np.abs(pts - pts[0])
    k = int(value["period_estimate"])
    nearest = float(np.min(d0[max(int(np.argmax(d0)), 2):]))
    err = abs(value["min_return_distance"] - nearest) + abs(d0[k] - nearest)
    return _verdict(err, 1e-12, "nearest return after the farthest point")


# ---------------------------------------------------------------------------
# Bethe roots
# ---------------------------------------------------------------------------

def bethe_defect(x, N):
    """x_j - sum_{k != j} [1/(2(x_j - x_k)) + (-1)^N (x_j - x_k)^{2N}]."""
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, 1.0)
    terms = 0.5 / d + (-1.0) ** N * d ** (2 * N)
    np.fill_diagonal(terms, 0.0)
    return x - terms.sum(axis=1)


def check_bethe(value, values, n, N, tol):
    x = np.asarray(value["roots"], dtype=complex)
    if x.shape != (n,):
        return False, math.inf, f"{x.shape[0]} roots, expected {n}"
    gaps = np.abs(x[:, None] - x[None, :]) + np.eye(n)
    if np.min(gaps) <= 1e-6:
        return False, math.inf, "roots are not pairwise distinct"
    defect = float(np.max(np.abs(bethe_defect(x, N))))
    return _verdict(defect / tol, BETHE_DEFECT_MULT, "recomputed defect / tol")


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def mp_specfun(fn, args):
    if fn == "hyp2f1":
        return mp.hyp2f1(*args)
    if fn == "gamma_u":
        return mp.gammainc(args[0], args[1])
    if fn.startswith("bessel_"):
        f = {"j": mp.besselj, "y": mp.bessely, "i": mp.besseli, "k": mp.besselk}[fn[-1]]
        return f(args[0], args[1])
    if fn == "kelvin_bei":
        return mp.bei(*args)
    if fn == "erfi":
        return mp.erfi(args[0])
    if fn == "pfq":
        return mp.hyper(list(args[0]), list(args[1]), args[2])
    raise ValueError(fn)


def _rel(got, ref):
    ref = complex(ref)
    return abs(complex(got) - ref) / max(abs(ref), 1e-12)


def check_specfun(value, values, fn, args):
    return _verdict(_rel(value, mp_specfun(fn, args)), SPECFUN_TOL, f"{fn} against mpmath")


def mp_phase_scale(N, gamma, E0, k, nu, n_max):
    """|gamma-tilde| of the advanced closed form fed by the mode sum."""
    N = mp.mpf(N)
    s2 = mp.sin(nu / N) ** 2
    tot = 1 / mp.mpf(E0) + mp.fsum(2 * E0 / ((2 * mp.pi * n) ** 2 + E0 ** 2)
                                   for n in range(1, n_max + 1))
    g = (tot + E0 / (2 * mp.pi ** 2 * n_max)) / (2 * s2)
    k = mp.mpc(k)
    f = mp.hyp2f1(1, (2 * N + 1) / (2 * N + 2), (4 * N + 3) / (2 * N + 2),
                  -g ** (2 * N + 2) / k)
    beta = -g ** (2 * N + 1) * f / ((2 * N + 1) * k)
    return abs(beta * k ** (1 / (2 * N)) * N ** (-(2 * N + 2) / (2 * N))
               / mp.sqrt(mp.sin(nu / N)))


def check_phase_scan(value, values, args):
    Ns, gamma, E0, k, nu, n_max = args
    if value.shape[0] != len(Ns) or np.any(value[:, 2]):
        return False, math.inf, "missing or divergent scan points"
    err = max(_rel(row[1], mp_phase_scale(N, gamma, E0, k, nu, n_max))
              for N, row in zip(Ns, value))
    return _verdict(err, SPECFUN_TOL, "scales against mpmath")


def check_theta_phase(value, values, N, gamma, E, t):
    t, E = mp.mpc(t), mp.mpc(E)
    a, k = (2 * N + 1) * (2 * N + 2), 2 * N + 1
    b = mp.mpf(1 - 2 * N) / (2 * N + 2)
    c = mp.mpf(2 * N + 1) / (2 * N + 2)
    d = mp.mpf(1) / (N + 1)
    pot = (1j * mp.mpf(gamma)) ** (2 * N)
    G = lambda s: mp.gammainc(s, -t)  # noqa: E731
    et = mp.exp(-t)
    g1 = G(mp.mpf(4 * N + 3) / (2 * N + 2))
    g2 = G(mp.mpf(1) / (2 * N + 2))
    g3 = G(mp.mpf(2) / (2 * N + 1))
    g4 = G(mp.mpf(N) / (N + 1))
    ref = (-(a * t) ** c * (-2 * (N + 1) * t + (4 * N + 3) * et * g1)
           / ((2 * N + 1) * (4 * N + 3))
           - E * k * (a * t) ** (-c) * (-2 * (N + 1) * t + et * t ** c * g2)
           - 0.5 * k * (a * t) ** b * (-(2 * N + 1) * t + et * (-t) ** (-b) * g3)
           - k * pot * (a * t) ** (-d) * (-(N + 1) * t + et * t ** d * N * g4) / N)
    return _verdict(_rel(value, ref), SPECFUN_TOL, "theta(t) against mpmath")


def check_rho_omega(value, values, omega, k):
    w32 = mp.mpf(abs(omega)) ** 1.5
    arg_bei = 2 * w32 / (3 * mp.sqrt(3) * mp.sqrt(1j * mp.mpf(k) ** 2))
    arg_j = 2 * w32 / (3 * mp.sqrt(3) * (mp.mpf(k) ** 4) ** 0.25)
    ref = (mp.bei(mp.mpf(-1) / 3, arg_bei) + mp.besselj(mp.mpf(-1) / 3, arg_j)
           + mp.hyper([1], [mp.mpf(7) / 6, mp.mpf(4) / 3, mp.mpf(5) / 3, mp.mpf(11) / 6],
                      mp.mpf(omega) ** 6 / (mp.mpf("2.18") ** 3 * mp.mpf(k) ** 4)))
    return _verdict(_rel(value, ref), SPECFUN_TOL, "rho(omega) against mpmath")


def frobenius_residual(coeffs, N, gamma, E):
    """Largest residual of the truncated recurrence solved at theta = 0:
    c_{n+2} + 2 c_{n+2N} (n-2N)/((n+1)(n+2)) = [c_{n-2} - c_{n-4N-2}/(2N+1)^2
    + (i gamma)^{2N} c_{n-2N} + E c_n] / ((n+1)(n+2))."""
    c = np.asarray(coeffs, dtype=complex)
    n_max = len(c) - 1
    pot = (1j * gamma) ** (2 * N) if gamma else 0.0

    def at(m):
        return c[m] if 0 <= m <= n_max else 0.0

    worst = 0.0
    for n in range(n_max - 1):
        den = (n + 1.0) * (n + 2.0)
        r = (at(n + 2) + 2.0 * (n - 2.0 * N) / den * at(n + 2 * N)
             - (at(n - 2) - at(n - 4 * N - 2) / (2.0 * N + 1) ** 2
                + pot * at(n - 2 * N) + E * at(n)) / den)
        worst = max(worst, abs(r))
    return worst / max(1.0, float(np.max(np.abs(c))))


def check_frobenius(value, values, N, gamma, E, n_max):
    if len(value) != n_max + 1 or value[0] != 1 or value[1] != 0:
        return False, math.inf, "wrong length or seeds"
    return _verdict(frobenius_residual(value, N, gamma, E), 1e-10, "recurrence residual")


def check_log_action(value, values, g_inv, gamma, N, nu):
    u = mp.sin(mp.mpf(nu) / N)
    c = -mp.mpc(g_inv) * N * (1j ** N) / mp.mpf(gamma) ** N
    w = c * u ** (2 - N)
    b = mp.mpf(1) / (2 - N)
    tail = w / (1 + b) * mp.hyp2f1(1, 1 + b, 2 + b, w)
    return _verdict(_rel(value, u * (N - tail)), SPECFUN_TOL, "log-action against mpmath")


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def strict_json(data):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(data.decode("utf-8"), parse_constant=reject)


def _csv_rows(data):
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _flow_array(rows):
    return np.array([(complex(float(r["Re tau"]), float(r["Im tau"])),
                      complex(float(r["Re g_inv"]), float(r["Im g_inv"])),
                      complex(float(r["Re gamma"]), float(r["Im gamma"])))
                     for r in rows], dtype=complex)


def _cli(check):
    """Exit code and presence of every output file come first."""
    def wrapped(value, values, code, **spec):
        if value["rc"] != code:
            return False, math.inf, f"exit code {value['rc']}, expected {code}"
        try:
            return check(value["files"], values, **spec)
        except (KeyError, ValueError, ET.ParseError) as exc:
            return False, math.inf, f"unreadable output: {type(exc).__name__}: {exc}"
    wrapped.__name__ = check.__name__
    return wrapped


@_cli
def check_cli_contour(files, values, table, svg=None, **spec):
    ok = check_contour_flow(_flow_array(_csv_rows(files[table])), values, **spec)
    if ok[0] and svg is not None:
        root = ET.fromstring(files[svg])
        lines = [el for el in root.iter() if el.tag.endswith("polyline")]
        if not root.tag.endswith("svg") or len(lines) != 1 \
                or len(lines[0].get("points").split()) != spec["n_nodes"]:
            return False, math.inf, "SVG does not hold one polyline of every node"
    return ok


@_cli
def check_cli_recursion(files, values, table, step):
    arr = _flow_array(_csv_rows(files[table]))
    g, gam = arr[:, 1], arr[:, 2]
    quad = np.abs(g[1:] ** 2 - g[:-1] * g[1:] + gam[1:] ** 2) / np.abs(g[1:]) ** 2
    fixed = np.abs(gam[1:] - gam[:-1] - gam[1:] ** 2 * gam[:-1] / g[1:]) / np.abs(gam[1:])
    dtau = np.abs(np.diff(arr[:, 0]) - step)
    return _verdict(max(quad.max(), fixed.max(), dtau.max()), FLOW_TOL,
                    "implicit step equations")


@_cli
def check_cli_one_loop(files, values, table, C):
    rows = _csv_rows(files[table])
    gam = np.array([float(r["Re gamma"]) for r in rows])
    g_inv = np.array([float(r["Re g_inv"]) for r in rows])
    inv = np.array([float(r["invariant"]) for r in rows])
    closed = 1.5 * gam ** 1.5 * (C + 2.0 * np.sqrt(gam))   # (2/3) g = 2 gam^2 + C gam^1.5
    err = max(float(np.max(np.abs(inv - C))) / max(1.0, abs(C)),
              float(np.max(np.abs(g_inv - closed) / np.abs(closed))))
    return _verdict(err, FLOW_TOL, "invariant and closed-form level set")


def continued_fraction(g0, taus, depth):
    """Two-level Jacobi continued fraction with the Gaussian vertex."""
    L = len(taus)
    R = lambda a, b: math.exp(-0.5 * (a * a + b * b))  # noqa: E731
    work = [complex(g0)] * L
    for _ in range(depth):
        tilde = []
        for n in range(L):
            m = (n + 1) % L
            inner = work[n] + R(taus[n], taus[n]) - R(taus[n], taus[m]) ** 2 / (
                work[m] + R(taus[m], taus[m]))
            tilde.append(inner - R(taus[n], taus[m]) ** 2 / inner)
        work = tilde[1:] + tilde[:1]
    return tilde


@_cli
def check_cli_cf_rg(files, values, table, sites, tau_max, depth, g0):
    rows = _csv_rows(files[table])
    got = np.array([complex(float(r["Re g_inv"]), float(r["Im g_inv"])) for r in rows])
    ref = np.array(continued_fraction(g0, list(np.linspace(0.0, tau_max, sites)), depth))
    return _verdict(_node_error(got, ref), 1e-12, "recomputed continued fraction")


@_cli
def check_cli_pole(files, values, table, g0, diverges):
    rows = _csv_rows(files[table])
    marked = rows[-1]["invariant"] == "diverged"
    if marked != diverges:
        return False, math.inf, "divergence marker present" if marked else "no divergence marker"
    arr = _flow_array(rows[:-1] if marked else rows)
    err = pole_error(arr[:, 0], arr[:, 1], g0)
    if marked:
        err = max(err, abs(float(rows[-1]["Re tau"]) - 1.0 / g0) * g0)
    return _verdict(err, FLOW_TOL, "1/g against 1/g0 - tau, and tau* = 1/g0")


@_cli
def check_cli_bethe(files, values, doc, n, N, tol):
    out = strict_json(files[doc])
    roots = np.array([complex(r["re"], r["im"]) for r in out["roots"]])
    return check_bethe({"roots": roots}, values, n, N, tol)


@_cli
def check_cli_phase(files, values, table, fit, args):
    strict_json(files[fit])
    rows = _csv_rows(files[table])
    value = np.array([(float(r["N"]), float(r["scale"]), int(r["divergent"])) for r in rows])
    return check_phase_scan(value, values, args)


def _eval_reference(fn, kw):
    z = complex(kw.get("z_re", 0.0), kw.get("z_im", 0.0))
    if fn == "gamma_u":
        return mp_specfun("gamma_u", (complex(kw["s_re"], kw.get("s_im", 0.0)), z))
    if fn == "2f1":
        return mp.hyp2f1(kw["a"], kw["b"], kw["c"], z)
    if fn == "1f1":
        return mp.hyp1f1(kw["a"], kw["b"], z)
    if fn.startswith("bessel_"):
        return mp_specfun(fn, (kw["nu"], z))
    if fn == "erfi":
        return mp.erfi(kw["z_re"])
    return mp.bei(kw["nu"], kw["z_re"])


@_cli
def check_cli_eval(files, values, doc, fn, kw):
    out = strict_json(files[doc])
    got = complex(out["value"]["re"], out["value"]["im"])
    return _verdict(_rel(got, _eval_reference(fn, kw)), SPECFUN_TOL, f"eval {fn} against mpmath")


@_cli
def check_cli_oscillator(files, values, table, N, gamma, E, n_max):
    rows = _csv_rows(files[table])
    c = np.array([complex(float(r["Re c"]), float(r["Im c"])) for r in rows])
    return check_frobenius(c, values, N, gamma, E, n_max)


@_cli
def check_cli_wetterich(files, values, doc, omega, Lambda):
    energy = strict_json(files[doc])["energy"]
    ref = omega / math.pi * math.atan(Lambda / omega)
    err = abs(complex(energy["re"], energy["im"]) - ref) / ref
    return _verdict(err, 1e-12, "energy against (omega/pi) atan(Lambda/omega)")


@_cli
def check_cli_cycle(files, values, doc, table):
    out = strict_json(files[doc])
    rows = _csv_rows(files[table])
    pts = [complex(float(r["Re g_inv"]), float(r["Im g_inv"])) for r in rows]
    pts = [z for z in pts if cmath.isfinite(z)]
    return check_detect(out, {"input": pts}, "input")


@_cli
def check_cli_echo(files, values, first, table):
    same = files[table] == values[first]["files"][table]
    return same, 0.0 if same else math.inf, "re-run from the echo is byte-identical"
