"""The four benchmark workloads: seeded inputs, the jobs of one pass, warm-up.

A job is one call of a public cflow function, or one `cflow` process.  Its
`fn` is the timed part.  `norm` turns the return value into plain data
(numpy arrays, numbers, bytes) outside the timed region, and `check` names a
checker in `checks.py` with its arguments.  Checkers are looked up by name so
that scipy.integrate and mpmath are imported only after the timed passes.

The seed moves every input by a small relative amount (well inside one
evaluation branch), so each seed exercises the same code paths with the same
amount of work; the known-fault inputs of `specfun-grid` never move.
"""
from __future__ import annotations

import cmath
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("flow-contours", "bethe-roots", "specfun-grid", "cli-batch")

# flow-contours
ANGLES = (0.0, math.pi / 8, math.pi / 4)
FLOW_NS = (1, 2, 3)
SPARSE_NODES = 31
DENSE_NODES = 1201
DENSE_ANGLE = math.pi / 8
S_MAX = 1.2
LR_NU = 1.0
# initial (g_inv, gamma) per flow; lr from (1.0, 0.5) blows up on the real axis
INIT = {"n_power": (1.0, 0.5), "lr": (0.5, 0.3)}
BLOWUP_G0 = 0.8
# coupling-angle portrait seeds of scripts/cycle_survey.py
PORTRAIT_SEEDS = {1: (0.15 * cmath.exp(0.60j), 0.010),
                  2: (0.15 * cmath.exp(0.75j), 0.012),
                  3: (0.15 * cmath.exp(2.60j), 0.010),
                  4: (0.10 * cmath.exp(0.60j), 0.008)}
PORTRAIT_TOL = 5e-2

# bethe-roots
BETHE_SMALL = [(n, N) for n in (2, 3, 4) for N in (1, 2, 3)]
BETHE_LARGE = [(n, N) for n in (6, 8, 12, 16) for N in (1, 2)]
# seven copies put the median job well inside the n = 3 cluster, away from
# the gap to n = 4, so job_ms_p50 does not jump between clusters
BETHE_SMALL_COPIES = 7

# specfun-grid: (function, branch, args, spread) per evaluation branch.  Each
# base point is evaluated at SPECFUN_COPIES seeded draws: parameters move by
# 2e-3, the argument z by up to `spread` (in modulus and, for complex z, in
# phase) inside its branch region.  The spread makes call costs (series
# lengths) a continuum; with tight jitter every base point formed its own
# narrow cluster of times, and job_ms_p50 flipped between neighbouring
# clusters (0.24 spread over ten runs), in an order that changed with the
# host's speed.  inv_1mz and one_minus_z sit in narrow regions.
SPECFUN_COPIES = 8
SPECFUN_GRID = [
    ("hyp2f1", "direct", (0.3, 0.7, 1.9, 0.5 + 0.2j), 0.15),
    ("hyp2f1", "pfaff", (0.3, 0.7, 1.9, -1.5 + 0.1j), 0.15),
    ("hyp2f1", "inv_z", (0.3, 0.7, 1.9, 3.0 + 2.0j), 0.15),
    ("hyp2f1", "inv_1mz", (0.3, 0.7, 1.9, 0.4068 + 0.9026j), 2e-3),
    ("hyp2f1", "one_minus_z", (0.5, 1.5, 2.3, 0.95 + 0.3j), 2e-3),
    ("gamma_u", "series", (1.3 + 0.2j, 0.7 + 0.5j), 0.15),
    ("gamma_u", "cfrac", (0.8, 5.0 + 1.0j), 0.15),
    ("gamma_u", "recurrence", (-2.0, 0.8 + 0.3j), 0.15),
    ("bessel_j", "int", (0.0, 2.5 + 0.5j), 0.15),
    ("bessel_j", "frac", (1.3, 3.7 + 0.0j), 0.15),
    ("bessel_y", "int", (1.0, 2.2 + 0.0j), 0.15),
    ("bessel_y", "frac", (0.6, 1.9 + 0.4j), 0.15),
    ("bessel_i", "int", (2.0, 1.5 + 1.0j), 0.15),
    ("bessel_i", "frac", (0.4, 3.1 + 0.0j), 0.15),
    ("bessel_k", "int", (1.0, 1.8 + 0.0j), 0.15),
    ("bessel_k", "frac", (0.7, 2.4 + 0.3j), 0.15),
    ("kelvin_bei", "int", (0.0, 2.3), 0.15),
    ("kelvin_bei", "frac", (1.5, 4.1), 0.15),
    ("erfi", "pos", (1.7,), 0.15),
    ("erfi", "neg", (-0.8,), 0.15),
    ("pfq", "1f1", ((0.7,), (1.9,), 2.5 - 1.0j), 0.15),
    ("pfq", "1f4", ((0.6,), (1.2, 1.7, 2.1, 2.6), 1.5 + 0.5j), 0.15),
]
# Known faults: wrong answers or typed errors on today's code.  Their inputs
# do not depend on the seed, so each pass fails exactly these six.
SPECFUN_FAULTS = [
    ("bessel_j", "fault", (0.3, 40.0 + 0.0j)),
    ("bessel_y", "fault", (1.0, 40.0 + 0.0j)),
    ("bessel_k", "fault", (1.0, 25.0 + 0.0j)),
    ("gamma_u", "fault", (0.5, -30.0 + 0.0j)),
    ("gamma_u", "fault", (0.3, -40.0 + 1.0j)),
    ("hyp2f1", "fault", (0.3, 0.7, 1.9, cmath.exp(1j * math.pi / 3))),
]
SPECFUN_NAMES = ("hyp2f1", "gamma_u", "bessel_j", "bessel_y", "bessel_i",
                 "bessel_k", "kelvin_bei", "erfi", "pfq")
PHASE_SCAN_NS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 2.5)


@dataclass
class Job:
    id: str
    tag: str                       # group the per-layer metrics select on
    fn: Callable[[], object]       # the timed call
    check: tuple                   # (checker name in checks.py, kwargs)
    norm: Callable[[object], object] = lambda raw: raw
    known_fault: bool = False
    nodes: int = 0                 # output grid size, for per-node figures


class Raised(str):
    """Normalized output of a job that raised: "<type>: <message>"."""


@dataclass
class Workload:
    name: str
    jobs: list
    warm_up: Callable[[], None]
    workdir: str = None
    # raw return value of each job in the current pass, by job id; a job may
    # read the output of an earlier job of the same pass
    last: dict = field(default_factory=dict)

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _rng(seed, name):
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def _jit(rng, x, rel=2e-3):
    """x moved by a seeded relative amount of at most `rel`."""
    if isinstance(x, complex):
        return x * complex(1.0 + rng.uniform(-rel, rel), rng.uniform(-rel, rel))
    return float(x) * (1.0 + rng.uniform(-rel, rel))


def build(name, seed, root, in_process_cli=False):
    """The workload's jobs for `seed`; `root` is the repository checkout."""
    if name == "flow-contours":
        return _flow_contours(seed)
    if name == "bethe-roots":
        return _bethe_roots(seed)
    if name == "specfun-grid":
        return _specfun_grid(seed)
    if name == "cli-batch":
        return _cli_batch(seed, root, in_process_cli)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# flow-contours
# ---------------------------------------------------------------------------

def traj_array(traj):
    """Trajectory -> complex array with rows (tau, g_inv, gamma)."""
    return np.array([(st.tau, st.g_inv, st.gamma) for st in traj.states],
                    dtype=complex)


def _flow_contours(seed):
    from cflow import analysis, bethe, oscillator, rgflow
    from cflow.errors import BlowUp

    rng = _rng(seed, "flow-contours")
    jobs = []
    last = {}

    def contour_job(variant, N, angle, n_nodes, tag):
        g0, gam0 = (_jit(rng, v) for v in INIT[variant])
        contour = rgflow.ray_contour(angle, S_MAX, n_nodes)
        init = rgflow.FlowState(0.0, g0, gam0)
        if variant == "n_power":
            fn = lambda: rgflow.n_power_flow(init, N, contour)  # noqa: E731
        else:
            fn = lambda: rgflow.lr_flow(init, N, LR_NU, contour)  # noqa: E731
        spec = dict(variant=variant, N=N, nu=LR_NU, angle=angle, s_max=S_MAX,
                    n_nodes=n_nodes, y0=(g0, gam0))
        jobs.append(Job(f"{variant}.N{N}.{tag}.a{angle:.4f}", f"{variant}.{tag}", fn,
                        ("contour_flow", spec), traj_array, nodes=n_nodes))

    for variant in ("n_power", "lr"):
        for N in FLOW_NS:
            for angle in ANGLES:
                contour_job(variant, N, angle, SPARSE_NODES, "sparse")
    for variant in ("n_power", "lr"):
        for N in FLOW_NS:
            contour_job(variant, N, DENSE_ANGLE, DENSE_NODES, "dense")

    C = _jit(rng, 1.0)
    grid = np.linspace(0.1, 1.0, 64)
    jobs.append(Job("one_loop_v1", "one_loop_v1",
                    lambda: rgflow.one_loop_invariant_flow("separated_v1", grid, C),
                    ("one_loop_v1", dict(grid=grid, C=C)),
                    lambda out: {"traj": traj_array(out[0]),
                                 "inv": np.asarray(out[1], dtype=float)},
                    nodes=len(grid)))

    q2, beta = 1.5, 0.3
    radii = np.linspace(0.1, 1.5, 41)
    s_contour = [r * cmath.exp(1j * beta) for r in radii]
    chi0, xi0 = _jit(rng, 1.0 + 0.2j), 0.5 + 0.0j
    jobs.append(Job("gp_flow", "gp_flow",
                    lambda: bethe.gp_scaling_flow(q2, s_contour, chi0, xi0),
                    ("gp_flow", dict(q2=q2, beta=beta, radii=radii,
                                     chi0=chi0, xi0=xi0)),
                    traj_array, nodes=len(radii)))

    c1 = _jit(rng, 0.5)
    xs = np.linspace(0.0, 2.0, 41)
    jobs.append(Job("phase_ode", "phase_ode",
                    lambda: oscillator.unitary_phase_ode_solve(c1, xs),
                    ("phase_ode", dict(c1=c1, xs=xs)),
                    lambda out: np.array(out, dtype=complex), nodes=len(xs)))

    gb = _jit(rng, BLOWUP_G0)
    blow_contour = rgflow.ray_contour(0.0, 2.0, 41)
    twin_contour = rgflow.ray_contour(math.pi / 4, 2.0, 41)
    blow_init = rgflow.FlowState(0.0, gb, 0.0)

    def blowup():
        try:
            rgflow.n_power_flow(blow_init, 2, blow_contour)
        except BlowUp as exc:
            return {"tau_star": complex(exc.tau_star)}
        return {"tau_star": None}

    jobs.append(Job("blowup", "blowup", blowup, ("blowup", dict(g0=gb))))
    jobs.append(Job("blowup_twin", "blowup_twin",
                    lambda: rgflow.n_power_flow(blow_init, 2, twin_contour),
                    ("pole_twin", dict(g0=gb)), traj_array, nodes=41))

    for n, (z0, step) in PORTRAIT_SEEDS.items():
        jobs.append(Job(f"portrait.n{n}", "portrait",
                        lambda n=n, z0=z0, step=step:
                        analysis.coupling_angle_portrait(n, z0, step=step),
                        ("portrait", dict(n=n, step=step))))
        jobs.append(Job(f"detect.n{n}", "detect",
                        lambda n=n: analysis.detect_limit_cycle(
                            last[f"portrait.n{n}"], tol=PORTRAIT_TOL),
                        ("detect", dict(portrait=f"portrait.n{n}")),
                        _cycle_dict))

    def warm_up():
        init = rgflow.FlowState(0.0, *INIT["lr"])
        c = rgflow.ray_contour(DENSE_ANGLE, S_MAX, 5)
        rgflow.n_power_flow(init, 2, c)
        rgflow.lr_flow(init, 2, LR_NU, c)
        rgflow.one_loop_invariant_flow("separated_v1", grid[:4], C)
        bethe.gp_scaling_flow(q2, s_contour[:3], chi0, xi0)
        oscillator.unitary_phase_ode_solve(c1, xs[:3])
        pts = analysis.coupling_angle_portrait(1, *PORTRAIT_SEEDS[1])
        analysis.detect_limit_cycle(pts, tol=PORTRAIT_TOL)

    return Workload("flow-contours", jobs, warm_up, last=last)


def _cycle_dict(rep):
    return {"closed": rep.closed, "winding": rep.winding,
            "period_estimate": rep.period_estimate,
            "min_return_distance": rep.min_return_distance}


# ---------------------------------------------------------------------------
# bethe-roots
# ---------------------------------------------------------------------------

def _bethe_roots(seed):
    from cflow import bethe

    rng = _rng(seed, "bethe-roots")
    jobs = []
    systems = BETHE_SMALL * BETHE_SMALL_COPIES + BETHE_LARGE
    for i, (n, N) in enumerate(systems):
        tol = 1e-12 * (1.0 + rng.uniform(0.0, 1.0))
        jobs.append(Job(f"bethe.n{n}.N{N}.{i}", f"n{n}",
                        lambda n=n, N=N, tol=tol: bethe.solve_bethe_roots(n, N, tol=tol),
                        ("bethe", dict(n=n, N=N, tol=tol)),
                        lambda r: {"roots": np.array(r.roots, dtype=complex),
                                   "residual": float(r.residual)}))

    def warm_up():
        bethe.solve_bethe_roots(2, 1)
        bethe.solve_bethe_roots(3, 1)

    return Workload("bethe-roots", jobs, warm_up)


# ---------------------------------------------------------------------------
# specfun-grid
# ---------------------------------------------------------------------------

def specfun_call(fn, args):
    """The cflow call for one grid point: (function name, arguments)."""
    from cflow import specfun as sf

    if fn == "hyp2f1":
        return sf.hyp2f1(*args)
    if fn == "gamma_u":
        return sf.upper_incomplete_gamma(*args)
    if fn.startswith("bessel_"):
        return sf.bessel(fn[-1].upper(), *args)
    if fn == "kelvin_bei":
        return sf.kelvin_bei(*args)
    if fn == "erfi":
        return sf.erfi(*args)
    return sf.pfq(*args)


def _jitter_args(rng, fn, branch, args, spread):
    """Parameters moved by 2e-3, the argument z (always last) by `spread`."""
    if fn == "pfq":
        return (tuple(_jit(rng, a) for a in args[0]),
                tuple(_jit(rng, b) for b in args[1]), _jit(rng, args[2], spread))
    if (fn.startswith("bessel_") or fn == "kelvin_bei") and branch == "int":
        params = args[:-1]                       # integer order stays integer
    elif fn == "gamma_u" and branch == "recurrence":
        params = args[:-1]                       # s stays a negative integer
    else:
        params = tuple(_jit(rng, a) for a in args[:-1])
    return params + (_jit(rng, args[-1], spread),)


def _specfun_grid(seed):
    from cflow import analysis, oscillator, rgflow

    rng = _rng(seed, "specfun-grid")
    jobs = []
    points = [(fn, branch, _jitter_args(rng, fn, branch, args, spread), False)
              for _ in range(SPECFUN_COPIES)
              for fn, branch, args, spread in SPECFUN_GRID]
    points += [(fn, branch, args, True) for fn, branch, args in SPECFUN_FAULTS]
    for i, (fn, branch, args, fault) in enumerate(points):
        jobs.append(Job(f"{fn}.{branch}.{i}", f"sf.{fn}",
                        lambda fn=fn, args=args: specfun_call(fn, args),
                        ("specfun", dict(fn=fn, args=args)), complex,
                        known_fault=fault))

    scan_args = (PHASE_SCAN_NS, 0.5, 1.0, 1.0 + 0.0j, _jit(rng, 0.3), 256)
    jobs.append(Job("phase_scan", "phase_scan",
                    lambda: analysis.phase_diagram_scan(*scan_args),
                    ("phase_scan", dict(args=scan_args)),
                    lambda pts: np.array([(p.N, p.scale, p.divergent) for p in pts])))

    for i, (N, gam, E, t) in enumerate([(1, 0.5, 1.0 + 0.2j, 0.4 + 0.1j),
                                        (2, 0.4, 0.8 + 0.0j, 0.3 - 0.2j)]):
        params = oscillator.OscParams(N, _jit(rng, gam), _jit(rng, E))
        tt = _jit(rng, t)
        jobs.append(Job(f"theta_phase.{i}", "theta_phase",
                        lambda params=params, tt=tt: oscillator.theta_phase(params, tt),
                        ("theta_phase", dict(N=params.N, gamma=params.gamma,
                                             E=params.E, t=tt)), complex))

    for i, (w, k) in enumerate([(0.8, 1.0), (1.1, 0.7)]):
        w, k = _jit(rng, w), _jit(rng, k)
        jobs.append(Job(f"rho_omega.{i}", "rho_omega",
                        lambda w=w, k=k: oscillator.rho_omega(w, k),
                        ("rho_omega", dict(omega=w, k=k)), complex))

    for i, (N, gam, E, n_max) in enumerate([(1, 0.5, 1.0 + 0.1j, 20),
                                            (2, 0.3, 0.7 + 0.0j, 24)]):
        params = oscillator.OscParams(N, _jit(rng, gam), _jit(rng, E))
        jobs.append(Job(f"frobenius.{i}", "frobenius",
                        lambda params=params, n_max=n_max:
                        oscillator.frobenius_coeffs(params, n_max=n_max),
                        ("frobenius", dict(N=N, gamma=params.gamma, E=params.E,
                                           n_max=n_max)),
                        lambda sol: np.array(sol.coeffs, dtype=complex)))

    # log_action(g_inv, gamma, N=1, nu) has w = -i g_inv sin(nu) / gamma; pick
    # g_inv so that w lands on the series side and on the arc-quadrature side
    # (Re w > 0.9, |Im w| < 0.6) of rgflow._tail.
    for side, w in (("series", 0.4 + 0.3j), ("arc", 1.3 + 0.2j)):
        nu, gam = _jit(rng, 0.9), 0.6
        g_inv = 1j * _jit(rng, w) * gam / math.sin(nu)
        jobs.append(Job(f"log_action.{side}", f"log_action.{side}",
                        lambda g_inv=g_inv, gam=gam, nu=nu:
                        rgflow.log_action(g_inv, gam, 1, nu),
                        ("log_action", dict(g_inv=g_inv, gamma=gam, N=1, nu=nu)),
                        complex))

    def warm_up():
        for fn, _, args, _ in SPECFUN_GRID:
            specfun_call(fn, args)
        analysis.phase_diagram_scan(*scan_args)
        oscillator.theta_phase(oscillator.OscParams(1, 0.5, 1.0), 0.4)
        oscillator.rho_omega(0.8, 1.0)
        oscillator.frobenius_coeffs(oscillator.OscParams(1, 0.5, 1.0), n_max=8)
        rgflow.log_action(0.5j, 0.6, 1, 0.9)

    return Workload("specfun-grid", jobs, warm_up)


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------

def _fmt(x):
    return repr(float(x))


def cli_commands(rng):
    """(job id, argv, expected exit code, files written, check spec)."""
    g0, gam0 = (_jit(rng, v) for v in INIT["n_power"])
    g1, gam1 = (_jit(rng, v) for v in INIT["lr"])
    gb = _jit(rng, BLOWUP_G0)
    cmds = []

    def flow(jid, args, files, check, code=0):
        cmds.append((jid, ["flow"] + args, code, files, check))

    flow("flow.n_power", ["--variant", "n-power", "--N", "2", "--gamma0", _fmt(gam0),
                          "--ginv0", _fmt(g0), "--s_max", _fmt(S_MAX),
                          "--n_points", "121", "--angle", _fmt(math.pi / 8),
                          "--out", "npower.csv", "--svg", "npower.svg"],
         ["npower.csv", "npower.svg"],
         ("cli_contour", dict(variant="n_power", N=2, nu=LR_NU, angle=math.pi / 8,
                              s_max=S_MAX, n_nodes=121, y0=(g0, gam0),
                              table="npower.csv", svg="npower.svg")))
    flow("flow.lr", ["--variant", "lr", "--N", "2", "--nu", _fmt(LR_NU),
                     "--gamma0", _fmt(gam1), "--ginv0", _fmt(g1), "--s_max", _fmt(S_MAX),
                     "--n_points", "61", "--angle", _fmt(math.pi / 4), "--out", "lr.csv"],
         ["lr.csv"],
         ("cli_contour", dict(variant="lr", N=2, nu=LR_NU, angle=math.pi / 4,
                              s_max=S_MAX, n_nodes=61, y0=(g1, gam1), table="lr.csv")))
    step = _jit(rng, 0.05)
    flow("flow.tau_recursion", ["--variant", "tau-recursion", "--gamma0", _fmt(gam0),
                                "--ginv0", "1.0", "--steps", "20", "--step", _fmt(step),
                                "--out", "recursion.csv"],
         ["recursion.csv"], ("cli_recursion", dict(table="recursion.csv", step=step)))
    C = _jit(rng, 1.0)
    flow("flow.one_loop_v1", ["--variant", "one-loop-v1", "--n_points", "64",
                              "--gamma_start", "0.1", "--gamma_end", "1.0",
                              "--C", _fmt(C), "--out", "oneloop.csv"],
         ["oneloop.csv"], ("cli_one_loop", dict(table="oneloop.csv", C=C)))
    tau_max = _jit(rng, 2.0)
    flow("flow.cf_rg", ["--variant", "cf-rg", "--sites", "8", "--tau_max", _fmt(tau_max),
                        "--depth", "2", "--ginv0", "1.0", "--out", "cfrg.csv"],
         ["cfrg.csv"], ("cli_cf_rg", dict(table="cfrg.csv", sites=8, tau_max=tau_max,
                                          depth=2, g0=1.0)))
    blow = ["--variant", "n-power", "--N", "2", "--gamma0", "0", "--ginv0", _fmt(gb),
            "--s_max", "2.0", "--n_points", "41"]
    flow("flow.blowup", blow + ["--angle", "0", "--out", "blowup.csv"], ["blowup.csv"],
         ("cli_pole", dict(table="blowup.csv", g0=gb, diverges=True)), code=2)
    flow("flow.blowup_twin", blow + ["--angle", _fmt(math.pi / 4), "--out", "twin.csv"],
         ["twin.csv"], ("cli_pole", dict(table="twin.csv", g0=gb, diverges=False)))
    for n in (2, 6):
        cmds.append((f"bethe.n{n}", ["bethe", "--n", str(n), "--N", "1",
                                     "--out", f"bethe{n}.json"], 0, [f"bethe{n}.json"],
                     ("cli_bethe", dict(doc=f"bethe{n}.json", n=n, N=1, tol=1e-12))))
    nu = _jit(rng, 0.3)
    cmds.append(("phase", ["phase", "--N_list", "1,2,3,4,5,6", "--gamma", "0.5",
                           "--E0", "1.0", "--k_re", "1.0", "--nu", _fmt(nu),
                           "--out", "phase.csv"], 0, ["phase.csv", "phase_fit.json"],
                 ("cli_phase", dict(table="phase.csv", fit="phase_fit.json",
                                    args=((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), 0.5, 1.0,
                                          1.0 + 0.0j, nu, 256)))))
    evals = [("gamma_u", dict(s_re=1.3, s_im=0.2, z_re=0.7, z_im=0.5)),
             ("2f1", dict(a=0.3, b=0.7, c=1.9, z_re=0.5, z_im=0.2)),
             ("1f1", dict(a=0.7, b=1.9, z_re=2.5, z_im=-1.0)),
             ("bessel_j", dict(nu=1.3, z_re=3.7)),
             ("bessel_y", dict(nu=1.0, z_re=2.2)),
             ("bessel_i", dict(nu=0.4, z_re=3.1)),
             ("bessel_k", dict(nu=1.0, z_re=1.8)),
             ("erfi", dict(z_re=1.7)),
             ("kelvin_bei", dict(nu=0.0, z_re=2.3))]
    for fn, kw in evals:
        kw = {k: (v if k == "nu" and v == int(v) else _jit(rng, v)) for k, v in kw.items()}
        args = ["eval", "--fn", fn]
        for k, v in kw.items():
            args += [f"--{k}", _fmt(v)]
        cmds.append((f"eval.{fn}", args + ["--out", f"eval_{fn}.json"], 0,
                     [f"eval_{fn}.json"], ("cli_eval", dict(doc=f"eval_{fn}.json",
                                                           fn=fn, kw=kw))))
    gam, E = _jit(rng, 0.5), _jit(rng, 1.0)
    cmds.append(("oscillator", ["oscillator", "--N", "1", "--gamma", _fmt(gam),
                                "--E_re", _fmt(E), "--E_im", "0.1", "--n_max", "20",
                                "--out", "coeffs.csv"], 0, ["coeffs.csv"],
                 ("cli_oscillator", dict(table="coeffs.csv", N=1, gamma=gam,
                                         E=complex(E, 0.1), n_max=20))))
    omega = _jit(rng, 1.0)
    cmds.append(("wetterich", ["wetterich", "--mode", "real_osc", "--omega", _fmt(omega),
                               "--Lambda", "1000000.0", "--out", "energy.json"], 0,
                 ["energy.json"], ("cli_wetterich", dict(doc="energy.json", omega=omega,
                                                         Lambda=1e6))))
    cmds.append(("cycle", ["cycle", "--input", "cycle_in.csv", "--tol", "0.05",
                           "--out", "cycle.json"], 0, ["cycle.json", "cycle_in.csv"],
                 ("cli_cycle", dict(doc="cycle.json", table="cycle_in.csv"))))
    cfg = dict(variant="n-power", N="3", gamma0=_fmt(gam0), ginv0=_fmt(g0),
               angle=_fmt(math.pi / 8), s_max=_fmt(S_MAX), n_points="41",
               out="cfgrun.csv")
    cmds.append(("config.run", ["flow", "--config", "run.cfg"], 0, ["cfgrun.csv"],
                 ("cli_contour", dict(variant="n_power", N=3, nu=LR_NU, angle=math.pi / 8,
                                      s_max=S_MAX, n_nodes=41, y0=(g0, gam0),
                                      table="cfgrun.csv"))))
    cmds.append(("config.echo", ["flow", "--config", "cfgrun.config"], 0, ["cfgrun.csv"],
                 ("cli_echo", dict(first="config.run", table="cfgrun.csv"))))
    cycle_src = ["flow", "--variant", "lr", "--N", "1", "--nu", "1.0",
                 "--gamma0", _fmt(gam1), "--ginv0", _fmt(-g1),
                 "--angle", _fmt(math.pi / 4), "--s_max", "3.0", "--n_points", "81",
                 "--out", "cycle_in.csv"]
    return cmds, cfg, cycle_src


def _cli_batch(seed, root, in_process):
    rng = _rng(seed, "cli-batch")
    cmds, cfg, cycle_src = cli_commands(rng)
    workdir = os.path.join(root, "bench", "out", f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    def read_files(files):
        out = {}
        for f in files:
            path = os.path.join(workdir, f)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    out[f] = fh.read()
        return out

    def process(argv):
        # the environment (checkout sources, one BLAS thread) comes from run.py
        proc = subprocess.run([sys.executable, "-m", "cflow.cli"] + argv, cwd=workdir,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
        return proc.returncode

    if in_process:
        from cflow import cli
        os.chdir(workdir)
        runner = lambda argv: cli.main(argv)  # noqa: E731  (looked up per call)
    else:
        runner = process

    jobs = []
    for jid, argv, code, files, check in cmds:
        name, spec = check
        jobs.append(Job(jid, f"cli.{argv[0]}", lambda argv=argv: runner(argv),
                        (name, dict(spec, code=code)),
                        lambda rc, files=files: {"rc": rc, "files": read_files(files)}))

    def warm_up():
        # inputs written during set-up: the config file and the flow CSV the
        # cycle job reads; the second is one cold cflow process
        with open(os.path.join(workdir, "run.cfg"), "w", encoding="utf-8") as fh:
            fh.write("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        if process(cycle_src) != 0:
            raise RuntimeError("set-up flow for the cycle job failed")

    return Workload("cli-batch", jobs, warm_up, workdir=workdir)
