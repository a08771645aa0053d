"""Command-line entry point.

Usage: ``cflow <subcommand> [--config FILE] [--key value ...] [--out PATH]
[--svg PATH]``.  Flags override config-file values.  Every run
writes its outputs plus a canonical config echo beside them, so a run can
be reproduced byte-for-byte from the echo alone.

Exit codes: 0 success; 1 configuration or domain error; 2 the integration
diverged or failed to converge (partial results are still written, with a
divergence marker row).
"""
from __future__ import annotations

import math
import os
import sys

from . import specfun
from .config import (RunConfig, SUBCOMMANDS, canonical_echo, echo_path,
                     parse_config)
from .errors import (CflowError, FlowStopped, NoConvergence, Overflow,
                     ParseError, ValidationError)

_CSV_HEADER = ("s,Re tau,Im tau,Re g_inv,Im g_inv,"
               "Re gamma,Im gamma,invariant")


def _fmt(x) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    return repr(x)


def _csv_row(s, tau, g_inv, gamma, invariant) -> str:
    if isinstance(invariant, str):
        inv = invariant
    else:
        # invariants are real-valued; complex containers may carry a zero
        # imaginary part from the integrator
        inv = _fmt(complex(invariant).real)
    return ",".join([_fmt(s), _fmt(tau.real), _fmt(tau.imag),
                     _fmt(g_inv.real), _fmt(g_inv.imag),
                     _fmt(gamma.real), _fmt(gamma.imag), inv])


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: str, payload: dict) -> None:
    import json
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:  # NaN or infinity: not valid JSON
        raise Overflow(f"{path} not written: {exc}") from exc
    _write_text(path, text + "\n")


def _cnum(x) -> dict:
    z = complex(x)
    return {"re": z.real, "im": z.imag}


def _need(params: dict, *keys):
    for key in keys:
        if key not in params:
            raise ValidationError(f"missing required key {key!r}", key=key)
    return [params[k] for k in keys]


def _linspace(start: float, stop: float, n: int) -> list:
    """np.linspace(start, stop, n).tolist() for n >= 1, by np.linspace's own
    arithmetic, so the cold CLI path needs no array library."""
    delta = stop - start
    if n == 1:
        return [0.0 * delta + start]
    step = delta / (n - 1)
    if step == 0:  # np.linspace's branch for a subnormal step
        grid = [i / (n - 1) * delta + start for i in range(n)]
    else:
        grid = [i * step + start for i in range(n)]
    grid[-1] = stop
    return grid


# ---------------------------------------------------------------------------
# subcommand runners; each returns (exit_code, lines_or_payload)
# ---------------------------------------------------------------------------

def _run_eval(cfg: RunConfig) -> int:
    p = cfg.params
    (fn,) = _need(p, "fn")
    z = complex(p.get("z_re", 0.0), p.get("z_im", 0.0))
    if fn == "gamma_u":
        s = complex(p.get("s_re", 0.0), p.get("s_im", 0.0))
        val = specfun.upper_incomplete_gamma(s, z)
    elif fn == "2f1":
        a, b, c = _need(p, "a", "b", "c")
        val = specfun.hyp2f1(a, b, c, z)
    elif fn == "1f1":
        a, b = _need(p, "a", "b")
        val = specfun.pfq([a], [b], z)
    elif fn.startswith("bessel_"):
        (nu,) = _need(p, "nu")
        val = specfun.bessel(fn[len("bessel_"):], nu, z)
    elif z.imag != 0:  # erfi and kelvin_bei take a real argument
        raise ValidationError(f"{fn} takes a real argument; z_im must be 0",
                              key="z_im")
    elif fn == "erfi":
        val = complex(specfun.erfi(z.real))
    else:  # kelvin_bei
        (nu,) = _need(p, "nu")
        val = complex(specfun.kelvin_bei(nu, z.real))
    _write_json(cfg.out_path, {"fn": fn, "value": _cnum(val)})
    return 0


def _run_oscillator(cfg: RunConfig) -> int:
    from . import oscillator
    p = cfg.params
    N, gamma = _need(p, "N", "gamma")
    E = complex(p.get("E_re", 0.0), p.get("E_im", 0.0))
    n_max = int(p.get("n_max", 20))
    sol = oscillator.frobenius_coeffs(oscillator.OscParams(N, gamma, E),
                                      n_max=n_max)
    lines = ["n,Re c,Im c"]
    for n, c in enumerate(sol.coeffs):
        c = complex(c)
        lines.append(f"{n},{_fmt(c.real)},{_fmt(c.imag)}")
    _write_text(cfg.out_path, "\n".join(lines) + "\n")
    return 0


def _run_bethe(cfg: RunConfig) -> int:
    from . import bethe
    p = cfg.params
    n, N = _need(p, "n", "N")
    out = bethe.solve_bethe_roots(n, N, tol=p.get("tol", 1e-12))
    _write_json(cfg.out_path, {
        "n": n, "N": N,
        "roots": [_cnum(r) for r in out.roots],
        "residual": out.residual,
    })
    return 0


def _flow_rows_recursion(p: dict):
    from . import rgflow
    state = rgflow.FlowState(0.0, complex(p.get("ginv0", 1.0)),
                             complex(p.get("gamma0", 0.5)))
    steps = int(p.get("steps", 20))
    step = float(p.get("step", 1.0))
    rows = [(0.0, state.tau, state.g_inv, state.gamma, math.nan)]
    arc = 0.0
    for _ in range(steps):
        try:
            state = rgflow.tau_step_recursion(state, step=step)
        except (NoConvergence, Overflow) as exc:
            rows.append((arc + step, state.tau + step,
                         complex(math.nan, math.nan),
                         complex(math.nan, math.nan), "diverged"))
            return rows, exc
        arc += step
        rows.append((arc, state.tau, state.g_inv, state.gamma, math.nan))
    return rows, None


def _flow_rows_one_loop(p: dict, variant: str):
    from . import rgflow
    n_points = int(p.get("n_points", 64))
    g0 = float(p.get("gamma_start", 0.05))
    g1 = float(p.get("gamma_end", 0.5))
    grid = _linspace(g0, g1, n_points)
    traj, invariants = rgflow.one_loop_invariant_flow(
        variant, grid, float(p.get("C", 1.0)))
    return [(g - grid[0], tau, g_inv, gamma, inv) for g, tau, g_inv, gamma, inv
            in zip(grid, traj.taus, traj.g_inv, traj.gamma, invariants)], None


def _flow_rows_contour(p: dict, variant: str):
    from . import rgflow
    contour = rgflow.ray_contour(float(p.get("angle", 0.0)),
                                 float(p.get("s_max", 1.0)),
                                 int(p.get("n_points", 64)))
    init = rgflow.FlowState(contour[0], complex(p.get("ginv0", 1.0)),
                            complex(p.get("gamma0", 0.5)))
    N = int(p.get("N", 1))
    arcs = [0.0]
    for ta, tb in zip(contour, contour[1:]):
        arcs.append(arcs[-1] + abs(tb - ta))
    try:
        if variant == "n-power":
            traj = rgflow.n_power_flow(init, N, contour)
        else:
            traj = rgflow.lr_flow(init, N, float(p.get("nu", 1.0)), contour)
    except FlowStopped as exc:
        # keep every completed node, then mark where the flow stopped
        rows = [(arcs[k], contour[k], y[0], y[1], math.nan)
                for k, y in enumerate(exc.samples)]
        last = len(exc.samples) - 1
        rows.append((arcs[last] + abs(exc.tau_star - contour[last]), exc.tau_star,
                     complex(math.nan, math.nan),
                     complex(math.nan, math.nan), "diverged"))
        return rows, exc
    return [(arc, tau, g_inv, gamma, math.nan)
            for arc, tau, g_inv, gamma in zip(arcs, traj.taus, traj.g_inv, traj.gamma)], None


def _flow_rows_cf(p: dict):
    from . import rgflow
    sites = int(p.get("sites", 8))
    tau_max = float(p.get("tau_max", 2.0))
    taus = _linspace(0.0, tau_max, sites)
    g0 = [complex(p.get("ginv0", 1.0))] * sites
    vals = rgflow.continued_fraction_rg(g0, taus, int(p.get("depth", 2)))
    rows = []
    for i, (t, v) in enumerate(zip(taus, vals)):
        rows.append((float(i), complex(t), complex(v),
                     complex(math.nan, math.nan), math.nan))
    return rows, None


def _run_flow(cfg: RunConfig) -> int:
    p = cfg.params
    (variant,) = _need(p, "variant")
    # each builder returns its rows and, for a flow that stopped early, the
    # exception; the last row is then the divergence marker at tau*
    if variant == "tau-recursion":
        rows, stop = _flow_rows_recursion(p)
    elif variant in ("one-loop-v1", "one-loop-v2"):
        inner = {"one-loop-v1": "separated_v1",
                 "one-loop-v2": "appendix_v2"}[variant]
        rows, stop = _flow_rows_one_loop(p, inner)
    elif variant in ("n-power", "lr"):
        rows, stop = _flow_rows_contour(p, variant)
    else:
        rows, stop = _flow_rows_cf(p)
    lines = [_CSV_HEADER]
    for s, tau, g_inv, gamma, inv in rows:
        lines.append(_csv_row(s, complex(tau), complex(g_inv),
                              complex(gamma), inv))
    _write_text(cfg.out_path, "\n".join(lines) + "\n")
    if stop is None:
        return 0
    sys.stderr.write(f"cflow: diverged at tau* = {complex(rows[-1][1])}: {stop}\n")
    return 2


def _run_cycle(cfg: RunConfig) -> int:
    from . import analysis, svg
    p = cfg.params
    (path,) = _need(p, "input")
    pts = [complex(x, y) for x, y in svg._read_points(path)]
    report = analysis.detect_limit_cycle(pts, tol=p.get("tol", 1e-3))
    _write_json(cfg.out_path, {
        "closed": report.closed,
        "winding": report.winding,
        "period_estimate": report.period_estimate,
        "min_return_distance": report.min_return_distance,
        "spiral_c": report.spiral_c,
        "spiral_residual": report.spiral_residual,
    })
    return 0


def _run_phase(cfg: RunConfig) -> int:
    from . import analysis
    p = cfg.params
    (N_list,) = _need(p, "N_list")
    gamma = float(p.get("gamma", 0.5))
    E0 = float(p.get("E0", 1.0))
    k = complex(p.get("k_re", 1.0), p.get("k_im", 0.0))
    nu = float(p.get("nu", 1.0))
    n_max = int(p.get("n_max", 256))

    points = analysis.phase_diagram_scan(N_list, gamma, E0, k, nu, n_max)

    int_pts = [(pt.N, pt.scale) for pt in points
               if not pt.divergent and pt.scale > 0
               and abs(pt.N - round(pt.N)) < 1e-9]
    exponent = r2 = None
    if len(int_pts) >= 3:
        exponent, _, r2 = analysis.power_law_fit([q[0] for q in int_pts],
                                                 [q[1] for q in int_pts])
    lines = ["N,scale,exponent_fit,divergent"]
    for pt in points:
        efit = _fmt(pt.exponent_fit) if pt.exponent_fit is not None else ""
        lines.append(f"{_fmt(pt.N)},{_fmt(pt.scale)},{efit},"
                     f"{int(pt.divergent)}")
    _write_text(cfg.out_path, "\n".join(lines) + "\n")
    fit_path = os.path.splitext(cfg.out_path)[0] + "_fit.json"
    _write_json(fit_path, {"exponent": exponent, "r_squared": r2,
                           "points_fit": len(int_pts)})
    return 0


def _run_wetterich(cfg: RunConfig) -> int:
    from . import rgflow
    p = cfg.params
    mode, omega, Lam = _need(p, "mode", "omega", "Lambda")
    params = rgflow.WetterichParams(omega=omega, Lambda=Lam,
                                    gamma=p.get("gamma", 0.0),
                                    delta=p.get("delta", 0.0))
    val = rgflow.wetterich_ground_energy(params, mode)
    _write_json(cfg.out_path, {"mode": mode, "energy": _cnum(val)})
    return 0


_RUNNERS = {
    "eval": _run_eval, "oscillator": _run_oscillator, "bethe": _run_bethe,
    "flow": _run_flow, "cycle": _run_cycle, "phase": _run_phase,
    "wetterich": _run_wetterich,
}


def run(config: RunConfig, svg_path: str | None = None) -> int:
    """Execute a validated configuration; writes outputs and the echo."""
    _write_text(echo_path(config.out_path), canonical_echo(config))
    code = _RUNNERS[config.subcommand](config)
    if svg_path is not None:
        from . import svg
        svg.render_svg(config.out_path, svg_path)
    return code


def _parse_argv(argv):
    if not argv:
        raise ParseError("usage: cflow <subcommand> [--key value ...]",
                         line=0)
    sub = argv[0]
    if sub in ("-h", "--help"):
        return None, None, None, None
    if sub not in SUBCOMMANDS:
        raise ValidationError(f"unknown subcommand {sub!r}",
                              key="subcommand")
    config_file = None
    svg_path = None
    overrides = {}
    i = 1
    while i < len(argv):
        flag = argv[i]
        if not flag.startswith("--"):
            raise ParseError(f"expected --flag, got {flag!r}", line=0)
        if i + 1 >= len(argv):
            raise ParseError(f"flag {flag!r} needs a value", line=0)
        key, value = flag[2:], argv[i + 1]
        if key == "config":
            config_file = value
        elif key == "svg":
            svg_path = value
        else:
            overrides[key] = value
        i += 2
    return sub, config_file, overrides, svg_path


_USAGE = """usage: cflow <subcommand> [--config FILE] [--key value ...]
subcommands: """ + ", ".join(SUBCOMMANDS) + """
common flags: --out PATH   output file (echo written beside it)
              --svg PATH   render the CSV output as an SVG plot
"""


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        parsed = _parse_argv(list(argv))
        if parsed[0] is None:
            sys.stdout.write(_USAGE)
            return 0
        sub, config_file, overrides, svg_path = parsed
        config = parse_config(config_file, overrides, sub)
        return run(config, svg_path)
    except (NoConvergence, FlowStopped) as exc:
        sys.stderr.write(f"cflow: diverged: {exc}\n")
        return 2
    except (CflowError, OSError) as exc:
        sys.stderr.write(f"cflow: {exc}\n")
        return 1
    except OverflowError as exc:  # float arithmetic left the double range
        sys.stderr.write(f"cflow: overflow: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
