"""Command-line entry point.

Usage: ``cflow <subcommand> [--config FILE] [--key value ...] [--out PATH]
[--svg PATH]``.  Flags override config-file values.  Every run
writes its outputs plus a canonical config echo beside them, so a run can
be reproduced byte-for-byte from the echo alone; a run whose files would
share a path writes none.  `config` types each key and supplies the
defaults of the keys not given, so the runners read typed values.

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
                     parse_config, with_defaults)
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
# subcommand runners: each takes the params with defaults and the output
# path, writes the outputs and returns the exit code
# ---------------------------------------------------------------------------

def _run_eval(p: dict, out: str) -> int:
    (fn,) = _need(p, "fn")
    z = complex(p["z_re"], p["z_im"])
    if fn == "gamma_u":
        val = specfun.upper_incomplete_gamma(complex(p["s_re"], p["s_im"]), z)
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
    _write_json(out, {"fn": fn, "value": _cnum(val)})
    return 0


def _run_oscillator(p: dict, out: str) -> int:
    from . import oscillator
    N, gamma = _need(p, "N", "gamma")
    E = complex(p["E_re"], p["E_im"])
    sol = oscillator.frobenius_coeffs(oscillator.OscParams(N, gamma, E),
                                      n_max=p["n_max"])
    lines = ["n,Re c,Im c"]
    for n, c in enumerate(sol.coeffs):
        c = complex(c)
        lines.append(f"{n},{_fmt(c.real)},{_fmt(c.imag)}")
    _write_text(out, "\n".join(lines) + "\n")
    return 0


def _run_bethe(p: dict, out: str) -> int:
    from . import bethe
    n, N = _need(p, "n", "N")
    roots = bethe.solve_bethe_roots(n, N, tol=p["tol"])
    _write_json(out, {
        "n": n, "N": N,
        "roots": [_cnum(r) for r in roots.roots],
        "residual": roots.residual,
    })
    return 0


def _flow_rows_recursion(p: dict):
    from . import rgflow
    state = rgflow.FlowState(0.0, complex(p["ginv0"]), complex(p["gamma0"]))
    step = p["step"]
    rows = [(0.0, state.tau, state.g_inv, state.gamma, math.nan)]
    arc = 0.0
    for _ in range(p["steps"]):
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
    grid = _linspace(p["gamma_start"], p["gamma_end"], p["n_points"])
    traj, invariants = rgflow.one_loop_invariant_flow(variant, grid, p["C"])
    return [(g - grid[0], tau, g_inv, gamma, inv) for g, tau, g_inv, gamma, inv
            in zip(grid, traj.taus, traj.g_inv, traj.gamma, invariants)], None


def _flow_rows_contour(p: dict, variant: str):
    from . import rgflow
    contour = rgflow.ray_contour(p["angle"], p["s_max"], p["n_points"])
    init = rgflow.FlowState(contour[0], complex(p["ginv0"]), complex(p["gamma0"]))
    arcs = [0.0]
    for ta, tb in zip(contour, contour[1:]):
        arcs.append(arcs[-1] + abs(tb - ta))
    try:
        if variant == "n-power":
            traj = rgflow.n_power_flow(init, p["N"], contour)
        else:
            traj = rgflow.lr_flow(init, p["N"], p["nu"], contour)
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
    sites = p["sites"]
    taus = _linspace(0.0, p["tau_max"], sites)
    g0 = [complex(p["ginv0"])] * sites
    vals = rgflow.continued_fraction_rg(g0, taus, p["depth"])
    return [(float(i), complex(t), complex(v), complex(math.nan, math.nan), math.nan)
            for i, (t, v) in enumerate(zip(taus, vals))], None


def _run_flow(p: dict, out: str) -> int:
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
    _write_text(out, "\n".join(lines) + "\n")
    if stop is None:
        return 0
    sys.stderr.write(f"cflow: diverged at tau* = {complex(rows[-1][1])}: {stop}\n")
    return 2


def _run_cycle(p: dict, out: str) -> int:
    from . import analysis, svg
    (path,) = _need(p, "input")
    pts = [complex(x, y) for x, y in svg._read_points(path)]
    report = analysis.detect_limit_cycle(pts, tol=p["tol"])
    _write_json(out, {
        "closed": report.closed,
        "winding": report.winding,
        "period_estimate": report.period_estimate,
        "min_return_distance": report.min_return_distance,
        "spiral_c": report.spiral_c,
        "spiral_residual": report.spiral_residual,
    })
    return 0


def _fit_path(out: str) -> str:
    return os.path.splitext(out)[0] + "_fit.json"


def _run_phase(p: dict, out: str) -> int:
    from . import analysis
    (N_list,) = _need(p, "N_list")
    points = analysis.phase_diagram_scan(
        N_list, p["gamma"], p["E0"], complex(p["k_re"], p["k_im"]), p["nu"],
        p["n_max"])
    exponent, r2, n_fit = analysis._integer_power_fit(
        [(pt.N, pt.scale, pt.divergent) for pt in points])
    lines = ["N,scale,exponent_fit,divergent"]
    for pt in points:
        efit = _fmt(pt.exponent_fit) if pt.exponent_fit is not None else ""
        lines.append(f"{_fmt(pt.N)},{_fmt(pt.scale)},{efit},"
                     f"{int(pt.divergent)}")
    _write_text(out, "\n".join(lines) + "\n")
    _write_json(_fit_path(out), {"exponent": exponent, "r_squared": r2,
                                 "points_fit": n_fit})
    return 0


def _run_wetterich(p: dict, out: str) -> int:
    from . import rgflow
    mode, omega, Lam = _need(p, "mode", "omega", "Lambda")
    params = rgflow.WetterichParams(omega=omega, Lambda=Lam,
                                    gamma=p["gamma"], delta=p["delta"])
    val = rgflow.wetterich_ground_energy(params, mode)
    _write_json(out, {"mode": mode, "energy": _cnum(val)})
    return 0


_RUNNERS = {
    "eval": _run_eval, "oscillator": _run_oscillator, "bethe": _run_bethe,
    "flow": _run_flow, "cycle": _run_cycle, "phase": _run_phase,
    "wetterich": _run_wetterich,
}


def run(config: RunConfig, svg_path: str | None = None) -> int:
    """Execute a validated configuration; writes outputs and the echo, once
    no two of those files share a path (ValidationError)."""
    out = config.out_path
    paths = {"output": out, "echo": echo_path(out), "svg": svg_path,
             "fit": _fit_path(out) if config.subcommand == "phase" else None}
    seen = {}
    for role, path in paths.items():
        if path is not None and seen.setdefault(os.path.abspath(path), role) != role:
            raise ValidationError(f"the {seen[os.path.abspath(path)]} and the {role} "
                                  f"would both be written to {path!r}", key="out")
    _write_text(paths["echo"], canonical_echo(config))
    code = _RUNNERS[config.subcommand](with_defaults(config), out)
    if svg_path is not None:
        from . import svg
        svg.render_svg(out, svg_path)
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
