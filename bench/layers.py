"""Per-layer metrics of one traced pass, from the tracer's spans and counters.

Each function returns {metric name: value}.  A metric whose spans are
missing (the wrapped function no longer exists) is left out, and the caller
reports it as absent.
"""
from __future__ import annotations

import math
import statistics

from workloads import SPECFUN_NAMES

SPECFUN_SPAN = {"hyp2f1": "hyp2f1", "gamma_u": "upper_incomplete_gamma",
                "bessel_j": "bessel", "bessel_y": "bessel", "bessel_i": "bessel",
                "bessel_k": "bessel", "kelvin_bei": "kelvin_bei", "erfi": "erfi",
                "pfq": "pfq"}


def _ids(wl, pred):
    return {job.id for job in wl.jobs if pred(job)}


def _mean(xs, scale):
    return statistics.fmean(xs) * scale if xs else None


def _sum_per(tr, name, ids, per, scale):
    xs = tr.durations(name, ids)
    return sum(xs) / per * scale if xs and per else None


def _count_per_node(tr, wl, ids, key):
    nodes = sum(job.nodes - 1 for job in wl.jobs if job.id in ids) * tr.passes
    if key == "calls":
        total = len(tr.durations("integrate.solve_rk4", ids))
    else:
        total = sum(tr.counts[i][key] for i in ids)
    return total / nodes if total else None


def _self_share(tr, layer):
    layers, total = tr.self_times()
    return layers[layer] / total if layer in layers else None


def flow_contours(wl, tr, values, verdicts):
    dense = _ids(wl, lambda j: j.tag.endswith(".dense"))
    sparse = _ids(wl, lambda j: j.tag.endswith(".sparse"))
    portraits = _ids(wl, lambda j: j.tag == "portrait")
    steps = sum(len(values[i]) - 1 for i in portraits if hasattr(values[i], "__len__"))
    out = {
        "integrate.calls_per_node": _count_per_node(tr, wl, dense, "calls"),
        "integrate.rhs_evals_per_node.dense": _count_per_node(tr, wl, dense, "rhs"),
        "integrate.rhs_evals_per_node.sparse": _count_per_node(tr, wl, sparse, "rhs"),
        "integrate.self_share": _self_share(tr, "integrate"),
        "rgflow.self_share": _self_share(tr, "rgflow"),
        "rgflow.one_loop_v1_ms": _mean(tr.durations("rgflow.one_loop_invariant_flow"), 1e3),
        "bethe.gp_flow_ms": _mean(tr.durations("bethe.gp_scaling_flow"), 1e3),
        "oscillator.phase_ode_ms": _mean(tr.durations("oscillator.unitary_phase_ode_solve"), 1e3),
        "analysis.portrait_us_per_step": _sum_per(
            tr, "analysis.coupling_angle_portrait", portraits, steps, 1e6),
        "analysis.detect_cycle_ms": _mean(tr.durations("analysis.detect_limit_cycle"), 1e3),
    }
    for variant, key in (("n_power", "n_power"), ("lr", "lr")):
        ids = _ids(wl, lambda j: j.tag == f"{variant}.dense")
        nodes = sum(job.nodes for job in wl.jobs if job.id in ids)
        out[f"rgflow.ms_per_1k_nodes.{key}"] = _sum_per(
            tr, f"rgflow.{variant}_flow", ids, nodes, 1e6)
    per_job = [tr.counts[job.id]["rhs"] / (job.nodes - 1) / tr.passes
               for job in wl.jobs if job.id in sparse]
    info = {"rhs_evals_per_node.sparse_range": [min(per_job), max(per_job)] if per_job else None}
    return out, info


def bethe_roots(wl, tr, values, verdicts):
    out = {}
    for n in (2, 3, 4, 8, 16):
        ids = _ids(wl, lambda j: j.tag == f"n{n}")
        out[f"bethe.solve_ms.n{n}"] = _mean(tr.durations("bethe.solve_bethe_roots", ids), 1e3)
        if n in (2, 3, 16):
            solves = [tr.counts[i]["linalg_solve"] / tr.passes for i in ids]
            out[f"bethe.linalg_solves.n{n}"] = _mean(solves, 1.0) if any(solves) else None
    ranges = {}
    for job in wl.jobs:
        ranges.setdefault(job.tag, set()).add(tr.counts[job.id]["linalg_solve"] / tr.passes)
    return out, {"linalg_solves_by_n": {k: sorted(v) for k, v in ranges.items()}}


def specfun_grid(wl, tr, values, verdicts):
    out = {}
    for fn in SPECFUN_NAMES:
        ids = _ids(wl, lambda j: j.tag == f"sf.{fn}" and not j.known_fault)
        out[f"specfun.us_per_call.{fn}"] = _mean(
            tr.durations(f"specfun.{SPECFUN_SPAN[fn]}", ids), 1e6)
        errs = [verdicts[i][1] for i in ids if math.isfinite(verdicts[i][1])]
        out[f"specfun.digits_min.{fn}"] = (-math.log10(max(max(errs), 1e-17))
                                           if errs else None)
    out["analysis.phase_scan_ms"] = _mean(tr.durations("analysis.phase_diagram_scan"), 1e3)
    out["oscillator.theta_phase_us"] = _mean(tr.durations("oscillator.theta_phase"), 1e6)
    out["oscillator.rho_omega_us"] = _mean(tr.durations("oscillator.rho_omega"), 1e6)
    out["oscillator.frobenius_ms"] = _mean(tr.durations("oscillator.frobenius_coeffs"), 1e3)
    for side in ("series", "arc"):
        ids = _ids(wl, lambda j: j.tag == f"log_action.{side}")
        out[f"rgflow.log_action_us.{side}"] = _mean(tr.durations("rgflow.log_action", ids), 1e6)
    return out, {}


def cli_batch(wl, tr, values, verdicts):
    out = {}
    for sub in ("flow", "bethe", "phase", "eval", "oscillator", "cycle", "wetterich"):
        ids = _ids(wl, lambda j: j.tag == f"cli.{sub}")
        out[f"cli.run_ms.{sub}"] = _mean(tr.durations("cli.main", ids), 1e3)
    out["config.parse_us"] = _mean(tr.durations("config.parse_config"), 1e6)
    out["svg.render_ms"] = _mean(tr.durations("svg.render_svg"), 1e3)
    return out, {}


BY_WORKLOAD = {"flow-contours": flow_contours, "bethe-roots": bethe_roots,
               "specfun-grid": specfun_grid, "cli-batch": cli_batch}
