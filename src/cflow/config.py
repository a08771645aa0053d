"""Run configuration: plain-text key = value files, flag overrides, schema
validation, and a deterministic canonical echo for reproducible runs.

Config files hold one ``key = value`` pair per line; ``#`` starts a comment
and lists are comma-separated.  Flags override file values.  Every key must
belong to the schema of the selected subcommand, ``_SCHEMAS``, which alone
holds each key's type and default; every numeric value must be finite.  A
`RunConfig` and its echo hold the keys given, and `with_defaults` the rest.
"""
from __future__ import annotations

import math
import os

from .errors import ParseError, ValidationError, _Record

FLOW_VARIANTS = ("tau-recursion", "one-loop-v1", "one-loop-v2", "n-power",
                 "lr", "cf-rg")

# subcommand -> key -> (type tag, choices or default); type tags: choice,
# int, float, str, floats (comma list).  A choice key holds its choices and
# must be given; any other key holds its default, or None when it must be given
_SCHEMAS = {
    "eval": {
        "fn": ("choice", ("gamma_u", "2f1", "1f1", "bessel_j", "bessel_y",
                          "bessel_i", "bessel_k", "erfi", "kelvin_bei")),
        "a": ("float", None), "b": ("float", None), "c": ("float", None),
        "nu": ("float", None),
        "s_re": ("float", 0.0), "s_im": ("float", 0.0),
        "z_re": ("float", 0.0), "z_im": ("float", 0.0),
    },
    "oscillator": {
        "N": ("int", None), "gamma": ("float", None),
        "E_re": ("float", 0.0), "E_im": ("float", 0.0),
        "n_max": ("int", 20),
    },
    "bethe": {
        "n": ("int", None), "N": ("int", None), "tol": ("float", 1e-12),
    },
    "flow": {
        "variant": ("choice", FLOW_VARIANTS),
        "N": ("int", 1), "gamma0": ("float", 0.5),
        "ginv0": ("float", 1.0), "nu": ("float", 1.0),
        "C": ("float", 1.0), "angle": ("float", 0.0),
        "s_max": ("float", 1.0), "n_points": ("int", 64),
        "steps": ("int", 20), "step": ("float", 1.0),
        "depth": ("int", 2), "sites": ("int", 8),
        "tau_max": ("float", 2.0),
        "gamma_start": ("float", 0.05), "gamma_end": ("float", 0.5),
    },
    "cycle": {
        "input": ("str", None), "tol": ("float", 1e-3),
    },
    "phase": {
        "N_list": ("floats", None), "gamma": ("float", 0.5),
        "E0": ("float", 1.0), "k_re": ("float", 1.0),
        "k_im": ("float", 0.0), "nu": ("float", 1.0),
        "n_max": ("int", 256),
    },
    "wetterich": {
        "mode": ("choice", ("real_osc", "perturbed", "complex_osc")),
        "omega": ("float", None), "Lambda": ("float", None),
        "gamma": ("float", 0.0), "delta": ("float", 0.0),
    },
}

SUBCOMMANDS = tuple(_SCHEMAS)

# keys that must be non-negative when present
_NONNEGATIVE = {"N", "n", "gamma", "delta", "n_max", "depth"}
# keys that must be strictly positive when present
_POSITIVE = {"tol", "omega", "Lambda", "s_max", "n_points", "steps",
             "sites", "E0"}

_DEFAULT_OUT = {
    "eval": "eval.json", "oscillator": "coefficients.csv",
    "bethe": "roots.json", "flow": "trajectory.csv",
    "cycle": "cycle.json", "phase": "phase.csv",
    "wetterich": "energy.json",
}


class RunConfig(_Record):
    __slots__ = ("subcommand", "params", "out_path")


def _convert(sub: str, key: str, raw: str):
    schema = _SCHEMAS[sub]
    if key not in schema:
        raise ValidationError(f"unknown key {key!r} for {sub}", key=key)
    tag, choices = schema[key]  # choices only for a choice key
    raw = raw.strip()
    try:
        if tag == "int":
            val = int(raw)
        elif tag == "float":
            val = float(raw)
        elif tag == "floats":
            val = tuple(float(p) for p in raw.split(",") if p.strip() != "")
            if not val:
                raise ValueError("empty list")
        else:
            val = raw
    except ValueError:
        raise ValidationError(f"cannot parse {raw!r} for key {key!r}",
                              key=key) from None
    if tag == "choice" and val not in choices:
        raise ValidationError(f"{val!r} is not one of {choices}", key=key)
    nums = val if isinstance(val, tuple) else (
        (val,) if isinstance(val, (int, float)) else ())
    for v in nums:
        if not math.isfinite(v):
            raise ValidationError(f"non-finite value for key {key!r}", key=key)
    if key in _NONNEGATIVE and isinstance(val, (int, float)) and val < 0:
        raise ValidationError(f"key {key!r} must be non-negative", key=key)
    if key in _POSITIVE and isinstance(val, (int, float)) and val <= 0:
        raise ValidationError(f"key {key!r} must be positive", key=key)
    return val


def _read_file(path: str):
    """Raw key -> string map from a config file, with line diagnostics."""
    pairs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ParseError(f"line {lineno}: expected key = value",
                                 line=lineno)
            key, _, raw = body.partition("=")
            key = key.strip()
            if not key:
                raise ParseError(f"line {lineno}: empty key", line=lineno)
            pairs[key] = raw.strip()
    return pairs


def parse_config(path: str | None = None, overrides: dict | None = None,
                 subcommand: str | None = None) -> RunConfig:
    """Build a validated RunConfig from a file and/or flag overrides.

    ``overrides`` maps raw key strings to raw value strings and wins over
    the file.  The subcommand comes from the argument, the file, or an
    override (in increasing precedence for the raw sources, while the
    explicit argument must agree with any file value it accompanies).
    """
    raw = {}
    if path is not None:
        if not os.path.exists(path):
            raise ParseError(f"config file {path!r} does not exist", line=0)
        raw.update(_read_file(path))
    if overrides:
        for k, v in overrides.items():
            raw[str(k)] = str(v)

    sub = raw.pop("subcommand", None) or subcommand
    if subcommand is not None and sub != subcommand:
        raise ValidationError("subcommand mismatch between file and argument",
                              key="subcommand")
    if sub not in SUBCOMMANDS:
        raise ValidationError(f"unknown subcommand {sub!r}", key="subcommand")

    out_path = raw.pop("out", None) or _DEFAULT_OUT[sub]

    params = {k: _convert(sub, k, v) for k, v in raw.items()}
    return RunConfig(subcommand=sub, params=dict(sorted(params.items())),
                     out_path=out_path)


def with_defaults(config: RunConfig) -> dict:
    """The config's params laid over its subcommand's defaults."""
    schema = _SCHEMAS[config.subcommand]
    defaults = {k: d for k, (tag, d) in schema.items() if tag != "choice" and d is not None}
    return {**defaults, **config.params}


def canonical_echo(config: RunConfig) -> str:
    """Deterministic text form of a config; parsing it reproduces the config."""
    lines = [f"subcommand = {config.subcommand}",
             f"out = {config.out_path}"]
    for key in sorted(config.params):
        val = config.params[key]
        if isinstance(val, tuple):
            text = ",".join(repr(v) for v in val)
        else:
            text = repr(val) if isinstance(val, float) else str(val)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def echo_path(out_path: str) -> str:
    """Path of the canonical config echo written beside an output file."""
    base, _ = os.path.splitext(out_path)
    return base + ".config"
