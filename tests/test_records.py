"""Contract of the package's frozen records.

Every record type must behave as the frozen dataclass it replaces: the
oracle for each is a dataclass built here with the same fields and
defaults, whose construction, ``repr``, ``==`` and ``hash`` the record must
reproduce.  Records also refuse assignment and deletion, validate at
construction, and survive pickle and copy.
"""
import copy
import dataclasses
import math
import pickle

import pytest

from cflow.analysis import CycleReport, PhasePoint, ThermalScales
from cflow.bethe import BetheRoots, RiccatiParams
from cflow.config import RunConfig
from cflow.errors import CollisionError, DimensionMismatch, DomainError
from cflow.oscillator import OscParams, SeriesSolution
from cflow.rgflow import FlowState, Trajectory, WetterichParams

_NO_DEFAULT = object()

# (type, field names, {field: default}, full positional args,
#  [(invalid args, exception raised at construction)])
_CASES = [
    (FlowState, ("tau", "g_inv", "gamma"), {}, (0j, 1.0, 0.5),
     [((math.nan, 1.0, 0.5), DomainError), ((0j, 1.0, complex(0, math.inf)), DomainError)]),
    (Trajectory, ("taus", "g_inv", "gamma"), {}, ((0j, 0.5j), (1.0, 0.9), (0.5, 0.6)),
     [(((), (), ()), DomainError), (((0j,), (1.0, 2.0), (0.5,)), DimensionMismatch),
      (((0j,), (math.nan,), (0.5,)), DomainError)]),
    (WetterichParams, ("omega", "Lambda", "gamma", "delta", "N"),
     {"gamma": 0.0, "delta": 0.0, "N": 1}, (1.0, 1000.0, 0.1, 0.2, 2),
     [((0.0, 1000.0), DomainError), ((1.0, 10.0, -0.1), DomainError),
      ((1.0, 10.0, 0.0, 0.0, 0), DomainError)]),
    (BetheRoots, ("roots", "N", "residual"), {}, ((1 + 0j, -1 + 0j), 1, 1e-13),
     [(((1 + 0j, 1 + 0j), 1, 0.0), CollisionError)]),
    (RiccatiParams, ("q", "zeta", "a"), {}, (1.5, 1 + 0j, 0.5j),
     [((0.0, 1 + 0j, 0.5j), DomainError)]),
    (OscParams, ("N", "gamma", "E"), {}, (1, 0.5, 1 + 0j),
     [((-1, 0.5, 1.0), DomainError), ((1, -0.5, 1.0), DomainError)]),
    (SeriesSolution, ("coeffs", "theta_const", "params"), {},
     ((1.0, 0.0, -0.5), 0j, OscParams(1, 0.5, 1.0)), []),
    (CycleReport, ("closed", "winding", "period_estimate", "min_return_distance",
                   "spiral_c", "spiral_residual"),
     {}, (False, 0, 63.0, 0.25, 1.5, 1e-3), []),
    (PhasePoint, ("N", "scale", "exponent_fit", "divergent"), {}, (2.5, 1.25, 2.0, True), []),
    (ThermalScales, ("n_b", "t_b", "tau", "complex_branch"), {}, (0.5 + 0j, -0.1j, 2.0, True), []),
    (RunConfig, ("subcommand", "params", "out_path"), {},
     ("flow", {"N": 2, "variant": "lr"}, "x.csv"), []),
]


def _reference(cls, names, defaults):
    """The frozen dataclass with the record's name, fields and defaults."""
    fields = []
    for name in names:
        default = defaults.get(name, _NO_DEFAULT)
        if default is _NO_DEFAULT:
            fields.append((name, object))
        else:
            fields.append((name, object, dataclasses.field(default=default)))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def _same_hash(rec, ref):
    try:
        want = hash(ref)
    except TypeError:  # a dict field: unhashable in both
        with pytest.raises(TypeError):
            hash(rec)
        return
    assert hash(rec) == want


@pytest.mark.parametrize("cls, names, defaults, args, invalid", _CASES,
                         ids=[case[0].__name__ for case in _CASES])
def test_record_contract(cls, names, defaults, args, invalid):
    ref_cls = _reference(cls, names, defaults)
    kwargs = dict(zip(names, args))

    # construction by position, by keyword, mixed, and with defaults
    rec = cls(*args)
    assert tuple(getattr(rec, n) for n in names) == args
    assert cls(**kwargs) == rec
    assert cls(*args[:1], **dict(list(kwargs.items())[1:])) == rec
    required = len(names) - len(defaults)
    short, ref_short = cls(*args[:required]), ref_cls(*args[:required])
    assert repr(short) == repr(ref_short)
    assert short == cls(*args[:required]) and short is not cls(*args[:required])
    for bad in (args + (None,), args[:required - 1]):
        with pytest.raises(TypeError):
            cls(*bad)
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args, unknown=1)

    # repr, == and hash as the dataclass gives them
    ref = ref_cls(*args)
    assert repr(rec) == repr(ref)
    assert rec == cls(*args) and not rec != cls(*args)
    assert rec != ref and rec != args
    _same_hash(rec, ref)
    _same_hash(short, ref_short)

    # validation at construction
    for bad, exc in invalid:
        with pytest.raises(exc):
            cls(*bad)
        with pytest.raises(exc):
            cls(**dict(zip(names, bad)))

    # frozen
    for name in names + ("other",):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert rec == cls(*args)

    # pickle and copy round trips
    for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(twin) is cls and twin == rec and repr(twin) == repr(rec)
