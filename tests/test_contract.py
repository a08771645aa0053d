"""Library contract fuzz: a public call returns a finite value or raises a
typed `CflowError`, never a bare Python error, a nan or a hang.

Scoped to the functions whose results go through `errors._finite`: Bessel
and bei, the Riccati solutions and the quasi-momentum, and the integrator.
"""
import cmath

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cflow import bethe, integrate, specfun
from cflow.errors import CflowError
from conftest import FUZZ_FLOATS

_COMPLEX = st.builds(complex, FUZZ_FLOATS, FUZZ_FLOATS)
_BRANCH = st.sampled_from(["zeta_pos", "zeta_neg"])


def _riccati(fn):
    def call(x, q, zeta, a, branch):
        return fn(x, bethe.RiccatiParams(q, zeta, a), branch)
    return call


def _quasi_momentum(x, roots, q, zeta, branch):
    return bethe.quasi_momentum(x, bethe.BetheRoots(roots, 1, 0.0),
                                bethe.RiccatiParams(q, zeta, 1.0), branch)


def _oscillation(t0, t1):
    """y' = i y from y(t0) = 1, at t1."""
    return integrate.solve_rk4(lambda t, y: 1j * y, [t0, t1], 1.0)[-1]


_RICCATI_ARGS = (_COMPLEX, FUZZ_FLOATS, _COMPLEX, _COMPLEX, _BRANCH)
# name: (call, argument strategies)
_CALLS = {
    "bessel": (specfun.bessel,
               (st.sampled_from("JYIK"), FUZZ_FLOATS, _COMPLEX)),
    "kelvin_bei_complex": (specfun.kelvin_bei_complex, (FUZZ_FLOATS, _COMPLEX)),
    "riccati_u": (_riccati(bethe.riccati_u), _RICCATI_ARGS),
    "riccati_u_derivative": (_riccati(bethe.riccati_u_derivative),
                             _RICCATI_ARGS),
    "quasi_momentum": (_quasi_momentum,
                       (FUZZ_FLOATS, st.lists(_COMPLEX, min_size=1, max_size=3)
                        .map(tuple), FUZZ_FLOATS, _COMPLEX, _BRANCH)),
    "solve_rk4": (_oscillation, (_COMPLEX, _COMPLEX)),
}


@st.composite
def _calls(draw):
    name = draw(st.sampled_from(sorted(_CALLS)))
    return name, draw(st.tuples(*_CALLS[name][1]))


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(call=_calls())
@example(call=("bessel", ("J", 0.5, 1e22)))
@example(call=("bessel", ("J", 0.5, 1.43e22 + 4.55e22j)))
@example(call=("bessel", ("J", -0.975, 1.43e22 + 4.55e22j)))
@example(call=("bessel", ("Y", 200.0, 1.0)))
@example(call=("bessel", ("K", 1.0, 1.0 + 771.3234287776531j)))
@example(call=("kelvin_bei_complex", (0.0, 1000.0)))
@example(call=("kelvin_bei_complex", (1.5, 1e300)))
@example(call=("kelvin_bei_complex", (1.7976931348623157e308, 0.5 + 1e-300j)))
@example(call=("riccati_u", (1e-100, 0.05, 1e20, 1.0, "zeta_pos")))
@example(call=("riccati_u", (1e5, 100.0, 1.0, 1.0, "zeta_pos")))
@example(call=("riccati_u_derivative", (1e-300, 0.05, 1e-20, 1.0, "zeta_pos")))
@example(call=("quasi_momentum", (1000.0, (0j,), 1.0, 1.0, "zeta_pos")))
@example(call=("quasi_momentum", (1.7976931348623157e308, (1.7976931348623157e308j,),
                                   0.5, 1.0, "zeta_neg")))
@example(call=("quasi_momentum", (1.0, (0j, 1.7976931348623157e308 + 1.7976931348623157e308j),
                                   0.5, 1.0, "zeta_neg")))
@example(call=("solve_rk4", (0j, 1e11 + 0j)))
@example(call=("solve_rk4", (1.7976931348623155e308 + 1.7976931348623155e308j,
                              -5e-324 + 0j)))
def test_library_contract_fuzz(call, time_limit):
    name, args = call
    try:
        with time_limit(20.0):
            value = _CALLS[name][0](*args)
    except CflowError:
        return
    assert cmath.isfinite(value), (name, args, value)
