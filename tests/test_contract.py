"""Library contract fuzz: a public call returns a finite value or raises a
typed `CflowError`, never a bare Python error, a nan or a hang.

Scoped to every public function of `specfun` (a guard test keeps it so),
`kelvin_bei_complex`, the Riccati solutions and the quasi-momentum, and the
integrator.
"""
import cmath
import math

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
    """y' = i y from y(t0) = 1, at t1; nan when the call drops a node."""
    ys = integrate.solve_rk4(lambda t, y: 1j * y, [t0, t1], 1.0)
    return ys[1] if len(ys) == 2 else complex(math.nan)


_RICCATI_ARGS = (_COMPLEX, FUZZ_FLOATS, _COMPLEX, _COMPLEX, _BRANCH)
_PARAMETERS = st.lists(_COMPLEX, max_size=3)
# name: (call, argument strategies)
_CALLS = {
    "clog": (specfun.clog, (_COMPLEX,)),
    "cpow": (specfun.cpow, (_COMPLEX, _COMPLEX)),
    "gamma": (specfun.gamma, (_COMPLEX,)),
    "upper_incomplete_gamma": (specfun.upper_incomplete_gamma, (_COMPLEX, _COMPLEX)),
    "pfq": (specfun.pfq, (_PARAMETERS, _PARAMETERS, _COMPLEX)),
    "hyp2f1": (specfun.hyp2f1, (_COMPLEX,) * 4),
    "bessel": (specfun.bessel,
               (st.sampled_from("JYIK"), FUZZ_FLOATS, _COMPLEX)),
    "kelvin_bei": (specfun.kelvin_bei, (FUZZ_FLOATS, FUZZ_FLOATS)),
    "kelvin_bei_complex": (specfun.kelvin_bei_complex, (FUZZ_FLOATS, _COMPLEX)),
    "erfi": (specfun.erfi, (FUZZ_FLOATS,)),
    "poly_via_2f1": (specfun.poly_via_2f1, (_COMPLEX, st.integers())),
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
@example(call=("gamma", (0.3 + 300j,)))
@example(call=("clog", (0j,)))
@example(call=("cpow", (1e300 + 5.111317850372871e194j,
                         3.537180516245468e307 - 2.796378621109468e269j)))
@example(call=("upper_incomplete_gamma", (0.5 + 0j, -800 + 0j)))
@example(call=("upper_incomplete_gamma", (0.5 + 1e-320j,
                                          -1.9615922342466204e-167 + 1.2349283701235214e138j)))
@example(call=("hyp2f1", (-2.906651396267024e-104 - 3.7302500081294014e128j,
                          9.44071763370798 + 0j, 0.5 - 1.706910726701473j,
                          1.0068662475712443e141 - 1e300j)))
@example(call=("hyp2f1", (-6.172999671011832e-134 - 5e-324j, -1 - 1e300j,
                          1.0762718445019381 + 2.899534705557189j,
                          -5.998405098004823e223 + 1.5818466076644072e61j)))
@example(call=("hyp2f1", (-5.3506514816227726e303 - 2.1389020507396175e122j,
                          2.0427153380939416 - 1.1329508389490484e-89j, 2j,
                          1e-320 + 1e-300j)))
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
@example(call=("solve_rk4", (0j, complex(1.0, math.nan))))
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


def test_library_contract_fuzz_covers_specfun():
    # a new public special function cannot skip the fuzz
    assert set(specfun.__all__) <= set(_CALLS)
