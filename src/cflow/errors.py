"""Exception hierarchy shared by all numeric modules.

One rule covers results that leave the double range: a public function
returns a finite value or raises `Overflow`.  ``_finite(value, what)``
owns that rule: it hands back a finite value and raises
``Overflow("<what> leaves the double range")`` for inf or nan.  Every
module sends its non-finite-prone results through it rather than testing
``isfinite`` by hand.  ``_Record`` is the frozen base of every record type.
"""
import cmath


class CflowError(Exception):
    """Base class for every error raised by this package."""


class PoleError(CflowError):
    """Evaluation requested at a pole of the function."""


class NonConvergence(CflowError):
    """Series or continued fraction failed to converge within the term budget."""


class BranchCut(CflowError):
    """Evaluation requested exactly on a branch cut."""


class Overflow(CflowError):
    """Result exceeds the representable floating-point range."""


def _finite(value, what):
    """`value` if it is finite, else Overflow naming the quantity `what`."""
    if cmath.isfinite(value):
        return value
    raise Overflow(f"{what} leaves the double range")


class _Record:
    """Frozen record, as a frozen dataclass: fields in ``__slots__``, validation in ``_check``,
    trailing defaults in ``_defaults``, each shared by every instance (so immutable)."""

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        fields = dict(self._defaults)
        fields.update(**dict(zip(names, args)), **kwargs)  # a name given twice raises TypeError
        if len(args) > len(names) or fields.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, fields[name])
        self._check()

    def _check(self):
        pass

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")
    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


class DomainError(CflowError):
    """Input outside the real domain of the requested operation."""


class RangeError(CflowError):
    """Integer argument outside its allowed range."""


class SingularSystem(CflowError):
    """Truncated linear system for the series coefficients is rank deficient."""


class FlowStopped(CflowError):
    """Path integration stopped before the last node.

    ``tau_star`` is the flow parameter where it stopped and ``samples`` holds
    the solution at every node completed before it.
    """

    def __init__(self, message, tau_star=None, samples=None):
        super().__init__(message)
        self.tau_star = tau_star
        self.samples = samples


class StepSizeUnderflow(FlowStopped):
    """Adaptive integrator reduced the step below the representable minimum."""


class NoConvergence(CflowError):
    """Iterative solver exhausted its iteration budget."""


class CollisionError(CflowError):
    """Two roots approached within the collision threshold."""


class SingularFlow(CflowError):
    """Flow contour hit a singular point of the flow equation."""


class BranchCollision(CflowError):
    """Implicit recursion step degenerated (vanishing discriminant)."""


class BlowUp(FlowStopped):
    """Flow diverged at finite flow parameter ``tau_star``."""


class ExceptionalPoint(CflowError):
    """Correction formulas evaluated at the exceptional point g_inv = gamma**2."""


class DivisionByZero(CflowError):
    """A continued-fraction denominator vanished; carries (site, depth)."""

    def __init__(self, message, site=None, depth=None):
        super().__init__(message)
        self.site = site
        self.depth = depth


class DegenerateTrajectory(CflowError):
    """All trajectory points coincide; no cycle diagnostics possible."""


class DimensionMismatch(CflowError):
    """Vector/matrix dimensions are inconsistent."""


class ParseError(CflowError):
    """Config file could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class ValidationError(CflowError):
    """Config value violates an invariant; carries the offending key."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class SchemaError(CflowError):
    """CSV input does not match the documented column schema."""


class TruncationWarning(UserWarning):
    """Last retained series term is not negligible against the partial sum."""
