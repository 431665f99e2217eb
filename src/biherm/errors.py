"""Exception hierarchy shared by all modules.

Each class corresponds to one refusal mode of the pipeline; the CLI maps
them onto its exit-code contract (see ``biherm.cli``).
"""


class BihermError(Exception):
    """Base class for all library errors."""


class GroupDataError(BihermError):
    """Malformed or inconsistent group-data document (parse-level failure)."""


class NotFinite(BihermError):
    """Closure of the given unitary generators exceeded the finiteness cap."""


class DegenerateForm(BihermError):
    """A 2-form that must be invertible is numerically singular."""


class SingularMetric(BihermError):
    """A metric that must be nondegenerate has vanishing determinant."""


class AmbiguousRadialTime(BihermError):
    """The radial-time equation has no certified unique root (non-monotone
    regime of the shear flow, or failed polish)."""


class NotPlurisubharmonic(BihermError):
    """The candidate potential fails positivity of its complex Hessian at a
    sample point.  For shear parameters this signals that |lambda| is too
    large; reduce it and rerun."""


class NotPositive(BihermError):
    """The deformed 2-form has a non-positive invariant part at the requested
    deformation time; pick a smaller time."""


class BeyondPrecision(BihermError):
    """Valid group data whose numerics leave double precision: a contraction
    multiplier too small for the potential and the quotient forms, or a
    diagonal flow whose dd^c f loses its positivity to roundoff."""


class StepSizeUnderflow(BihermError):
    """The adaptive integrator could not meet the error tolerance above the
    minimal step size."""


class ConstraintViolation(BihermError):
    """Input parameters violate a structural constraint of their family."""
