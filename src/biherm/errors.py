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
    """The Newton polish of the radial time failed to reach
    |log(G + 1)| <= ROOT_TOL at a point."""


class NotPlurisubharmonic(BihermError):
    """The candidate potential fails positivity of its complex Hessian at a
    sample point, or a shear flow is not transverse to S^3
    (|lambda / beta^m| >= |log|beta|| F_m), so that its radial time is not
    unique.  Either way |lambda| is too large; reduce it and rerun."""


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
