"""Exception types shared across the package."""


class MealoptError(Exception):
    """Base class for all library errors."""


class GammaTooLarge(MealoptError):
    """Proximal parameter gamma is not below 1/rho, so the prox may be set-valued."""


class AllZeroMatrix(MealoptError):
    """No eigenvalue clears the positive-rank threshold."""


class MissingMetadata(MealoptError):
    """A required constant (L_f, L_g, L_h, ...) was not declared."""

    def __init__(self, constant: str, detail: str = ""):
        self.constant = constant
        msg = f"missing metadata: {constant}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NonPositiveAlpha(MealoptError):
    """Target alpha must be positive."""


class PenaltyOutOfRange(MealoptError):
    """beta or gamma puts the penalty calculus outside floating-point range."""


class NotComposite(MealoptError):
    """Operation requires a composite objective (smooth part present)."""


class NonFiniteValue(MealoptError, ValueError):
    """An iterate or a prox input is not finite; `run` ends with status NonFinite."""


class WindowTooShort(MealoptError):
    """Lyapunov values need at least one predecessor state (k >= 1)."""


class InvalidSubproblemPath(MealoptError):
    """The selected subproblem solver does not apply to this problem."""


class SubproblemNonconvexUnsupported(MealoptError):
    """Global minimization of a nonconvex subproblem is outside the oracle's reach."""


class RangeTooSmall(MealoptError):
    """Grid search argmin landed on the boundary of the search interval."""


class InsufficientData(MealoptError):
    """Not enough positive samples to fit a rate."""


class SchemaError(MealoptError):
    """Problem or trace file violates the documented schema."""

    def __init__(self, field: str, detail: str):
        self.field = field
        super().__init__(f"schema error at {field}: {detail}")
