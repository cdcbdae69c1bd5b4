"""Exception hierarchy shared by all modules.

Every error names the violated invariant; the CLI maps HeightsError
subclasses to exit code 2 (validation) or 3 (numeric failure).
"""


class HeightsError(Exception):
    """Base class for all library errors."""


class ValidationError(HeightsError):
    """Bad input data or violated structural invariant (CLI exit 2)."""


class NumericError(HeightsError):
    """Numerical failure during evaluation (CLI exit 3)."""


def _int_text(k: int) -> str:
    """str(k), or its size where str() refuses it (over 4300 digits)."""
    try:
        return str(k)
    except ValueError:
        return f"an integer of {k.bit_length()} bits"


def _check_limit(what: str, value: int, cap: int) -> None:
    """The one size limit, checked before anything of that size is made."""
    if value > cap:
        raise ValidationError(
            f"{what} = {_int_text(value)} is over the limit of {cap}")


class NonPrimeLabel(ValidationError):
    pass


class MissingClass(ValidationError):
    pass


class GenericFiberMismatch(ValidationError):
    pass


class IncompleteJointForm(ValidationError):
    pass


class UnknownPrime(ValidationError):
    pass


class UnknownComponent(ValidationError):
    pass


class ZeroCoverDegree(ValidationError):
    pass


class ZeroSelfIntersection(ValidationError):
    pass


class MissingGenericDegree(ValidationError):
    pass


class NegativeArchTerm(ValidationError):
    pass


class NonKahler(NumericError):
    pass


class GeometryMismatch(ValidationError):
    pass


class ArityMismatch(ValidationError):
    pass


class UnsupportedFamily(ValidationError):
    pass


class NonPositiveDefinite(NumericError):
    pass


class ConventionMismatch(ValidationError):
    pass


class CoprimalityViolated(ValidationError):
    pass


class OutsideCone(ValidationError):
    pass


class NonMinimalModel(ValidationError):
    pass


class BadTau(ValidationError):
    pass


class DuplicatePrime(ValidationError):
    pass
