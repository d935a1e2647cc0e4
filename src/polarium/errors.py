"""Error taxonomy shared by all modules, with CLI exit-code mapping."""

from __future__ import annotations


class PolariumError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"
    exit_status = 1


class InvalidArgumentError(PolariumError):
    code = "invalid-argument"


class UnsupportedFeatureError(PolariumError):
    code = "unsupported-feature"


class ResourceLimitError(PolariumError):
    code = "resource-limit"


class ArithmeticDomainError(PolariumError):
    code = "arithmetic-error"


class PrecisionError(PolariumError):
    code = "precision-error"


class FieldExtensionRequired(PolariumError):
    """The leading coefficient has no square root in the working cyclotomic field."""

    code = "field-extension-required"


class InternalInvariantViolation(PolariumError):
    """A structural guarantee failed; reported, never masked."""

    code = "internal-invariant-violation"
    exit_status = 3


# Exit status 2 is reserved for verification reports that contain violations;
# reports are values, not exceptions, so the CLI assigns it directly.
