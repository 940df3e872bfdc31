"""Exception types shared across the package."""

from __future__ import annotations

from enum import Enum


class DsexError(Exception):
    """Base class for all errors raised by this package.

    ``provenance`` holds the per-step reports of a pipeline run when the
    error ended it, the failing step's included; otherwise None.
    """

    provenance = None


class SchemaError(DsexError):
    """A parameter schema or domain violates its invariants."""


class NoSuchConcern(DsexError):
    """No parameter in the schema carries the requested concern tag."""


class PointNotInSpace(DsexError):
    """The reference point is not a member of the design space."""


class NotAFullGrid(DsexError):
    """The operation requires every coordinate combination to be present."""


class EmptySpaceError(DsexError):
    """The operation requires a nonempty design space."""


class ExprSyntaxError(DsexError):
    """Malformed metric expression text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MetricCollision(DsexError):
    """A produced metric name is already a name of the schema."""


class ConfigError(DsexError):
    """A schema/pipeline/evaluator/manifest file is invalid."""


class EvalErrorKind(str, Enum):
    TIMEOUT = "timeout"
    TOOL_FAILURE = "tool_failure"
    PARSE_FAILURE = "parse_failure"
    NAME_NOT_FOUND = "name_not_found"
    DIV_BY_ZERO = "div_by_zero"
    TYPE_MISMATCH = "type_mismatch"
    NON_FINITE = "non_finite"


class EvalError(DsexError):
    """An evaluator failed to produce metrics for a point.

    Carries the failure kind, a human-readable detail string and, once
    attached by the evaluation machinery, the coordinates of the
    originating point.
    """

    def __init__(
        self,
        kind: EvalErrorKind,
        detail: str,
        *,
        coords: tuple[int, ...] | None = None,
        exit_code: int | None = None,
        name: str | None = None,
    ):
        super().__init__(f"{kind.value}: {detail}")
        self.kind = kind
        self.detail = detail
        self.coords = coords
        self.exit_code = exit_code
        self.name = name

    def at(self, coords: tuple[int, ...]) -> "EvalError":
        """Copy of this error tagged with the originating point's coords."""
        return EvalError(
            self.kind,
            self.detail,
            coords=coords,
            exit_code=self.exit_code,
            name=self.name,
        )


class PipelineAborted(DsexError):
    """A pipeline step failed under the abort policy.

    ``provenance`` holds the per-step reports up to the failing step.
    """

    def __init__(self, step: str, cause: EvalError, provenance=None):
        super().__init__(f"step '{step}' aborted: {cause}")
        self.step = step
        self.cause = cause
        self.provenance = provenance
