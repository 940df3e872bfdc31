"""Exception types shared across the package."""

from __future__ import annotations

import sys
from enum import Enum
from functools import partial


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


REQUIRED = object()


class Reader:
    """One mapping of a run file, read key by key.

    ``where`` names the file or entry in messages, and ``path`` the key
    under which this mapping sits in it. Each ``read`` names a key the
    program uses and a converter that checks its value, placing at the
    key the ValueError or DsexError the converter raises; ``close`` then
    refuses every key that no read asked for, so a misspelt or retired
    key fails loudly instead of being ignored.
    """

    def __init__(self, data, where: str, path: str = ""):
        self.data, self.where, self.path, self.asked = data, where, path, {}
        if not isinstance(data, dict):
            raise ConfigError(f"{self.at()} must be a mapping, got {data!r}")

    def at(self, key=""):
        path = ".".join(str(part) for part in (self.path, key) if part != "")
        return f"{self.where}: {path!r}" if path else self.where

    def read(self, key, convert, default=REQUIRED):
        self.asked[key] = None
        if key not in self.data:
            if default is REQUIRED:
                raise ConfigError(f"{self.at(key)} is missing")
            return default
        value = self.data[key]
        try:
            return placed(self.at(key), convert, value)
        except ValueError as err:
            raise ConfigError(f"{self.at(key)} must be {err}, got {value!r}") from None

    def close(self) -> None:
        unknown = [key for key in self.data if key not in self.asked]
        if unknown:
            raise ConfigError(f"{self.at()}: unknown keys {unknown} (known: {list(self.asked)})")


def placed(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with any DsexError it raises placed at
    ``where``: the file, entry or key whose values it was given."""
    try:
        return build(*args, **kwargs)
    except DsexError as err:
        raise ConfigError(f"{where}: {err}") from None


def _converter(what: str, accepts, convert=None):
    """A converter for ``Reader.read``: the value, through ``convert`` if
    given, when ``accepts`` holds, and otherwise a ValueError naming
    ``what`` was expected."""

    def read(value):
        if not accepts(value):
            raise ValueError(what)
        return value if convert is None else convert(value)

    return read


def _scalar(value) -> bool:
    return isinstance(value, (str, int, float)) and not isinstance(value, bool)


def finite(value) -> bool:
    # False for NaN, inf and ints too large for a float
    return _scalar(value) and not isinstance(value, str) and abs(value) <= sys.float_info.max


def listed(convert):
    """A converter for a list, each item read through ``convert``."""

    def read(value):
        items = entries(value)
        try:
            return tuple(map(convert, items))
        except ValueError as err:
            raise ValueError(f"a list, each item {err}") from None

    return read


def choice(*options):
    """A converter to the option the value names: text names itself, an
    enum member its value, and anything else its ``name``."""
    table = {getattr(o, "value", getattr(o, "name", o)): o for o in options}
    return _converter(f"one of {list(table)}", lambda v: type(v) is str and v in table, table.get)


# a number is text too, so ``expr: 2`` reads as "2"; a lone string is not
# a list of text, so ``concerns: qos`` is refused rather than split
text = _converter("text", _scalar, str)
entries = _converter("a list", lambda v: isinstance(v, list))
texts = listed(text)
mapping = _converter("a mapping", lambda v: isinstance(v, dict))
integer = _converter("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
number = _converter("a finite number", finite, float)
positive = _converter("a positive finite number", lambda v: finite(v) and v > 0, float)
boolean = _converter("true or false", lambda v: isinstance(v, bool))


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

    def __reduce__(self):
        # Exception pickles as cls(*args), which would drop every field
        fields = {"coords": self.coords, "exit_code": self.exit_code, "name": self.name}
        return partial(type(self), **fields), (self.kind, self.detail)

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
