"""Parameter schemas, design spaces and their grid topology.

A design space is an ordered, finite collection of candidate
implementations (points). Every point is addressed by integer indices
into the enumeration of each parameter domain; searches that rely on
neighborhoods (hill climbing, frontier tracing) step to the points at
distance 1 in this index space, never in raw-value space, so that
power-of-two domains step uniformly: ``DesignSpace.neighbours`` gives a
point's L1 ring and ``Grid.ring`` a full grid's Chebyshev ring.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    EmptySpaceError,
    NoSuchConcern,
    NotAFullGrid,
    PointNotInSpace,
    SchemaError,
    finite,
)

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def check_name(name: str) -> str:
    """Validate a metric/parameter identifier and return it."""
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise SchemaError(f"invalid identifier: {name!r}")
    return name


def _frozen(name: str, value) -> float:
    if not finite(value):
        raise SchemaError(f"frozen param {name!r} must be a finite number, got {value!r}")
    return float(value)


def _is_metric_value(value) -> bool:
    return value is None or (isinstance(value, float) and math.isfinite(value))


# each domain kind's values, from its arguments
_DOMAINS = {
    "linear": lambda lo, hi: range(lo, hi + 1),
    "pow2": lambda lo_exp, hi_exp: [2**e for e in range(lo_exp, hi_exp + 1)],
    "enum": lambda *items: items,
}


@dataclass(frozen=True)
class Domain:
    """A parameter's value domain, ``{kind: list(args)}`` in a schema
    file; ``Linear``, ``Pow2`` and ``Enumerated`` build each kind. The
    arguments are integers, never truncated floats or bools."""

    kind: str
    args: tuple[int, ...]
    _values: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind, args = self.kind, self.args
        if kind not in _DOMAINS:
            raise SchemaError(f"domain kind must be one of {list(_DOMAINS)}, got {kind!r}")
        if not isinstance(args, (list, tuple)) or not all(type(a) is int for a in args):
            raise SchemaError(f"{kind} domain takes a list of integers, got {args!r}")
        if kind != "enum" and len(args) != 2:
            raise SchemaError(f"{kind} domain takes two integers, got {args!r}")
        if kind == "pow2" and args[0] < 0:
            raise SchemaError(f"pow2 domain requires lo_exp >= 0, got {args[0]}")
        values = tuple(_DOMAINS[kind](*args))
        if not values:
            raise SchemaError(f"{kind} domain {list(args)} enumerates no value")
        if len(set(values)) != len(values):
            raise SchemaError(f"enum domain has duplicate values: {values}")
        if not all(map(finite, values)):  # envs and frames hold each value as a float
            raise SchemaError(f"{kind} domain {list(args)} has a value too large for a float")
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "_values", values)

    def values(self) -> tuple[int, ...]:
        return self._values


def Linear(lo: int, hi: int) -> Domain:
    """Integer range domain enumerating lo, lo+1, ..., hi."""
    return Domain("linear", (lo, hi))


def Pow2(lo_exp: int, hi_exp: int) -> Domain:
    """Power-of-two domain enumerating 2^lo_exp ... 2^hi_exp."""
    return Domain("pow2", (lo_exp, hi_exp))


def Enumerated(items: Iterable[int]) -> Domain:
    """Explicit list of distinct integers, kept in declaration order."""
    return Domain("enum", tuple(items))


@dataclass(frozen=True)
class ParamSpec:
    """A named generation parameter: its value domain plus concern tags.

    Concern tags (e.g. "resource", "qos") mark which metric families a
    parameter influences; they are free-form strings compared
    case-sensitively, and may be empty.
    """

    name: str
    domain: Domain
    concerns: tuple[str, ...] = ()

    def __post_init__(self):
        check_name(self.name)
        tags = tuple(self.concerns)
        for tag in tags:
            if not isinstance(tag, str) or not tag:
                raise SchemaError(f"invalid concern tag {tag!r} on parameter {self.name!r}")
        if len(set(tags)) != len(tags):
            raise SchemaError(f"duplicate concern tags on parameter {self.name!r}")
        object.__setattr__(self, "concerns", tags)


@dataclass(frozen=True)
class Schema:
    """Ordered parameter specs, the parameters frozen out, and the metric names.

    Order is significant: it fixes coordinate order in points and the
    axes of the index grid. ``frozen`` holds the parameters dimension
    reduction removed as (name, raw value) pairs, each value a finite
    float, for every point of a space. ``metrics`` names the metric
    columns every point of a space holds values for, in production order.
    """

    params: tuple[ParamSpec, ...]
    frozen: tuple[tuple[str, float], ...] = ()
    metrics: tuple[str, ...] = ()

    def __init__(
        self,
        params: Iterable[ParamSpec],
        frozen: Iterable[tuple[str, float]] = (),
        metrics: Iterable[str] = (),
    ):
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "frozen", tuple((check_name(n), _frozen(n, v)) for n, v in frozen))
        object.__setattr__(self, "metrics", tuple(map(check_name, metrics)))
        names = [p.name for p in self.params] + [n for n, _ in self.frozen] + list(self.metrics)
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate names in schema: {names}")

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    @cached_property
    def floats(self) -> tuple[tuple[float, ...], ...]:
        """Each parameter's raw values as floats, built once per schema, so
        every env and frame row of a space shares one float per value."""
        return tuple(tuple(map(float, p.domain.values())) for p in self.params)

    @cached_property
    def frozen_env(self) -> dict[str, float]:
        """The frozen params by name; read it, never change it."""
        return dict(self.frozen)

    @cached_property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(p.domain.values()) for p in self.params)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Each axis's step in the grid's row-major order, the last axis
        fastest: coords c sit at index sum(c[k] * strides[k])."""
        cards = self.cardinalities
        return tuple(math.prod(cards[k + 1:]) for k in range(len(cards)))

    def concern_tags(self) -> tuple[str, ...]:
        """All concern tags in first-appearance order."""
        seen: dict[str, None] = {}
        for p in self.params:
            for tag in p.concerns:
                seen.setdefault(tag)
        return tuple(seen)

    def __len__(self) -> int:
        return len(self.params)


@dataclass(frozen=True, slots=True)
class Point:
    """One implementation candidate.

    ``coords`` are indices into each schema parameter's enumeration (in
    schema order), not raw values; they are the point's identity inside
    a space. ``metrics`` holds one value per name in the schema's
    ``metrics``, aligned with them, or None where the point was never
    evaluated. ``degraded`` marks points whose metrics were substituted
    by a worst-value policy.
    """

    coords: tuple[int, ...]
    metrics: tuple[float | None, ...] = ()
    degraded: bool = False

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        object.__setattr__(self, "metrics", tuple(self.metrics))


def _point(coords: tuple[int, ...], metrics: tuple, degraded: bool) -> Point:
    """``Point(coords, metrics, degraded)`` from values already in their
    final types, without ``__post_init__``: the hot paths build with it.
    The slots' own setters skip ``object.__setattr__``'s name lookup."""
    p = object.__new__(Point)
    _set_coords(p, coords)
    _set_metrics(p, metrics)
    _set_degraded(p, degraded)
    return p


_set_coords, _set_metrics, _set_degraded = (
    Point.coords.__set__, Point.metrics.__set__, Point.degraded.__set__
)


def _space(schema: Schema, points: tuple[Point, ...]) -> "DesignSpace":
    """``DesignSpace(schema, points)`` without the constructor's checks."""
    space = object.__new__(DesignSpace)
    object.__setattr__(space, "schema", schema)
    object.__setattr__(space, "points", points)
    return space


class Norm(Enum):
    L1 = "l1"  # Manhattan; a full grid's Chebyshev ring is ``Grid.ring``


class KeepSide(Enum):
    UPWARD = "upward"  # keep p when p >= q componentwise for some frontier q
    DOWNWARD = "downward"


@dataclass(frozen=True)
class DesignSpace:
    """An ordered finite collection of points sharing one schema.

    Order is significant: strategies may sort, and the head of the
    space is the hill-climbing start. No two points may share coords.
    The constructor checks every point against the schema (coords arity
    and range, one finite float or None per metric name, duplicate
    coords); ``derive`` does not.
    """

    schema: Schema
    points: tuple[Point, ...]

    def __init__(self, schema: Schema, points: Iterable[Point]):
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "points", tuple(points))
        cards = schema.cardinalities
        arity = len(schema.metrics)
        for p in self.points:
            if len(p.coords) != len(schema):
                raise SchemaError(
                    f"point has {len(p.coords)} coords, schema has {len(schema)} parameters"
                )
            for k, c in enumerate(p.coords):
                if not 0 <= c < cards[k]:
                    raise SchemaError(f"coordinate {c} out of range for axis {k}")
            if len(p.metrics) != arity or not all(map(_is_metric_value, p.metrics)):
                raise SchemaError(
                    f"point {p.coords} metrics {p.metrics!r} do not fit {schema.metrics}"
                )
        if len({p.coords for p in self.points}) != len(self.points):
            raise SchemaError("two points share their coords")

    def __len__(self) -> int:
        return len(self.points)

    def derive(self, points: Iterable[Point], schema: Schema | None = None) -> "DesignSpace":
        """``points`` on this space's schema, or on ``schema`` when a step
        adds metric names (``check_no_collision`` returns it), unchecked:
        each a distinct point of this space holding one value or None
        per metric name."""
        return _space(self.schema if schema is None else schema, tuple(points))

    @cached_property
    def _index(self) -> tuple[list[int], dict[int, int]]:
        # each point's row-major index, and the position of each index's point
        strides = self.schema.strides
        rows = [sum(map(operator.mul, p.coords, strides)) for p in self.points]
        return rows, dict(zip(rows, range(len(rows))))

    def raw_values(self, point: Point) -> tuple[int, ...]:
        """Raw (enumerated) parameter values of a point, in schema order."""
        return tuple(
            spec.domain.values()[c] for spec, c in zip(self.schema.params, point.coords)
        )

    def is_full_grid(self) -> bool:
        # the points hold distinct coords in range, so counting suffices
        return len(self.points) == math.prod(self.schema.cardinalities)

    def position(self, coords: tuple[int, ...]) -> int:
        """The position of the point holding ``coords``: their row-major
        index looked up in the space's index. Coords off the grid are
        refused, never taken for the point whose index they share."""
        cards = self.schema.cardinalities
        if len(coords) == len(cards) and all(0 <= c < n for c, n in zip(coords, cards)):
            at = self._index[1].get(sum(map(operator.mul, coords, self.schema.strides)))
            if at is not None:
                return at
        raise PointNotInSpace(f"point {coords} is not in the space")

    def neighbours(self, point: Point, norm: Norm) -> list[Point]:
        """Points at distance 1 of ``point`` in index space under ``norm``,
        ``Norm.L1`` being the one norm: one axis moved one step.

        Returned in the space's enumeration order. The ring's indices
        are worked out by stride arithmetic and looked up in the row-major
        index, so the cost follows the size of the ring, not of the space.
        """
        rows, slots = self._index
        me, ring = rows[self.position(point.coords)], []
        for c, n, stride in zip(point.coords, self.schema.cardinalities, self.schema.strides):
            ring += [me - stride] * (c > 0) + [me + stride] * (c < n - 1)
        # some indices may hold no point
        return [self.points[i] for i in sorted(slots[i] for i in ring if i in slots)]

    def diagonal(self) -> list[Point]:
        """The corner-to-corner diagonal of a full grid.

        Returns L+1 points where L = max_k(cardinality_k - 1); point t
        sits at round-half-up(t * (cardinality_k - 1) / L) on axis k.
        Consecutive points differ by at most 1 in every coordinate.
        """
        if not self.is_full_grid():
            raise NotAFullGrid("diagonal requires every coords combination to be present")
        cards, strides = self.schema.cardinalities, self.schema.strides
        span = max((c - 1 for c in cards), default=0)
        if span == 0:  # one point, with no parameter or every axis of one value
            return [self.points[0]]
        slots = self._index[1]
        # round half up with exact integer arithmetic
        at = [sum((2 * t * (c - 1) + span) // (2 * span) * s for c, s in zip(cards, strides))
              for t in range(span + 1)]
        return [self.points[slots[i]] for i in at]


class Grid:
    """A full grid as bitsets: bit i stands for the point whose row-major
    index is i.

    Built from the schema alone, so it sees no space and no order of
    points; every set it takes or gives holds row-major indices. Per
    axis it holds the bits a one-index step up (down) along the axis may
    land on: all but the axis's first (last) coordinate. ``ring`` and
    ``close`` shift a bitset along each axis under those masks, in
    O(axes) and O(axes x cardinality) big-integer operations, however
    many points.
    """

    def __init__(self, schema: Schema):
        size = math.prod(schema.cardinalities)
        self.axes = []  # per axis: cardinality, stride, up mask, down mask
        for n, stride in zip(schema.cardinalities, schema.strides):
            inner, repeat = "1" * (stride * (n - 1)), size // (stride * n)
            # character i of each string is bit i
            up, down = ("0" * stride + inner) * repeat, (inner + "0" * stride) * repeat
            self.axes.append((n, stride, int(up[::-1], 2), int(down[::-1], 2)))
        self.memo: list[int | None] = [None] * size

    def bits(self, indices: Iterable[int]) -> int:
        """The bits of ``indices``."""
        return sum({1 << i for i in indices})  # distinct bits: sum is OR

    def indices(self, bits: int) -> list[int]:
        """The indices of the bits set in ``bits``, ascending."""
        if not bits:
            return []
        # one scan of the bits from the lowest one set, where taking them
        # off one at a time would cost an operation as wide as the grid each
        low = (bits & -bits).bit_length() - 1
        flags, out = bin(bits >> low), []
        j, top = len(flags), low + len(flags) - 1  # character j is bit top - j
        while (j := flags.rfind("1", 0, j)) >= 0:
            out.append(top - j)
        return out

    def ring(self, index: int) -> int:
        """The Chebyshev ring of ``index``: the indices within one step of
        it on every axis, less itself, as bits. Its bit shifted one stride
        down and up along each axis in turn; each ring is built once."""
        ring = self.memo[index]
        if ring is None:
            me = bits = 1 << index
            for _, stride, up, down in self.axes:
                bits |= bits << stride & up | bits >> stride & down
            ring = self.memo[index] = bits ^ me
        return ring

    def close(self, bits: int, side: KeepSide) -> int:
        """``bits`` and every point at or above (``UPWARD``) or at or
        below (``DOWNWARD``) one of them, componentwise in index space:
        each axis in turn shifts the set into itself cardinality - 1 times."""
        upward = side is KeepSide.UPWARD
        for n, stride, up, down in self.axes:
            for _ in range(n - 1):
                bits |= bits << stride & up if upward else bits >> stride & down
        return bits


def order_masks(coords: Sequence[tuple[int, ...]]) -> tuple[list[int], list[int]]:
    """Componentwise order among distinct coords, as bitsets.

    Returns ``below`` and ``above``: bit j of ``below[i]`` (``above[i]``)
    is set when ``coords[j]`` is at or below (at or above) ``coords[i]``
    on every axis, so each holds bit i itself. Per axis it ORs the bits
    of each value into running masks: O(axes x len(coords)) big-integer
    operations, never a pairwise comparison.
    """
    full = (1 << len(coords)) - 1
    below, above = [full] * len(coords), [full] * len(coords)
    for axis in zip(*coords):
        at: dict[int, int] = {}
        for i, v in enumerate(axis):
            at[v] = at.get(v, 0) | 1 << i
        le, ge, run = {}, {}, 0
        for v in sorted(at):
            run |= at[v]
            le[v], ge[v] = run, full & ~run | at[v]
        below = [b & le[v] for b, v in zip(below, axis)]
        above = [a & ge[v] for a, v in zip(above, axis)]
    return below, above


def build_space(schema: Schema) -> DesignSpace:
    """Materialize the full Cartesian product of a schema.

    Points are enumerated in row-major order of the schema (the last
    parameter varies fastest). A schema that names a metric is refused,
    as its points would hold no value for it. Every coords is made here from the cardinalities, so nothing is re-checked.
    """
    if schema.metrics:
        raise SchemaError(f"build_space takes a schema with no metric, got {schema.metrics}")
    grid = itertools.product(*map(range, schema.cardinalities))
    return _space(schema, tuple(_point(c, (), False) for c in grid))


def project_space(space: DesignSpace, concern: str, project_to_min: bool = True) -> DesignSpace:
    """Project a space onto the parameters carrying ``concern``.

    The projected schema keeps those parameters, in schema order,
    freezes every removed one, after the space's own frozen params, at
    its domain's minimum raw value (maximum when ``project_to_min`` is
    false), and keeps the metric names. Each point moves to the coords
    of its image, its coords on the kept axes. Points are deduplicated
    on those coords, first occurrence winning, with relative order
    preserved.
    """
    return project_images(space, concern, project_to_min)[0]


def project_images(
    space: DesignSpace, concern: str, project_to_min: bool = True
) -> tuple[DesignSpace, Sequence[int]]:
    """``project_space``'s projection, plus the position in it of each
    input point's image, aligned with ``space.points``; quick_prune maps
    each position to its row-major index in the projected grid."""
    if not space.points:
        raise EmptySpaceError("cannot project an empty space")
    schema = space.schema
    keep = [i for i, p in enumerate(schema.params) if concern in p.concerns]
    if not keep:
        # equivalently, every dimension would be removed
        raise NoSuchConcern(f"no parameter carries concern {concern!r}")
    if len(keep) == len(schema):
        return space, range(len(space))
    pick = min if project_to_min else max
    frozen = schema.frozen + tuple(
        (p.name, float(pick(p.domain.values())))
        for i, p in enumerate(schema.params)
        if i not in keep
    )
    projected = Schema((schema.params[i] for i in keep), frozen, schema.metrics)
    image = operator.itemgetter(*keep)  # a tuple, or one int when one axis stays
    at: dict = {}  # image -> its position
    new_points, images = [], []
    for p in space.points:
        key = image(p.coords)
        i = at.get(key)
        if i is None:
            i = at[key] = len(new_points)
            new_points.append(_point(key if len(keep) > 1 else (key,), p.metrics, p.degraded))
        images.append(i)
    return _space(projected, tuple(new_points)), images
