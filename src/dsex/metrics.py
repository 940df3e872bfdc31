"""Evaluator contract, memoizing cache, failure policies and transforms.

An evaluator turns a point into a fixed list of new named metrics (or
fails with an EvalError); an in-process one may also turn a whole batch
of points into columns of them. All evaluator invocations are routed
through a write-once cache keyed by (evaluator name, frozen params,
domain values, coords); stored failures are replayed on later lookups
so expensive timeouts are never retried. A batch whose cached results
leave only column forms to run is evaluated a column at a time on the
calling thread, so a fully cached batch costs one lookup per
evaluator; any other batch, or one where some point fails, point by
point, optionally in parallel, with results always reassembled in
point-index order so output never depends on completion timing.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Callable, Collection, Mapping, Sequence

from .errors import ConfigError, DsexError, EvalError, EvalErrorKind, MetricCollision, finite
from .expr import MetricExpr, numeric
from .space import DesignSpace, Point, Schema, _point, check_name


@dataclass(frozen=True)
class PointView:
    """A point bound to its schema, as seen by an evaluator.

    ``env`` maps every resolvable name to its value: parameters at raw
    values, the schema's frozen params and the point's metrics under the
    schema's metric names. A metric the point holds None for is absent,
    and so is every name past the values the point holds so far (an
    evaluator chain sees the output schema with the values produced
    before it).
    """

    schema: Schema
    point: Point

    @cached_property
    def env(self) -> dict[str, float]:
        schema = self.schema
        names = {*schema.names, *schema.frozen_env, *schema.metrics}
        return {name: col[0] for name, col in env_columns(schema, [self.point], names).items()}

    @property
    def coords(self) -> tuple[int, ...]:
        return self.point.coords


_coords, _metrics = attrgetter("coords"), attrgetter("metrics")


def env_columns(
    schema: Schema, points: Sequence[Point], names: Collection[str]
) -> dict[str, list[float]]:
    """Each of ``names`` that every point's ``PointView.env`` resolves,
    mapped to its values in point order: a metric some point holds None
    for, or holds no value for yet, is absent."""
    coords, metrics = list(map(_coords, points)), list(map(_metrics, points))
    env = {}
    for k, (name, floats) in enumerate(zip(schema.names, schema.floats)):
        if name in names:
            env[name] = list(map(floats.__getitem__, map(itemgetter(k), coords)))
    for name, value in schema.frozen:
        if name in names:
            env[name] = [value] * len(points)
    for j, name in enumerate(schema.metrics):
        if name in names:
            try:
                column = list(map(itemgetter(j), metrics))
            except IndexError:  # a point holds no value for it yet
                continue
            if None not in column:
                env[name] = column
    return env


@dataclass(frozen=True)
class Evaluator:
    """Produces a fixed set of named metrics for any point.

    ``func`` returns the metric values in ``produces`` order, or raises
    EvalError. Evaluators should be deterministic with respect to the
    point they see; results are cached per point, first result wins.
    An in-process evaluator may also have ``column_func``, its column
    form: given a schema and n points on it, the produced metrics'
    columns of n floats each, in ``produces`` order, which must equal
    what ``func`` returns point by point. When it raises EvalError, or
    returns a wrong arity, a non-number or a non-finite value, the batch
    is evaluated through ``func`` instead. A ``func`` that returns a
    non-number or a wrong arity is a ConfigError. The built-in in-process
    kinds derive ``func`` from ``column_func``, as its columns over one point.
    """

    name: str
    produces: tuple[str, ...]
    func: Callable[[PointView], Sequence[float]]
    column_func: Callable[[Schema, Sequence[Point]], Sequence[list[float]]] | None = None

    def __post_init__(self):
        check_name(self.name)
        object.__setattr__(self, "produces", tuple(self.produces))
        if not self.produces:
            raise ConfigError(f"evaluator {self.name!r} must produce at least one metric")
        for n in self.produces:
            check_name(n)
        if len(set(self.produces)) != len(self.produces):
            raise ConfigError(f"evaluator {self.name!r} has duplicate produced names")


class FailMode(Enum):
    ABORT = "abort"
    PRUNE = "prune"
    ASSIGN_WORST = "assign_worst"


@dataclass(frozen=True)
class FailPolicy:
    """What to do when an evaluator fails on a point.

    ABORT surfaces the first error (in point order). PRUNE drops the
    point. ASSIGN_WORST substitutes a configured per-metric worst value
    and tags the point as degraded; the worst value carries no inferred
    sign, it must be configured for every produced metric.
    """

    mode: FailMode = FailMode.ABORT
    worst: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.worst, Mapping) or not all(
            isinstance(k, str) and finite(v) for k, v in self.worst.items()
        ):
            raise ConfigError(
                f"worst values must map metric names to finite numbers, got {self.worst!r}"
            )
        object.__setattr__(self, "worst", dict(self.worst))

    def worst_value(self, metric: str) -> float:
        if metric not in self.worst:
            raise ConfigError(
                f"assign_worst policy has no worst value configured for metric {metric!r}"
            )
        return float(self.worst[metric])


ABORT = FailPolicy(FailMode.ABORT)


class Cache:
    """Write-once memo of evaluator results, including stored failures.

    One table per (evaluator name, the schema's frozen params, its
    parameters' raw values) holds the results by the coords tuple the
    point already carries, so schemas that differ in frozen values or
    in domains share no entry and an entry needs no key of its own.
    Hit/miss counters are exposed; a miss is counted per evaluator
    invocation. Safe under concurrent read/write; on a race the first
    stored result wins and later computations are discarded.
    """

    def __init__(self):
        self._tables: dict[tuple, dict[tuple[int, ...], object]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def run(self, evaluator: Evaluator, view: PointView) -> tuple[float, ...]:
        """Return the evaluator's metrics for the point, memoized.

        NaN or infinite values fail with a NON_FINITE EvalError; values
        that are not numbers, or not of the declared arity, are a
        ConfigError. Stored EvalErrors are re-raised on later lookups
        without re-invoking the evaluator.
        """
        coords = view.point.coords
        with self._lock:
            table = self._table(evaluator, view.schema)
            cached = table.get(coords)  # a stored entry is never None
            if cached is not None:
                self.hits += 1
                if isinstance(cached, EvalError):
                    raise cached
                return cached
            self.misses += 1
        try:
            returned = evaluator.func(view)
            try:
                values = tuple(map(float, returned))
            except (TypeError, ValueError):
                raise ConfigError(
                    f"evaluator {evaluator.name!r} returned {returned!r}, not numbers"
                ) from None
            if len(values) != len(evaluator.produces):
                raise ConfigError(
                    f"evaluator {evaluator.name!r} returned {len(values)} values, "
                    f"declared arity is {len(evaluator.produces)}"
                )
            if not all(map(math.isfinite, values)):
                raise EvalError(
                    EvalErrorKind.NON_FINITE,
                    f"evaluator {evaluator.name!r} returned "
                    f"{dict(zip(evaluator.produces, values))}",
                )
        except EvalError as err:
            values = err.at(coords) if err.coords is None else err
        with self._lock:  # first write wins; a racing computation is discarded
            stored = table.setdefault(coords, values)
        if isinstance(stored, EvalError):
            raise stored
        return stored

    def run_columns(
        self, evaluators: Sequence[Evaluator], schema: Schema, points: Sequence[Point]
    ) -> list[Point] | None:
        """The chain's enhanced points for a batch, one lookup per evaluator.

        Per evaluator, the batch is looked up in one table. When an
        evaluator with no column form lacks a result, or a stored failure
        is met, it returns None before it evaluates anything. Otherwise
        each evaluator evaluates the distinct coords it lacks as one
        column, converting each value with ``float``, and it returns None,
        having stored and counted nothing, unless every column holds
        finite numbers of its evaluator's arity.
        On None the per-point path raises, applies the fail policy and
        counts exactly as it does for any other batch. On success the
        counts are those of the per-point path run in order.
        """
        coords = list(map(_coords, points))
        with self._lock:
            tables = [self._table(ev, schema) for ev in evaluators]
        founds = [list(map(table.get, coords)) for table in tables]
        for ev, found in zip(evaluators, founds):
            kinds = set(map(type, found))
            # a stored failure, or a miss only the per-point path can fill
            if kinds - {tuple, type(None)} or (ev.column_func is None and type(None) in kinds):
                return None
        current = list(points)
        staged, hits = [], 0
        for ev, table, found in zip(evaluators, tables, founds):
            todo: dict[tuple, Point] = {}  # each missing coords' first point
            for c, p, stored in zip(coords, current, found):
                if stored is None:
                    todo.setdefault(c, p)
            hits += len(coords) - len(todo)
            new: dict[tuple, tuple[float, ...]] = {}
            if todo:
                first = list(todo.values())
                try:
                    columns = ev.column_func(schema, first)
                except EvalError:
                    return None
                try:
                    columns = [list(map(float, col)) for col in columns]
                except (TypeError, ValueError):  # a column holds a non-number
                    return None
                if len(columns) != len(ev.produces) or not all(
                    len(col) == len(first) and all(map(math.isfinite, col)) for col in columns
                ):
                    return None
                new = dict(zip(todo, zip(*columns)))
                staged.append((table, new))
            current = [
                _point(c, p.metrics + (stored or new[c]), p.degraded)
                for c, p, stored in zip(coords, current, found)
            ]
        with self._lock:
            for table, new in staged:
                self.misses += len(new)
                for c in new.keys() & table.keys():  # a racing first write wins
                    del new[c]
                table.update(new)
            self.hits += hits
        return current

    def _table(self, evaluator: Evaluator, schema: Schema) -> dict[tuple[int, ...], object]:
        """The evaluator's table for the schema; call it with the lock held."""
        return self._tables.setdefault((evaluator.name, schema.frozen, schema.floats), {})

    def counters(self) -> tuple[int, int]:
        with self._lock:
            return self.hits, self.misses


def enhance_point(
    point: Point,
    schema: Schema,
    evaluators: Sequence[Evaluator],
    cache: Cache,
    policy: FailPolicy = ABORT,
) -> Point | None:
    """Run a chain of evaluators over one point, applying the policy.

    ``schema`` is the output schema ``check_no_collision`` returns: the
    point's schema with the chain's produced names appended. Returns the
    point with the produced values appended, or None when the policy
    pruned it. Under ABORT the EvalError propagates. Nothing is
    re-checked here: ``Cache.run`` or ``FailPolicy`` checked the values.
    """
    current = point
    for ev in evaluators:
        degraded = False
        try:
            values = cache.run(ev, PointView(schema, current))
        except EvalError:
            if policy.mode is FailMode.PRUNE:
                return None
            if policy.mode is FailMode.ABORT:
                raise
            values, degraded = tuple(map(policy.worst_value, ev.produces)), True
        current = _point(current.coords, current.metrics + values, current.degraded or degraded)
    return current


def enhance_points(
    points: Sequence[Point],
    schema: Schema,
    evaluators: Sequence[Evaluator],
    cache: Cache,
    policy: FailPolicy = ABORT,
    parallelism: int = 1,
) -> list[Point | None]:
    """Batch form of enhance_point; output is aligned with the input.

    The batch first goes to ``Cache.run_columns`` on the calling thread,
    so a fully cached batch resolves with one lookup per evaluator,
    whatever its kind. When that declines, the batch runs point by
    point: at parallelism 1, or for a batch of one point, in order on
    the calling thread, stopping at its first failure; above that, the
    whole batch goes to the thread pool and is finished before the
    error of its earliest failing point in index order is raised (an
    EvalError under ABORT, or a ConfigError such as a wrong arity under
    any policy), never that of the first to complete.
    """
    if points:
        done = cache.run_columns(evaluators, schema, points)
        if done is not None:
            return done
    if parallelism <= 1 or len(points) <= 1:
        return [enhance_point(p, schema, evaluators, cache, policy) for p in points]

    def one(point: Point):
        try:
            return enhance_point(point, schema, evaluators, cache, policy)
        except DsexError as err:
            return err

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        results = list(pool.map(one, points))
    for r in results:
        if isinstance(r, DsexError):
            raise r
    return results


def check_no_collision(schema: Schema, evaluators: Sequence[Evaluator]) -> Schema:
    """The output schema of running ``evaluators`` on a space of ``schema``:
    its metric names extended by the produced ones, which must be new."""
    produced = tuple(n for ev in evaluators for n in ev.produces)
    clash = set(produced) & {*schema.names, *schema.frozen_env, *schema.metrics}
    if clash:
        raise MetricCollision(f"produced names already in the schema: {sorted(clash)}")
    return Schema(schema.params, schema.frozen, schema.metrics + produced)


def apply_transform(
    space: DesignSpace,
    evaluator: Evaluator,
    cache: Cache,
    policy: FailPolicy = ABORT,
    parallelism: int = 1,
) -> DesignSpace:
    """Enhance every point of a space with an evaluator's metrics.

    Point order is unchanged; failures are handled per the policy
    (pruned points are dropped, never reordered).
    """
    schema = check_no_collision(space.schema, [evaluator])
    results = enhance_points(space.points, schema, [evaluator], cache, policy, parallelism)
    return space.derive((p for p in results if p is not None), schema)


def expr_evaluator(name: str, produces: str, expression: str | MetricExpr) -> Evaluator:
    """Evaluator computing one metric from a cost expression."""
    expr = numeric(expression, f"cost expression for {produces!r}")

    def column_func(schema: Schema, points: Sequence[Point]) -> list[list[float]]:
        return [expr.column(env_columns(schema, points, expr.names), len(points))]

    # the one column over one point is the point's one value
    return Evaluator(name, (produces,), lambda v: column_func(v.schema, [v.point])[0], column_func)


def render_raw(value: float) -> str:
    """A raw value as tools and listings see it: integral values without
    a fractional part, others in full precision."""
    return str(int(value)) if float(value).is_integer() else repr(float(value))


@dataclass(frozen=True)
class CommandSpec:
    """How to launch an external metric tool for a point.

    ``argv`` and ``env`` entries may reference any name resolvable on
    the point with ``{name}`` placeholders. The process additionally
    receives ``DSEX_<PARAMNAME>=<raw value>`` for every parameter of
    the schema, frozen ones included, must print a flat JSON object of
    name -> number on stdout and exit 0. Two names that differ only in
    case would share a variable: such a schema is a config error.
    """

    argv: tuple[str, ...]
    produces: tuple[str, ...]
    env: Mapping[str, str] = field(default_factory=dict)
    timeout_s: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "argv", tuple(self.argv))
        object.__setattr__(self, "produces", tuple(self.produces))
        if not self.argv:
            raise ConfigError("command argv must not be empty")


_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


def _substitute(template: str, env: Mapping[str, float]) -> str:
    """Replace {name} placeholders with raw values; other braces stay literal."""

    def repl(match: "re.Match[str]") -> str:
        name = match.group(1)
        if name not in env:
            raise EvalError(
                EvalErrorKind.NAME_NOT_FOUND,
                f"template {template!r} references unknown name {name!r}",
                name=name,
            )
        return render_raw(env[name])

    return _PLACEHOLDER_RE.sub(repl, template)


def external_command(name: str, spec: CommandSpec) -> Evaluator:
    """Evaluator that shells out to an external tool per point."""

    def func(view: PointView) -> Sequence[float]:
        env_map = view.env
        proc_env, passed = dict(os.environ), {}
        for param in (*view.schema.names, *view.schema.frozen_env):
            var = f"DSEX_{param.upper()}"
            if passed.setdefault(var, param) != param:
                raise ConfigError(f"parameters {passed[var]!r} and {param!r} both pass as {var}")
            proc_env[var] = render_raw(env_map[param])
        argv = [_substitute(a, env_map) for a in spec.argv]
        for key, tmpl in spec.env.items():
            proc_env[key] = _substitute(tmpl, env_map)
        try:
            proc = subprocess.run(
                argv,
                env=proc_env,
                capture_output=True,
                text=True,
                timeout=spec.timeout_s,
            )
        except subprocess.TimeoutExpired:
            raise EvalError(
                EvalErrorKind.TIMEOUT,
                f"command {argv[0]!r} exceeded {spec.timeout_s}s",
            ) from None
        except OSError as err:
            raise EvalError(
                EvalErrorKind.TOOL_FAILURE, f"command {argv[0]!r} cannot start: {err.strerror}"
            ) from None
        if proc.returncode != 0:
            raise EvalError(
                EvalErrorKind.TOOL_FAILURE,
                f"command {argv[0]!r} exited {proc.returncode}: {proc.stderr.strip()[:200]}",
                exit_code=proc.returncode,
            )
        try:
            payload = json.loads(proc.stdout)
        except json.JSONDecodeError as err:
            raise EvalError(
                EvalErrorKind.PARSE_FAILURE, f"invalid tool output: {err}"
            ) from None
        if not isinstance(payload, dict):
            raise EvalError(EvalErrorKind.PARSE_FAILURE, "tool output is not a flat object")
        out = []
        for metric in spec.produces:
            if metric not in payload:
                raise EvalError(
                    EvalErrorKind.PARSE_FAILURE,
                    f"tool output lacks declared metric {metric!r}",
                )
            value = payload[metric]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise EvalError(
                    EvalErrorKind.PARSE_FAILURE,
                    f"tool output metric {metric!r} is not a number",
                )
            out.append(float(value))
        return out

    return Evaluator(name, spec.produces, func)
