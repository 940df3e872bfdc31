"""Exploration steps and their sequential composition.

Every step is a pure space-to-space function; a pipeline threads a
design space through its steps in listed order and tabulates the final
space. Besides the exhaustive trio (map, sort, prune) and dimension
reduction, two neighborhood-driven steps cut evaluation counts on
expensive metrics: a hill-climbing sort that only evaluates the
L1-distance-1 ring around the incumbent until no neighbor improves,
and a quick prune that traces the boundary of the kept region with
Chebyshev-distance-1 expansion, then keeps everything on the chosen
side of that frontier by componentwise index dominance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Sequence

from .errors import (
    ConfigError,
    EmptySpaceError,
    EvalError,
    PipelineAborted,
)
from .expr import MetricExpr, parse_expr
from .frame import Provenance, ResultFrame, StepReport, build_frame
from .metrics import (
    ABORT,
    Cache,
    Evaluator,
    FailPolicy,
    PointView,
    apply_transform,
    check_no_collision,
    enhance_point,
    enhance_points,
)
from .space import DesignSpace, KeepSide, Norm, Point, concern_image, project_space


@dataclass
class StepContext:
    """Execution knobs a step runs under, plus its provenance scratch."""

    cache: Cache
    policy: FailPolicy = ABORT
    parallelism: int = 1
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Step:
    """A named space-to-space function.

    ``apply_fn`` must never mutate its input space; all built-ins
    return freshly assembled spaces.
    """

    name: str
    kind: str
    apply_fn: Callable[[DesignSpace, StepContext], DesignSpace]
    evaluators: tuple[Evaluator, ...] = ()
    fail_policy: FailPolicy | None = None

    def apply(self, space: DesignSpace, ctx: StepContext) -> DesignSpace:
        return self.apply_fn(space, ctx)


@dataclass(frozen=True)
class Pipeline:
    """Sequential composition of steps.

    Steps consume the previous step's output in listed order. The
    parallelism bound applies to point evaluations inside each step;
    steps themselves never run concurrently with each other.
    """

    steps: tuple[Step, ...]
    parallelism: int = 1
    fail_policy: FailPolicy = ABORT

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise ConfigError("pipeline must have at least one step")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be a positive integer")


def _as_expr(expression: str | MetricExpr) -> MetricExpr:
    return parse_expr(expression) if isinstance(expression, str) else expression


def identity(name: str = "identity") -> Step:
    return Step(name, "identity", lambda space, ctx: space)


def exhaustive_map(evaluator: Evaluator, name: str | None = None) -> Step:
    """Apply an evaluator to every point of the space."""

    def apply_fn(space: DesignSpace, ctx: StepContext) -> DesignSpace:
        return apply_transform(space, evaluator, ctx.cache, ctx.policy, ctx.parallelism)

    return Step(name or f"map_{evaluator.name}", "map", apply_fn, (evaluator,))


def exhaustive_sort(
    key: str | MetricExpr,
    evaluator: Evaluator | None = None,
    ascending: bool = True,
    name: str = "sort",
) -> Step:
    """Optionally transform, then stable-sort points by a key expression."""
    key_expr = _as_expr(key)
    if key_expr.is_predicate:
        raise ConfigError("sort key must be numeric, not boolean")

    def apply_fn(space: DesignSpace, ctx: StepContext) -> DesignSpace:
        if evaluator is not None:
            space = apply_transform(space, evaluator, ctx.cache, ctx.policy, ctx.parallelism)
        keys = [key_expr(PointView(space.schema, p).env) for p in space.points]
        order = sorted(range(len(keys)), key=keys.__getitem__, reverse=not ascending)
        return DesignSpace(space.schema, (space.points[i] for i in order))

    evs = (evaluator,) if evaluator is not None else ()
    return Step(name, "sort", apply_fn, evs)


def exhaustive_prune(
    keep: str | MetricExpr,
    evaluator: Evaluator | None = None,
    name: str = "prune",
) -> Step:
    """Optionally transform, then keep exactly the points where ``keep`` holds."""
    keep_expr = _as_expr(keep)
    if not keep_expr.is_predicate:
        raise ConfigError("prune condition must be boolean, not numeric")

    def apply_fn(space: DesignSpace, ctx: StepContext) -> DesignSpace:
        if evaluator is not None:
            space = apply_transform(space, evaluator, ctx.cache, ctx.policy, ctx.parallelism)
        kept = [p for p in space.points if keep_expr(PointView(space.schema, p).env)]
        return DesignSpace(space.schema, kept)

    evs = (evaluator,) if evaluator is not None else ()
    return Step(name, "prune", apply_fn, evs)


def reduce_dimension(concern: str, to_min: bool = True, name: str | None = None) -> Step:
    """Project the space onto the parameters carrying ``concern``.

    Removed parameters are frozen at their domain minimum (maximum when
    ``to_min`` is false) and demoted to frozen params.
    """

    def apply_fn(space: DesignSpace, ctx: StepContext) -> DesignSpace:
        out = project_space(space, concern, to_min)
        removed = [n for n in space.schema.names if n not in out.schema.names]
        ctx.extra["removed_dimensions"] = removed
        ctx.extra["cardinality"] = len(out)
        return out

    return Step(name or f"reduce_{concern}", "reduce_dimension", apply_fn)


def _objective_value(expr: MetricExpr, space: DesignSpace, point: Point) -> float:
    value = expr(PointView(space.schema, point).env)
    if isinstance(value, bool):
        raise ConfigError("objective must be numeric, not boolean")
    return value


def gradient_sort(
    evaluators: Sequence[Evaluator],
    objective: str | MetricExpr,
    maximize: bool = True,
    name: str = "gradient",
) -> Step:
    """Hill-climb from the head of the space toward a local optimum.

    Starting at the first point, all L1-distance-1 neighbors of the
    incumbent are evaluated (through the cache); the best neighbor
    replaces the incumbent only on strict improvement, ties going to
    the earliest point in enumeration order. The output contains
    exactly the points evaluated during the walk, stable-sorted by the
    objective, best first.
    """
    objective_expr = _as_expr(objective)
    if objective_expr.is_predicate:
        raise ConfigError("objective must be numeric, not boolean")
    evaluators = tuple(evaluators)

    def apply_fn(space: DesignSpace, ctx: StepContext) -> DesignSpace:
        if not space.points:
            raise EmptySpaceError("gradient sort requires a nonempty space")
        for ev in evaluators:
            check_no_collision(space, ev)

        collected: dict[tuple, Point] = {}
        values: dict[tuple, float] = {}

        def probe(points: Sequence[Point]) -> list[tuple[Point, float] | None]:
            """Evaluate points through the chain; None when pruned."""
            todo = [p for p in points if p.key not in collected]
            enhanced = enhance_points(
                todo, space.schema, evaluators, ctx.cache, ctx.policy, ctx.parallelism
            )
            for base, enh in zip(todo, enhanced):
                if enh is None:
                    collected[base.key] = base
                    values[base.key] = float("nan")  # pruned, never a candidate
                else:
                    collected[base.key] = enh
                    values[base.key] = _objective_value(objective_expr, space, enh)
            out = []
            for p in points:
                v = values[p.key]
                out.append(None if v != v else (collected[p.key], v))
            return out

        # first viable point is the descent start
        moves = 0
        current = None
        for p in space.points:
            result = probe([p])[0]
            if result is not None:
                current, cost = result
                break
        if current is None:
            ctx.extra.update({"moves": 0, "evaluated": len(collected)})
            return DesignSpace(space.schema, ())

        while True:
            ring = space.neighbours(current, Norm.L1, 1)
            candidates = [r for r in probe(ring) if r is not None]
            best = None
            for cand, value in candidates:
                if best is None or (value > best[1] if maximize else value < best[1]):
                    best = (cand, value)
            if best is None or not (best[1] > cost if maximize else best[1] < cost):
                break
            current, cost = best
            moves += 1

        survivors = [
            (p, values[p.key]) for p in collected.values() if values[p.key] == values[p.key]
        ]
        ordered = sorted(
            range(len(survivors)), key=lambda i: survivors[i][1], reverse=maximize
        )
        ctx.extra.update({"moves": moves, "evaluated": len(survivors)})
        return DesignSpace(space.schema, (survivors[i][0] for i in ordered))

    return Step(name, "gradient", apply_fn, evaluators)


def quick_prune(
    evaluators: Sequence[Evaluator],
    keep: str | MetricExpr,
    side: KeepSide = KeepSide.UPWARD,
    concern: str | None = None,
    name: str = "quick_prune",
) -> Step:
    """Prune a full grid by tracing the frontier of the kept region.

    Assumes the kept region is a single connected region bounded by one
    continuous frontier. Walks the grid diagonal for a first kept
    point, grows the frontier through Chebyshev-distance-1 expansion,
    then keeps exactly the points dominating (or dominated by, per
    ``side``) some frontier point in index space
    (``DesignSpace.dominance_closure``). With ``concern`` the decision
    runs on the concern-projected grid, and an input point survives
    when its image under ``concern_image`` (the rule ``project_space``
    projects with) is retained.

    A point is on the frontier iff it is kept and at least one of its
    Chebyshev-distance-1 neighbors is not.
    """
    keep_expr = _as_expr(keep)
    if not keep_expr.is_predicate:
        raise ConfigError("keep condition must be boolean, not numeric")
    evaluators = tuple(evaluators)

    def apply_fn(space: DesignSpace, ctx: StepContext) -> DesignSpace:
        for ev in evaluators:
            check_no_collision(space, ev)

        if concern is not None:
            work = project_space(space, concern, True)
            image = concern_image(space.schema, concern, True)[1]
        else:
            work, image = space, attrgetter("key")
        diag = work.diagonal()  # also enforces the full-grid precondition
        if side is KeepSide.DOWNWARD:
            # approach the frontier from the corner that closes the kept
            # region, so the first kept diagonal point sits near it
            diag = list(reversed(diag))

        kept_status: dict[tuple, bool] = {}
        enhanced: dict[tuple, Point] = {}

        def kept(point: Point) -> bool:
            key = point.key
            if key in kept_status:
                return kept_status[key]
            enh = enhance_point(point, work.schema, evaluators, ctx.cache, ctx.policy)
            if enh is None:
                kept_status[key] = False  # pruned by policy: treat as not kept
                return False
            enhanced[key] = enh
            kept_status[key] = bool(keep_expr(PointView(work.schema, enh).env))
            return kept_status[key]

        def on_frontier(point: Point) -> bool:
            if not kept(point):
                return False
            ring = work.neighbours(point, Norm.LINF, 1)
            # consult memoized statuses first: a known pruned neighbor
            # settles the existential without any new evaluation
            unknown = []
            for q in ring:
                status = kept_status.get(q.key)
                if status is False:
                    return True
                if status is None:
                    unknown.append(q)
            for q in unknown:
                if not kept(q):
                    return True
            return False

        # Start: first kept point on the diagonal, nudged onto the frontier
        seed = next((p for p in diag if kept(p)), None)
        if seed is not None and not on_frontier(seed):
            for q in work.neighbours(seed, Norm.LINF, 1):
                if kept(q) and on_frontier(q):
                    seed = q
                    break
            # no kept frontier neighbor: the seed alone seeds the frontier

        # Frontier: breadth-wise Chebyshev expansion from the seed
        frontier: dict[tuple, Point] = {} if seed is None else {seed.key: seed}
        wave = list(frontier.values())
        while wave:
            new_points: dict[tuple, Point] = {}
            for p in wave:
                for q in work.neighbours(p, Norm.LINF, 1):
                    if q.key in frontier or q.key in new_points:
                        continue
                    if kept(q) and on_frontier(q):
                        new_points[q.key] = q
            frontier.update(new_points)
            wave = list(new_points.values())

        ctx.extra.update(
            {
                "predicate_evaluations": len(kept_status),
                "frontier_size": len(frontier),
                "frontier": sorted(p.coords for p in frontier.values()),
            }
        )

        # Update: retain the dominance closure of the frontier, carried
        # back to the input space through each point's image on the work grid
        closed = work.dominance_closure((p.coords for p in frontier.values()), side)
        out = []
        for p in space.points:
            key = image(p)
            if key[0] in closed:
                out.append(_attach(p, enhanced, key))
        return DesignSpace(space.schema, out)

    return Step(name, "quick_prune", apply_fn, evaluators)


def _attach(point: Point, enhanced: dict[tuple, Point], key: tuple) -> Point:
    """Copy the metrics produced for the work-grid point ``key`` onto a
    surviving point, if that work-grid point was probed.

    Only points actually probed during the walk carry the produced
    metrics; interior points were never evaluated, which is the point
    of the quick prune.
    """
    enh = enhanced.get(key)
    if enh is None:
        return point
    produced = enh.metrics[len(point.metrics):]
    return point.with_metrics(produced, enh.degraded)


def run_pipeline(
    pipeline: Pipeline,
    space: DesignSpace,
    cache: Cache | None = None,
    info: dict | None = None,
) -> ResultFrame:
    """Thread a space through the pipeline's steps and tabulate the result.

    Steps execute strictly in listed order. Per-step provenance records
    evaluator invocations (cache misses), cache hits and wall time; on
    an abort the partial provenance travels with the raised error.
    """
    cache = cache if cache is not None else Cache()
    reports: list[StepReport] = []
    t_start = time.perf_counter()
    current = space
    for step in pipeline.steps:
        policy = step.fail_policy if step.fail_policy is not None else pipeline.fail_policy
        ctx = StepContext(cache=cache, policy=policy, parallelism=pipeline.parallelism)
        hits0, misses0 = cache.counters()
        t0 = time.perf_counter()
        try:
            nxt = step.apply(current, ctx)
        except EvalError as err:
            hits1, misses1 = cache.counters()
            reports.append(
                StepReport(
                    step.name,
                    step.kind,
                    len(current),
                    None,
                    misses1 - misses0,
                    hits1 - hits0,
                    time.perf_counter() - t0,
                    {**ctx.extra, "error": str(err)},
                )
            )
            partial = Provenance(
                tuple(reports),
                pipeline.parallelism,
                time.perf_counter() - t_start,
                dict(info or {}),
            )
            raise PipelineAborted(step.name, err, partial) from err
        hits1, misses1 = cache.counters()
        reports.append(
            StepReport(
                step.name,
                step.kind,
                len(current),
                len(nxt),
                misses1 - misses0,
                hits1 - hits0,
                time.perf_counter() - t0,
                ctx.extra,
            )
        )
        current = nxt
    provenance = Provenance(
        tuple(reports),
        pipeline.parallelism,
        time.perf_counter() - t_start,
        dict(info or {}),
    )
    return build_frame(current, provenance)
