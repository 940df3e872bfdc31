"""Exploration steps and their sequential composition.

Every step is a pure space-to-space function; a pipeline threads a
design space through its steps in listed order and tabulates the final
space. Besides the exhaustive trio (map, sort, prune) and dimension
reduction, two neighborhood-driven steps cut evaluation counts on
expensive metrics: a hill-climbing sort that only evaluates the L1
ring (``neighbours`` at distance 1) around the incumbent until no
neighbor improves, and a quick prune that traces the boundary of the
kept region through Chebyshev rings, then keeps everything on the
chosen side of that frontier by a ``Grid.close`` closure in index space.
"""

from __future__ import annotations

import logging
import math
import random
import time
from dataclasses import dataclass, field
from operator import gt, itemgetter, lt
from typing import Callable, Iterable, Sequence

from .errors import (
    ConfigError,
    DsexError,
    EmptySpaceError,
    EvalError,
    PipelineAborted,
)
from .expr import MetricExpr, numeric, predicate
from .frame import Provenance, ResultFrame, StepReport, build_frame
from .metrics import (
    ABORT,
    Cache,
    Evaluator,
    FailPolicy,
    PointView,
    apply_transform,
    check_no_collision,
    enhance_point,  # noqa: F401  perfbench/worker.py patches it here by name
    enhance_points,
    env_columns,
)
from .space import DesignSpace, KeepSide, Norm, Point, Schema, project_space
from .space import Grid, _point, order_masks, project_images

log = logging.getLogger(__name__)
# quick_prune's kept points that no probe checked, on a logger of their
# own, so they can be shown or silenced apart from the probe batches
unprobed_log = log.getChild("unprobed")


# seeds quick_prune's audit sample, so the points a step probes follow
# from its inputs alone
AUDIT_SEED = 0


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
    fail_policy: FailPolicy | None = None

    def apply(self, space: DesignSpace, ctx: StepContext) -> DesignSpace:
        return self.apply_fn(space, ctx)


@dataclass(frozen=True)
class Pipeline:
    """Sequential composition of steps.

    Steps consume the previous step's output in listed order. The
    parallelism bound caps how many point evaluations of one batch run
    at once: every point of a map, sort or prune, each ring of a
    gradient walk, each antichain of a quick prune's probe batches. A
    batch the cache's lookup does not resolve runs in order at
    parallelism 1 and stops at its first failure; above 1 (and for more
    than one point) the whole batch goes to the pool and is finished
    before its earliest error is raised. Results, and the points
    evaluated, never depend on it, with one exception under ABORT: an
    aborted run may have evaluated more points than at parallelism 1.
    The error is the same. Steps themselves never run concurrently with
    each other.
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


def identity(name: str = "identity") -> Step:
    return Step(name, "identity", lambda space, ctx: space)


def exhaustive_map(evaluator: Evaluator, name: str | None = None) -> Step:
    """Apply an evaluator to every point of the space."""

    def apply_fn(space: DesignSpace, ctx: StepContext) -> DesignSpace:
        return apply_transform(space, evaluator, ctx.cache, ctx.policy, ctx.parallelism)

    return Step(name or f"map_{evaluator.name}", "map", apply_fn)


def exhaustive_sort(
    key: str | MetricExpr,
    evaluator: Evaluator | None = None,
    ascending: bool = True,
    name: str = "sort",
) -> Step:
    """Optionally transform, then stable-sort points by a key expression."""
    key_expr = numeric(key, "sort key")

    def apply_fn(space: DesignSpace, ctx: StepContext) -> DesignSpace:
        if evaluator is not None:
            space = apply_transform(space, evaluator, ctx.cache, ctx.policy, ctx.parallelism)
        keys = _values(key_expr, space.schema, space.points)
        order = sorted(range(len(keys)), key=keys.__getitem__, reverse=not ascending)
        return space.derive(space.points[i] for i in order)

    return Step(name, "sort", apply_fn)


def exhaustive_prune(
    keep: str | MetricExpr,
    evaluator: Evaluator | None = None,
    name: str = "prune",
) -> Step:
    """Optionally transform, then keep exactly the points where ``keep`` holds."""
    keep_expr = predicate(keep, "prune condition")

    def apply_fn(space: DesignSpace, ctx: StepContext) -> DesignSpace:
        if evaluator is not None:
            space = apply_transform(space, evaluator, ctx.cache, ctx.policy, ctx.parallelism)
        keep = _values(keep_expr, space.schema, space.points)
        return space.derive(p for p, kept in zip(space.points, keep) if kept)

    return Step(name, "prune", apply_fn)


def reduce_dimension(concern: str, to_min: bool = True, name: str | None = None) -> Step:
    """Project the space onto the parameters carrying ``concern``.

    Removed parameters are frozen at their domain minimum (maximum when
    ``to_min`` is false) and become the new schema's frozen params.
    """

    def apply_fn(space: DesignSpace, ctx: StepContext) -> DesignSpace:
        out = project_space(space, concern, to_min)
        removed = [n for n in space.schema.names if n not in out.schema.names]
        ctx.extra["removed_dimensions"] = removed
        ctx.extra["cardinality"] = len(out)
        return out

    return Step(name or f"reduce_{concern}", "reduce_dimension", apply_fn)


def _values(expr: MetricExpr, schema: Schema, points: Sequence[Point]) -> list:
    """``expr`` on each point, as one column; when the column raises, point
    by point, so the error is the first failing point's own."""
    try:
        return expr.column(env_columns(schema, points, expr.names), len(points))
    except EvalError:
        return [expr(PointView(schema, p).env) for p in points]


def _chain(evaluators: Sequence[Evaluator]) -> tuple[Evaluator, ...]:
    """A step's evaluator chain; no two of them may produce one name."""
    evaluators = tuple(evaluators)
    names = [n for ev in evaluators for n in ev.produces]
    if len(set(names)) != len(names):
        raise ConfigError(f"evaluator chain produces a name twice: {names}")
    return evaluators


def _prober(
    schema: Schema,
    evaluators: tuple[Evaluator, ...],
    expr: MetricExpr,
    ctx: StepContext,
    name: str,
) -> tuple[Callable[..., list], dict]:
    """A step-local probe: ``expr`` on points enhanced through ``evaluators``.

    ``probe(points, keys)`` returns each point's ``expr`` value, or None
    when the fail policy pruned the point; ``keys`` name the points, by
    default their coords. Points whose keys were not yet probed in this
    step go out as one ``enhance_points`` batch, in first-seen order, at
    the step's parallelism. The memo returned with it maps each probed
    key to ``(enhanced point, value)``, or None for a pruned point, in
    probe order; it is the step's only record of what was evaluated.
    """
    memo: dict = {}

    def probe(points: Sequence[Point], keys: Sequence | None = None) -> list:
        keys = [p.coords for p in points] if keys is None else keys
        todo = {key: p for key, p in zip(keys, points) if key not in memo}
        if todo:
            if log.isEnabledFor(logging.DEBUG):
                log.debug("%s: probing a batch of %d points", name, len(todo))
            batch = enhance_points(
                list(todo.values()), schema, evaluators, ctx.cache, ctx.policy, ctx.parallelism
            )
            kept = [enh for enh in batch if enh is not None]
            values = iter(_values(expr, schema, kept))
            for key, enh in zip(todo, batch):
                memo[key] = None if enh is None else (enh, next(values))
        return [entry and entry[1] for entry in map(memo.__getitem__, keys)]

    return probe, memo


def gradient_sort(
    evaluators: Sequence[Evaluator],
    objective: str | MetricExpr,
    maximize: bool = True,
    name: str = "gradient",
) -> Step:
    """Hill-climb from the head of the space toward a local optimum.

    The descent starts at the first point the fail policy does not
    prune. All L1-distance-1 neighbors of the incumbent are then
    evaluated (through the cache); the best neighbor replaces the
    incumbent only on strict improvement, ties going to the earliest
    point in enumeration order. The output contains exactly the
    surviving points evaluated during the walk, stable-sorted by the
    objective, best first.

    Each ring goes out as one batch of the points not yet probed in
    this step, at the pipeline's parallelism; a step-local memo keeps
    every probed point's enhanced copy and objective value, so no point
    is evaluated twice and the evaluated set does not depend on the
    parallelism. The step's ``evaluated`` counts every probed point,
    those the fail policy pruned included.
    """
    objective_expr = numeric(objective, "objective")
    evaluators = _chain(evaluators)
    better = gt if maximize else lt

    def apply_fn(space: DesignSpace, ctx: StepContext) -> DesignSpace:
        if not space.points:
            raise EmptySpaceError("gradient sort requires a nonempty space")
        schema = check_no_collision(space.schema, evaluators)
        probe, memo = _prober(schema, evaluators, objective_expr, ctx, name)

        current = next((p for p in space.points if probe([p])[0] is not None), None)
        if current is None:
            ctx.extra.update({"moves": 0, "evaluated": len(memo)})
            return space.derive((), schema)

        moves, cost = 0, memo[current.coords][1]
        while True:
            ring = space.neighbours(current, Norm.L1)
            best = None
            for q, value in zip(ring, probe(ring)):
                if value is not None and (best is None or better(value, best[1])):
                    best = (q, value)
            if best is None or not better(best[1], cost):
                break
            current, cost = best
            moves += 1

        survivors = [entry for entry in memo.values() if entry is not None]
        survivors.sort(key=itemgetter(1), reverse=maximize)
        ctx.extra.update({"moves": moves, "evaluated": len(memo)})
        return space.derive((p for p, _ in survivors), schema)

    return Step(name, "gradient", apply_fn)


def quick_prune(
    evaluators: Sequence[Evaluator],
    keep: str | MetricExpr,
    side: KeepSide = KeepSide.UPWARD,
    concern: str | None = None,
    name: str = "quick_prune",
) -> Step:
    """Prune a full grid by tracing the frontier of the kept region.

    Assumes the kept region is a single connected region bounded by one
    continuous frontier, and that ``keep`` is monotone in index space:
    on the ``upward`` side a point dominating a kept point is kept and a
    point that a failing point dominates fails (``downward`` is the
    mirror case). Walks the grid diagonal for a first kept point, grows
    the frontier through Chebyshev-distance-1 expansion, then keeps the
    points dominating (or dominated by, per ``side``) the seed or a
    frontier point in index space (a ``Grid.close`` closure), except any
    point whose verdict is that it fails ``keep``: probed and seen to
    fail, pruned under the fail policy, or inferred to fail. With
    ``concern`` the decision runs on the concern-projected grid, and an
    input point survives when its image, its coords on the axes
    ``project_space`` keeps, is retained. The recorded frontier holds
    exactly the kept points, by probed or inferred verdict, with a
    Chebyshev-distance-1 neighbor that is not kept. The walk keys each
    point by its row-major index, a ``Grid`` bit, so the order of the
    input sets only the order of the output, which follows it.

    The walk probes no point whose verdict the monotone assumption
    settles from a point probed earlier and neither pruned nor degraded;
    the point holds that inferred verdict and, like an interior point,
    no metrics. It splits each batch of undecided points into antichains:
    it ranks the batch's points once, the points whose verdict would
    split the batch most evenly first (the smaller of how many batch
    points lie at or below the point and at or above it), ties in batch
    order, then probes the greedy antichain of the ranked points still
    undecided, infers what those verdicts settle and repeats until every
    point has a verdict. The walk then audits the verdicts it
    asserted without a probe, the inferred ones and the closure's
    unprobed members: it probes ceil(sqrt(n)) of those n, drawn by
    ``random.Random(AUDIT_SEED)``. When a probe contradicts its verdict
    the assumption is broken, and the step falls back: it walks again
    without inference, over the probes made so far.

    Probes run in batches at the pipeline's parallelism, in a fixed
    order: the diagonal point by point, the seed's ring (and for an
    interior seed its members' rings), then per wave the wave's rings
    and the kept candidates' rings, each as its antichains, then the
    audit. The antichains follow from the batch and the verdicts alone,
    never from the parallelism or from timing, so the evaluated set does
    not depend on the parallelism. Under ABORT the error raised is that
    of the earliest failing point in probe order, at any parallelism.

    Provenance records every real probe (``predicate_evaluations``, the
    audit's included) and its share of the work grid
    (``evaluated_fraction``), the points ``inferred``, ``audited`` and
    contradicted (``audit_failures``), whether the step ``fell_back``,
    the kept work-grid points nobody probed (``unprobed_kept``) and the
    probed closure members that failed or were pruned
    (``failures_in_closure``). A fallback or such a failure logs a
    warning; the ``dsex.strategy.unprobed`` debug log names the coords
    of the work-grid points kept without a probe.
    """
    keep_expr = predicate(keep, "keep condition")
    evaluators = _chain(evaluators)
    away = KeepSide.DOWNWARD if side is KeepSide.UPWARD else KeepSide.UPWARD

    def apply_fn(space: DesignSpace, ctx: StepContext) -> DesignSpace:
        schema = check_no_collision(space.schema, evaluators)

        if concern is not None:
            work, images = project_images(space, concern, True)
        else:
            work, images = space, range(len(space))
        work_schema = check_no_collision(work.schema, evaluators)
        # diagonal() also enforces the full-grid precondition; from here
        # on each work-grid point and image is its row-major index
        diag = work.diagonal()
        rows, slots = work._index
        grid = [work.points[slots[i]] for i in range(len(work))]
        diag = [rows[work.position(p.coords)] for p in diag]
        images = [rows[i] for i in images]
        if side is KeepSide.DOWNWARD:
            # approach the frontier from the corner that closes the kept
            # region, so the first kept diagonal point sits near it
            diag.reverse()

        real_probe, memo = _prober(work_schema, evaluators, keep_expr, ctx, name)
        bitgrid = Grid(work.schema)
        members = bitgrid.indices
        # each point's verdict: as probed (a pruned point fails), inferred, or None
        verdicts: list[bool | None] = [None] * len(grid)
        kept_bits = 0  # the points whose verdict is True, as bits like the rings
        # the verdicts that points probed, neither pruned nor degraded, imply, as closed bits
        kept_by = failed_by = 0

        def land(todo: list[int]) -> None:
            # probe points as one batch and record their verdicts
            nonlocal kept_bits
            values = real_probe([grid[i] for i in todo], todo)
            for i, value in zip(todo, values):
                verdicts[i] = bool(value)
            kept_bits |= bitgrid.bits(i for i, value in zip(todo, values) if value)

        def implied(i: int) -> bool:
            # infer the point's verdict where exactly one implication holds
            nonlocal kept_bits
            if (kept := kept_by >> i & 1) != failed_by >> i & 1:
                verdicts[i] = bool(kept)
                kept_bits |= kept << i
                return True
            return False

        def grow(closed: int, indices: list[int], toward: KeepSide) -> int:
            # close again only when some point lies outside the closed set
            bits = bitgrid.bits(indices)
            return closed if bits & ~closed == 0 else bitgrid.close(closed | bits, toward)

        def probe(points: Iterable[int], infer: bool) -> None:
            # give every point a verdict, inferred where dominance settles it
            nonlocal kept_by, failed_by
            todo = [i for i in dict.fromkeys(points) if verdicts[i] is None]
            if not infer:
                land(todo)
                return
            todo = [i for i in todo if not implied(i)]
            # probe one antichain at a time, the points whose verdict
            # splits the batch most evenly first, and infer after each
            below, above = order_masks([grid[i].coords for i in todo])
            rank = [-min(b.bit_count(), a.bit_count()) for b, a in zip(below, above)]
            ranked = sorted(range(len(todo)), key=rank.__getitem__)
            while ranked:
                taken, batch = 0, []
                for k in ranked:
                    if not (below[k] | above[k]) & taken:
                        taken |= 1 << k
                        batch.append(todo[k])
                land(batch)
                bases = [(i, memo[i]) for i in batch]
                bases = [(i, entry[1]) for i, entry in bases if entry and not entry[0].degraded]
                kept_by = grow(kept_by, [i for i, value in bases if value], side)
                failed_by = grow(failed_by, [i for i, value in bases if not value], away)
                ranked = [k for k in ranked if not taken >> k & 1 and not implied(todo[k])]

        def on_frontier(i: int) -> bool:
            # the point is kept and some point of its ring is not
            return bool(verdicts[i] and bitgrid.ring(i) & ~kept_bits)

        def spread(points: Iterable[int], seen: int) -> list[int]:
            # the points' rings less ``seen``: each ring ascending, in
            # the points' order, every point at its first occurrence
            out = []
            for i in points:
                new = bitgrid.ring(i) & ~seen
                if new:
                    seen |= new
                    out += members(new)
            return out

        def closure(reached: int) -> set[int]:
            return set(members(bitgrid.close(reached, side)))

        def walk(infer: bool) -> int:
            """The bits of the seed and the frontier points reached from it."""
            # Start: first kept point on the diagonal, nudged onto the frontier
            seed = None
            for i in diag:
                probe([i], infer)
                if verdicts[i]:
                    seed = i
                    break
            if seed is not None:
                around = members(bitgrid.ring(seed))
                probe(around, infer)
                if not on_frontier(seed):
                    # interior: move to the first ring member on the frontier, if any
                    for q in around:
                        probe(members(bitgrid.ring(q)), infer)
                        if on_frontier(q):
                            seed = q
                            break

            # Frontier: breadth-wise Chebyshev expansion from the seed
            wave = [] if seed is None else [seed]
            reached = bitgrid.bits(wave)
            while wave:
                around = spread(wave, reached)
                probe(around, infer)
                candidates = [q for q in around if verdicts[q]]
                # the kept points of these rings already have their verdict
                probe(spread(candidates, kept_bits), infer)
                wave = [q for q in candidates if on_frontier(q)]
                reached |= bitgrid.bits(wave)
            return reached

        reached = walk(True)
        closed = closure(reached)

        # Audit: probe a fixed-seed sample of the verdicts asserted
        # without a probe; a closure member nobody probed is asserted kept
        asserted = [
            i for i in range(len(grid))
            if i not in memo and (verdicts[i] is not None or i in closed)
        ]
        audit = random.Random(AUDIT_SEED).sample(asserted, math.ceil(math.sqrt(len(asserted))))
        claims = [verdicts[i] is not False for i in audit]
        n_inferred = len(grid) - verdicts.count(None) - len(memo)
        land(audit)
        audit_failures = sum(verdicts[i] != claim for i, claim in zip(audit, claims))
        if audit_failures:
            for i in range(len(grid)):
                if i not in memo:  # drop the inferred verdicts
                    verdicts[i] = None
            kept_bits = bitgrid.bits(i for i in memo if verdicts[i])
            reached = walk(False)
            closed = closure(reached)
        frontier = [grid[i].coords for i in members(reached) if on_frontier(i)]
        failures_in_closure = sum(i in memo and not verdicts[i] for i in closed)

        def unprobed_kept(i: int) -> bool:
            return i not in memo and verdicts[i] is not False

        ctx.extra.update({
            "predicate_evaluations": len(memo),
            "evaluated_fraction": len(memo) / len(work),
            "inferred": n_inferred,
            "audited": len(audit),
            "audit_failures": audit_failures,
            "fell_back": bool(audit_failures),
            "unprobed_kept": sum(map(unprobed_kept, closed)),
            "failures_in_closure": failures_in_closure,
            "frontier_size": len(frontier),
            "frontier": sorted(frontier),
        })
        if unprobed_log.isEnabledFor(logging.DEBUG):
            unchecked = sorted(grid[i].coords for i in filter(unprobed_kept, closed))
            unprobed_log.debug(
                "%s: kept %d points nobody probed: %s", name, len(unchecked), unchecked
            )
        if audit_failures or failures_in_closure:
            log.warning(
                "%s: keep is not monotone on this grid: the audit contradicted %d of %d "
                "verdicts%s, and %d probed points in the dominance closure fail it",
                name,
                audit_failures,
                len(audit),
                ", so the step probed without inference" if audit_failures else "",
                failures_in_closure,
            )

        # Update: retain the dominance closure, carried back to the input
        # space through each point's image on the work grid, less every
        # image whose verdict is a failure. Only a point whose image was
        # probed gets the metrics produced there; interior and inferred
        # points were never evaluated, which is what the step saves, and
        # hold None for them.
        known = len(space.schema.metrics)
        unprobed = (None,) * (len(schema.metrics) - known)
        tails = [None] * len(grid)  # per retained image, its metrics and degraded flag
        for i in closed:
            if verdicts[i] is not False:
                entry = memo.get(i)
                enh = entry and entry[0]
                tails[i] = (enh.metrics[known:], enh.degraded) if enh else (unprobed, False)
        out = []
        for p, i in zip(space.points, images):
            if tails[i] is not None:
                tail, degraded = tails[i]
                out.append(_point(p.coords, p.metrics + tail, p.degraded or degraded))
        return space.derive(out, schema)

    return Step(name, "quick_prune", apply_fn)


def run_pipeline(
    pipeline: Pipeline,
    space: DesignSpace,
    cache: Cache | None = None,
    info: dict | None = None,
) -> ResultFrame:
    """Thread a space through the pipeline's steps and tabulate the result.

    Steps execute strictly in listed order. Per-step provenance records
    evaluator invocations (cache misses), cache hits and wall time. When
    a step fails, the partial provenance, with that step's report and
    error, travels with the raised error: an EvalError is wrapped in
    PipelineAborted, any other DsexError is raised as it is.
    """
    cache = cache if cache is not None else Cache()
    reports: list[StepReport] = []
    t_start = time.perf_counter()

    def provenance() -> Provenance:
        return Provenance(
            tuple(reports),
            pipeline.parallelism,
            time.perf_counter() - t_start,
            dict(info or {}),
        )

    current = space
    for step in pipeline.steps:
        policy = step.fail_policy if step.fail_policy is not None else pipeline.fail_policy
        ctx = StepContext(cache=cache, policy=policy, parallelism=pipeline.parallelism)
        hits0, misses0 = cache.counters()
        t0 = time.perf_counter()
        nxt, error = None, None
        try:
            nxt = step.apply(current, ctx)
        except DsexError as err:
            error = err
            ctx.extra = {**ctx.extra, "error": str(err)}
        hits1, misses1 = cache.counters()
        report = StepReport(
            step.name,
            step.kind,
            len(current),
            None if nxt is None else len(nxt),
            misses1 - misses0,
            hits1 - hits0,
            time.perf_counter() - t0,
            ctx.extra,
        )
        reports.append(report)
        if log.isEnabledFor(logging.INFO):
            log.info(
                "step %s: %d points in, %s, %d invocations, %d hits, %.3f s",
                report.step,
                report.points_in,
                "aborted" if nxt is None else f"{report.points_out} out",
                report.evaluator_invocations,
                report.cache_hits,
                report.wall_time_s,
            )
        if isinstance(error, EvalError):
            raise PipelineAborted(step.name, error, provenance()) from error
        if error is not None:
            error.provenance = provenance()
            raise error
        current = nxt
    return build_frame(current, provenance())
