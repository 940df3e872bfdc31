import dataclasses
import itertools
import json
import logging
import math
import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsex import (
    Cache,
    DesignSpace,
    EmptySpaceError,
    Enumerated,
    Evaluator,
    EvalError,
    FailMode,
    FailPolicy,
    KeepSide,
    Linear,
    NotAFullGrid,
    ParamSpec,
    Pipeline,
    PipelineAborted,
    Point,
    PointView,
    Pow2,
    Schema,
    StepContext,
    build_frame,
    build_space,
    exhaustive_map,
    exhaustive_prune,
    exhaustive_sort,
    expr_evaluator,
    gradient_sort,
    identity,
    parse_expr,
    project_space,
    quick_prune,
    reduce_dimension,
    run_pipeline,
)
from dsex.errors import ConfigError, EvalErrorKind

from conftest import chebyshev_ring, counting


def grid(*dims):
    return build_space(
        Schema([ParamSpec(f"p{k}", Linear(0, d - 1)) for k, d in enumerate(dims)])
    )


def concern_grid(*axes):
    return build_space(Schema([ParamSpec(n, Linear(0, hi), (tag,)) for n, hi, tag in axes]))


def ctx(policy=None, parallelism=1):
    kwargs = {"cache": Cache(), "parallelism": parallelism}
    if policy is not None:
        kwargs["policy"] = policy
    return StepContext(**kwargs)


def env_of(space, point):
    return PointView(space.schema, point).env


class TestExhaustiveMap:
    def test_invocation_count_on_full_dummy_space(self, dummy_schema):
        space = build_space(dummy_schema)
        ev, calls = counting(expr_evaluator("c", "m", "1.0"))
        out = exhaustive_map(ev).apply(space, ctx())
        assert len(calls) == 459
        assert len(out) == 459

    def test_empty_space(self, dummy_schema):
        space = DesignSpace(build_space(dummy_schema).schema, ())
        ev, calls = counting(expr_evaluator("c", "m", "1.0"))
        out = exhaustive_map(ev).apply(space, ctx())
        assert len(out) == 0 and calls == []

    def test_latency_map_after_projection(self):
        from dsex.blackscholes import latency_evaluator
        from dsex import project_space

        schema = Schema(
            [
                ParamSpec("nbIteration", Pow2(5, 6), ("qos",)),
                ParamSpec("nbEuler", Pow2(1, 2), ("qos",)),
                ParamSpec("nbCore", Pow2(2, 3), ("resource",)),
            ]
        )
        projected = project_space(build_space(schema), "resource", project_to_min=True)
        out = exhaustive_map(latency_evaluator()).apply(projected, ctx())
        for p in out.points:
            env = env_of(out, p)
            expected = -(-env["nbIteration"] // env["nbCore"]) * env["nbEuler"]
            assert env["latency_cycles"] == expected


class TestExhaustiveSort:
    def test_minimal_sum_first(self):
        schema = Schema(
            [
                ParamSpec("dynamic", Linear(8, 10)),
                ParamSpec("precision", Linear(8, 10)),
                ParamSpec("nbCore", Pow2(2, 4)),
            ]
        )
        space = build_space(schema)
        step = exhaustive_sort("dynamic + precision + nbCore", ascending=True)
        out = step.apply(space, ctx())
        sums = [sum(out.raw_values(p)) for p in out.points]
        assert sums == sorted(sums)
        assert out.raw_values(out.points[0]) == (8, 8, 4)

    def test_constant_key_is_stable(self, dummy_schema):
        space = build_space(dummy_schema)
        out = exhaustive_sort("1", ascending=True).apply(space, ctx())
        assert [p.coords for p in out.points] == [p.coords for p in space.points]

    def test_descending_reverses_distinct_values(self):
        space = grid(7)
        ev = expr_evaluator("e", "dsp_synth", "p0 * 3 + 1")
        asc = exhaustive_sort("dsp_synth", evaluator=ev, ascending=True).apply(space, ctx())
        desc = exhaustive_sort("dsp_synth", evaluator=ev, ascending=False).apply(space, ctx())
        assert [p.coords for p in desc.points] == [p.coords for p in asc.points][::-1]

    def test_unresolvable_key(self):
        with pytest.raises(EvalError):
            exhaustive_sort("nope").apply(grid(3), ctx())

    def test_boolean_key_rejected(self):
        with pytest.raises(ConfigError):
            exhaustive_sort("a < b")


class TestExhaustivePrune:
    def test_threshold_count(self):
        space = grid(101)
        ev = expr_evaluator("estim", "dsp_estim", "2 * p0")
        out = exhaustive_prune("dsp_estim < 128", evaluator=ev).apply(space, ctx())
        assert len(out) == 64
        assert max(p.coords[0] for p in out.points) == 63

    def test_tautology_is_identity(self, dummy_schema):
        space = build_space(dummy_schema)
        out = exhaustive_prune("1 == 1").apply(space, ctx())
        assert [p.coords for p in out.points] == [p.coords for p in space.points]

    def test_contradiction_empties(self, dummy_schema):
        assert len(exhaustive_prune("1 == 0").apply(build_space(dummy_schema), ctx())) == 0

    def test_numeric_predicate_rejected(self):
        with pytest.raises(ConfigError):
            exhaustive_prune("a + b")


class TestReduceDimension:
    def test_blackscholes_minima(self):
        schema = Schema(
            [
                ParamSpec("dynamic", Linear(8, 32), ("resource", "qos")),
                ParamSpec("precision", Linear(8, 32), ("resource", "qos")),
                ParamSpec("nbIteration", Pow2(5, 10), ("qos",)),
                ParamSpec("nbEuler", Pow2(1, 6), ("qos",)),
                ParamSpec("nbCore", Pow2(2, 10), ("resource",)),
            ]
        )
        space = build_space(schema)
        context = ctx()
        out = reduce_dimension("resource", to_min=True).apply(space, context)
        frozen = out.schema.frozen_env
        assert frozen == {"nbIteration": 32.0, "nbEuler": 2.0}
        assert context.extra["removed_dimensions"] == ["nbIteration", "nbEuler"]
        assert context.extra["cardinality"] == len(out)

    def test_all_params_covered_is_noop(self):
        schema = Schema([ParamSpec("a", Linear(0, 2), ("r",)), ParamSpec("b", Linear(0, 2), ("r",))])
        space = build_space(schema)
        assert reduce_dimension("r").apply(space, ctx()) is space

    def test_dummy_resource_cardinality(self, dummy_schema):
        out = reduce_dimension("resource").apply(build_space(dummy_schema), ctx())
        assert len(out) == 153


def quadratic_bowl(peak):
    terms = " + ".join(
        f"(p{k} - {c}) * (p{k} - {c})" for k, c in enumerate(peak)
    )
    return f"0 - ({terms})"


class TestGradientSort:
    def test_finds_global_optimum_of_unimodal_bowl(self):
        space = grid(17, 9)
        ev, calls = counting(expr_evaluator("obj", "score", quadratic_bowl((2, 3))))
        context = ctx()
        out = gradient_sort([ev], "score").apply(space, context)
        assert out.points[0].coords == (2, 3)
        # output is exactly the evaluated set, best first
        assert {p.coords for p in out.points} == set(calls)
        scores = [env_of(out, p)["score"] for p in out.points]
        assert scores == sorted(scores, reverse=True)

    def test_evaluated_set_is_union_of_visited_rings(self):
        space = grid(17, 9)
        ev, calls = counting(expr_evaluator("obj", "score", quadratic_bowl((2, 3))))
        gradient_sort([ev], "score").apply(space, ctx())
        # replay the deterministic walk with an independent oracle
        def score(coords):
            return -((coords[0] - 2) ** 2 + (coords[1] - 3) ** 2)

        current = (0, 0)
        expected = {current}
        while True:
            ring = [
                p.coords
                for p in space.points
                if sum(abs(a - b) for a, b in zip(p.coords, current)) == 1
            ]
            expected.update(ring)
            best = ring[0]  # enumeration order breaks ties
            for c in ring[1:]:
                if score(c) > score(best):
                    best = c
            if score(best) > score(current):
                current = best
            else:
                break
        assert set(calls) == expected

    def test_single_point_space(self):
        space = grid(1)
        ev, calls = counting(expr_evaluator("c", "score", "5.0"))
        out = gradient_sort([ev], "score").apply(space, ctx())
        assert len(out) == 1 and len(calls) == 1

    def test_increasing_objective_walks_to_far_corner(self):
        space = grid(5, 5)
        ev, calls = counting(expr_evaluator("obj", "score", "p0 + p1"))
        out = gradient_sort([ev], "score").apply(space, ctx())
        assert out.points[0].coords == (4, 4)
        assert len(calls) <= 25

    def test_budget_never_exceeds_grid(self):
        rng = random.Random(3)
        for _ in range(20):
            dims = [rng.randint(2, 6) for _ in range(rng.randint(1, 3))]
            space = grid(*dims)
            peak = tuple(rng.randrange(d) for d in dims)
            ev, calls = counting(expr_evaluator("obj", "score", quadratic_bowl(peak)))
            out = gradient_sort([ev], "score").apply(space, ctx())
            assert len(calls) <= len(space)
            assert out.points[0].coords == peak

    def test_strictly_fewer_evaluations_on_2d_plus_grids(self):
        # on >= 2 axes the walk always skips some far corner cells
        rng = random.Random(9)
        for _ in range(10):
            dims = [rng.randint(3, 7) for _ in range(rng.randint(2, 3))]
            space = grid(*dims)
            peak = tuple(rng.randrange(d) for d in dims)
            ev, calls = counting(expr_evaluator("obj", "score", quadratic_bowl(peak)))
            gradient_sort([ev], "score").apply(space, ctx())
            assert len(calls) < len(space)

    def test_minimize_mode(self):
        space = grid(9, 9)
        ev = expr_evaluator("obj", "cost", "(p0 - 5) * (p0 - 5) + (p1 - 1) * (p1 - 1)")
        out = gradient_sort([ev], "cost", maximize=False).apply(space, ctx())
        assert out.points[0].coords == (5, 1)

    def test_tie_break_prefers_enumeration_order(self):
        space = grid(3, 3)
        # both axis neighbors of the start improve equally
        ev = expr_evaluator("obj", "score", "p0 + p1")
        out = gradient_sort([ev], "score").apply(space, ctx())
        walked = {p.coords for p in out.points}
        # from (0,0) the tie between (0,1) and (1,0) goes to (0,1)
        assert (0, 1) in walked

    def test_empty_space_rejected(self):
        space = DesignSpace(grid(2).schema, ())
        with pytest.raises(EmptySpaceError):
            gradient_sort([expr_evaluator("c", "s", "1.0")], "s").apply(space, ctx())

    def test_purity_and_repeatability(self):
        space = grid(6, 6)
        ev = expr_evaluator("obj", "score", quadratic_bowl((4, 1)))
        step = gradient_sort([ev], "score")
        out1 = step.apply(space, ctx())
        out2 = step.apply(space, ctx())
        assert out1.points == out2.points
        assert all(p.metrics == () for p in space.points)

    def test_prune_policy_skips_failing_points(self):
        from dsex.errors import EvalErrorKind

        space = grid(5)

        def func(view):
            if view.point.coords[0] == 1:
                raise EvalError(EvalErrorKind.TIMEOUT, "slow")
            return (float(view.point.coords[0]),)

        ev = Evaluator("flaky", ("score",), func)
        out = gradient_sort([ev], "score").apply(
            space, ctx(policy=FailPolicy(FailMode.PRUNE))
        )
        assert all(p.coords != (1,) for p in out.points)


def brute_force_frontier(space, keep):
    # the kept points with a Chebyshev neighbour that is not kept
    kept = {p.coords: keep(env_of(space, p)) for p in space.points}
    return {c for c in kept if kept[c] and not all(map(kept.get, chebyshev_ring(c, kept)))}


class TestQuickPrune:
    def test_staircase_matches_exhaustive(self):
        space = grid(10, 10)
        context = ctx()
        out = quick_prune([], "p0 + p1 >= 9").apply(space, context)
        kept = {p.coords for p in out.points}
        oracle = {p.coords for p in space.points if sum(p.coords) >= 9}
        assert kept == oracle
        assert len(kept) == 55
        assert context.extra["predicate_evaluations"] < 100

    def test_keep_everything_returns_full_space(self):
        space = grid(10, 10)
        out = quick_prune([], "1 == 1").apply(space, ctx())
        assert len(out) == 100

    def test_frontier_is_empty_when_nothing_fails(self):
        # no point has a non-kept neighbour, so none is on the frontier;
        # the closure still grows from the seed and keeps the whole grid
        context = ctx()
        out = quick_prune([expr_evaluator("e", "m", "p0 + p1")], "m >= 0").apply(
            grid(3, 3), context
        )
        assert len(out) == 9
        assert (context.extra["frontier_size"], context.extra["frontier"]) == (0, [])

    def test_keep_nothing_returns_empty_space(self):
        space = grid(10, 10)
        out = quick_prune([], "1 == 0").apply(space, ctx())
        assert len(out) == 0

    def test_downward_side(self):
        space = grid(12, 12)
        out = quick_prune([], "p0 + p1 <= 6", side=KeepSide.DOWNWARD).apply(space, ctx())
        assert {p.coords for p in out.points} == {
            p.coords for p in space.points if sum(p.coords) <= 6
        }

    def test_requires_full_grid(self):
        space = grid(4, 4)
        partial = DesignSpace(space.schema, space.points[1:])
        with pytest.raises(NotAFullGrid):
            quick_prune([], "1 == 1").apply(partial, ctx())

    def test_concern_needs_only_the_projected_grid_to_be_full(self):
        schema = Schema(
            [
                ParamSpec("a", Linear(0, 4), ("qos",)),
                ParamSpec("b", Linear(0, 3), ("resource",)),
            ]
        )
        space = build_space(schema)
        # dropping one point leaves the qos projection complete
        partial = DesignSpace(schema, space.points[1:])
        out = quick_prune([], "a >= 2", concern="qos").apply(partial, ctx())
        expected = {p.coords for p in partial.points if p.coords[0] >= 2}
        assert {p.coords for p in out.points} == expected
        # dropping a whole projected column does not
        gappy = DesignSpace(schema, [p for p in space.points if p.coords[0] != 2])
        with pytest.raises(NotAFullGrid):
            quick_prune([], "a >= 2", concern="qos").apply(gappy, ctx())

    def test_frontier_set_matches_brute_force(self):
        rng = random.Random(31)
        for _ in range(25):
            nx, ny = rng.randint(6, 12), rng.randint(6, 12)
            space = grid(nx, ny)
            w1, w2 = rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5)
            tau = rng.uniform(0.2, 0.8) * (w1 * (nx - 1) + w2 * (ny - 1))
            text = f"{w1:.3f} * p0 + {w2:.3f} * p1 >= {tau:.3f}"
            keep = parse_expr(text)
            context = ctx()
            quick_prune([], text).apply(space, context)
            # recover the algorithm's frontier from provenance size plus a
            # direct brute-force recomputation
            expected = brute_force_frontier(space, keep)
            if not expected:
                continue
            assert context.extra["frontier_size"] == len(expected)

    def test_metrics_attached_to_probed_points(self):
        space = grid(8, 8)
        ev = expr_evaluator("estim", "height", "p0 + p1")
        out = quick_prune([ev], "height >= 7").apply(space, ctx())
        assert out.schema.metrics == ("height",)
        probed = [p for p in out.points if p.metrics[0] is not None]
        assert probed, "frontier points must carry the produced metric"
        for p in probed:
            assert env_of(out, p)["height"] == sum(p.coords)

    def test_interior_points_read_as_absent(self, tmp_path):
        ev = expr_evaluator("estim", "height", "p0 + p1")
        out = quick_prune([ev], "height >= 7").apply(grid(8, 8), ctx())
        interior = {i for i, p in enumerate(out.points) if p.metrics == (None,)}
        assert interior and len(interior) < len(out)
        assert all("height" not in env_of(out, out.points[i]) for i in interior)
        frame = build_frame(out)
        frame.to_csv(tmp_path / "frame.csv")
        frame.to_jsonl(tmp_path / "frame.jsonl")
        header, *lines = (tmp_path / "frame.csv").read_text().splitlines()
        assert header == "p0,p1,height,degraded"
        rows = [json.loads(line) for line in (tmp_path / "frame.jsonl").read_text().splitlines()]
        for i, (p, line, row) in enumerate(zip(out.points, lines, rows, strict=True)):
            cell = line.split(",")[2]
            if i in interior:
                assert cell == "" and "height" not in row
            else:
                assert float(cell) == row["height"] == sum(p.coords)

    @pytest.mark.parametrize(
        "space, concern",
        [
            (grid(7, 7), None),
            (concern_grid(("p0", 6, "qos"), ("c", 2, "resource"), ("p1", 6, "qos")), "qos"),
        ],
        ids=["plain", "concern"],
    )
    def test_no_survivor_was_seen_to_fail_keep(self, space, concern):
        # a bowl is not monotone: its rim passes, so the upward closure of
        # the traced frontier covers probed points in the failing hollow
        ev, calls = counting(
            expr_evaluator("e", "m", "(p0 - 3) * (p0 - 3) + (p1 - 3) * (p1 - 3)")
        )
        keep = parse_expr("m >= 8")
        out = quick_prune([ev], keep, concern=concern).apply(space, ctx())
        measured = [env_of(out, p) for p in out.points if p.metrics[-1] is not None]
        assert measured
        assert all(keep(env) for env in measured)
        hollow = [c for c in calls if not keep({"m": (c[0] - 3) ** 2 + (c[1] - 3) ** 2})]
        assert hollow, "the fixture must probe failing points inside the closure"
        survivors = {p.coords for p in out.points}
        if concern is None:
            assert survivors.isdisjoint(hollow)

    def test_no_survivor_was_pruned_by_the_fail_policy(self):
        space = grid(6, 6)

        def func(view):
            if view.point.coords == (3, 3):
                raise EvalError(EvalErrorKind.TOOL_FAILURE, "dead", exit_code=1)
            return (float(sum(view.point.coords)),)

        ev, calls = counting(Evaluator("e", ("m",), func))
        out = quick_prune([ev], "m >= 5").apply(
            space, ctx(policy=FailPolicy(FailMode.PRUNE))
        )
        assert (3, 3) in calls
        kept = {p.coords for p in out.points}
        assert kept == {p.coords for p in space.points if sum(p.coords) >= 5} - {(3, 3)}

    def test_no_verdict_is_inferred_from_a_degraded_point(self):
        # (3, 3) passes, but fails to evaluate and is assigned a failing
        # worst value; inferring from that would fail (2, 3) and (3, 2)
        space = grid(6, 6)

        def func(view):
            if view.point.coords == (3, 3):
                raise EvalError(EvalErrorKind.TOOL_FAILURE, "dead", exit_code=1)
            return (float(sum(view.point.coords)),)

        ev, calls = counting(Evaluator("e", ("m",), func))
        context = ctx(policy=FailPolicy(FailMode.ASSIGN_WORST, {"m": -100.0}))
        out = quick_prune([ev], "m >= 5").apply(space, context)
        assert (3, 3) in calls and not context.extra["fell_back"]
        kept = {p.coords for p in out.points}
        assert kept == {p.coords for p in space.points if sum(p.coords) >= 5} - {(3, 3)}

    @pytest.mark.parametrize(
        "params, frozen, threshold",
        [
            # qos axes form a prefix of the schema, which has no frozen params
            ([("a", 7, "qos"), ("b", 5, "qos"), ("c", 3, "resource")], (), 6),
            # a resource axis sits between the qos axes, the schema freezes f
            (
                [("a", 5, "qos"), ("c", 2, "resource"), ("b", 4, "qos")],
                (("f", 3.0),),
                5,
            ),
        ],
        ids=["prefix", "interleaved_frozen"],
    )
    def test_concern_projection_matches_exhaustive(self, params, frozen, threshold):
        space = build_space(
            Schema([ParamSpec(n, Linear(0, hi), (tag,)) for n, hi, tag in params], frozen)
        )
        qos = [i for i, (_, _, tag) in enumerate(params) if tag == "qos"]

        def image(p):
            return tuple(p.coords[i] for i in qos)

        ev, calls = counting(expr_evaluator("estim", "quality", "a + b"))
        context = ctx()
        out = quick_prune([ev], f"quality >= {threshold}", concern="qos").apply(
            space, context
        )
        kept = {p.coords for p in out.points}
        oracle = {p.coords for p in space.points if sum(image(p)) >= threshold}
        assert kept == oracle
        # decisions ran on the projected grid, not the whole space
        assert len(set(calls)) <= math.prod(params[i][1] + 1 for i in qos)
        # metrics propagate to every re-expanded copy of a probed projection
        probed = {image(p) for p in out.points if p.metrics[-1] is not None}
        assert probed
        for p in out.points:
            if image(p) in probed:
                assert env_of(out, p)["quality"] == sum(image(p))
        # the projection's frozen minima stay on the work grid
        assert out.schema.frozen == frozen

    @pytest.mark.parametrize("keep, kept", [("m >= 1", 1), ("m < 1", 0)])
    def test_a_schema_with_no_parameter_has_one_point(self, keep, kept):
        # the one point is its own diagonal, with an empty ring
        space = build_space(Schema([]))
        assert [p.coords for p in space.points] == [()]
        context = ctx()
        out = quick_prune([expr_evaluator("e", "m", "1")], keep).apply(space, context)
        assert [(p.coords, p.metrics) for p in out.points] == [((), (1.0,))] * kept
        assert (context.extra["predicate_evaluations"], context.extra["frontier"]) == (1, [])

    def test_numeric_keep_rejected(self):
        with pytest.raises(ConfigError):
            quick_prune([], "a + b")


# (space, evaluator expression, keep, side, concern, predicate evaluations);
# the counts are those of the walk that probes each batch one antichain
# at a time and infers after each, plus its audit, so a scheme that
# evaluates speculatively, or probes two comparable points together,
# fails the pin; the bowl is not monotone, so its count is the walk
# without inference plus the audit
BATCH_CASES = {
    "2d_up": (grid(9, 7), "p0 + 2 * p1", "m >= 10", KeepSide.UPWARD, None, 24),
    "2d_down": (grid(9, 7), "2 * p0 + p1", "m <= 9", KeepSide.DOWNWARD, None, 22),
    # the first kept diagonal point is interior and is nudged onto the frontier
    "2d_seed_nudge": (
        grid(7, 7),
        "(p0 - 3) * (p0 - 3) + (p1 - 3) * (p1 - 3)",
        "m >= 8",
        KeepSide.UPWARD,
        None,
        46,
    ),
    "3d_up": (grid(5, 4, 6), "p0 + p1 + p2", "m >= 7", KeepSide.UPWARD, None, 46),
    "3d_down": (grid(5, 4, 6), "p0 + 2 * p1 + p2", "m <= 8", KeepSide.DOWNWARD, None, 52),
    "concern_3d_up": (
        concern_grid(("a", 4, "qos"), ("c", 2, "resource"), ("b", 5, "qos"), ("d", 3, "qos")),
        "a + b + d",
        "m >= 6",
        KeepSide.UPWARD,
        "qos",
        47,
    ),
    "concern_2d_down": (
        concern_grid(("a", 6, "qos"), ("c", 2, "resource"), ("b", 5, "qos")),
        "2 * a + b",
        "m <= 8",
        KeepSide.DOWNWARD,
        "qos",
        20,
    ),
    # the dummy schema's 17x9x3 grid under a resource bound that ignores
    # the third axis, as the tool-frontier benchmark prunes it
    "dummy_3d_down": (
        build_space(Schema([
            ParamSpec("p0", Linear(0, 16)),
            ParamSpec("p1", Pow2(0, 8)),
            ParamSpec("p2", Enumerated([4, 6, 9])),
        ])),
        "8 * p0 + p1 / 2.1",
        "m < 128",
        KeepSide.DOWNWARD,
        None,
        74,
    ),
}


def _permuted(case, shuffle):
    points = list(BATCH_CASES[case][0].points)
    shuffle(points)
    return case, DesignSpace(BATCH_CASES[case][0].schema, points)


# the same grids with their points out of row-major order, each with the
# case it permutes: quick_prune walks the grid by row-major index, so a
# permuted grid probes exactly the sequence its row-major case pins
PERMUTED_CASES = {
    "2d_up_reversed": _permuted("2d_up", list.reverse),
    "concern_3d_up_shuffled": _permuted("concern_3d_up", random.Random(0).shuffle),
}

# the coords each case probes at parallelism 1, in probe order (on the
# projected grid where the case has a concern)
PROBE_SEQUENCES = {
    "2d_up": [
        (0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (3, 3), (4, 2), (3, 4), (5, 2), (2, 4),
        (6, 2), (1, 5), (6, 1), (1, 4), (7, 1), (0, 5), (8, 1), (8, 0), (7, 4), (8, 6),
        (8, 3), (5, 3), (0, 6), (3, 6),
    ],
    "2d_down": [
        (8, 6), (7, 5), (6, 5), (5, 4), (4, 3), (3, 2), (2, 3), (4, 1), (3, 3), (4, 2),
        (2, 4), (5, 0), (3, 4), (1, 5), (2, 5), (1, 6), (2, 6), (2, 0), (2, 1), (0, 1),
        (1, 1), (3, 1),
    ],
    "2d_seed_nudge": [
        (0, 0), (3, 4), (3, 6), (0, 3), (2, 3), (4, 5), (4, 4), (3, 5), (0, 1), (1, 0),
        (1, 1), (0, 2), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (0, 4), (1, 4), (3, 0),
        (3, 1), (0, 5), (1, 5), (4, 0), (4, 1), (0, 6), (1, 6), (2, 4), (2, 5), (2, 6),
        (5, 0), (5, 1), (6, 0), (6, 1), (4, 2), (5, 2), (6, 2), (4, 6), (5, 3), (6, 3),
        (5, 5), (5, 6), (5, 4), (6, 4), (6, 5), (6, 6),
    ],
    "3d_up": [
        (0, 0, 0), (1, 1, 1), (2, 1, 2), (2, 2, 3), (1, 2, 3), (1, 1, 4), (1, 3, 2),
        (2, 1, 3), (2, 2, 2), (3, 1, 2), (1, 2, 4), (1, 3, 3), (2, 1, 4), (2, 3, 2),
        (3, 1, 3), (3, 2, 2), (2, 0, 5), (3, 0, 4), (4, 0, 3), (0, 2, 5), (0, 3, 4),
        (3, 3, 1), (4, 2, 1), (1, 1, 5), (4, 1, 2), (0, 1, 5), (0, 2, 4), (0, 3, 3),
        (1, 0, 5), (2, 0, 4), (3, 0, 3), (2, 3, 1), (3, 2, 1), (4, 0, 2), (4, 1, 1),
        (3, 3, 0), (4, 2, 0), (4, 3, 0), (4, 2, 4), (2, 2, 4), (4, 1, 0), (4, 3, 1),
        (2, 3, 0), (0, 1, 3), (1, 3, 4), (3, 0, 5),
    ],
    "3d_down": [
        (4, 3, 5), (3, 2, 4), (2, 2, 3), (2, 1, 2), (3, 1, 2), (1, 1, 3), (1, 2, 2),
        (2, 0, 3), (2, 2, 1), (2, 1, 3), (2, 2, 2), (3, 0, 3), (3, 2, 1), (1, 2, 3),
        (3, 1, 3), (3, 2, 2), (1, 1, 4), (1, 3, 1), (0, 3, 3), (3, 0, 4), (3, 3, 0),
        (4, 1, 1), (4, 0, 3), (0, 2, 4), (4, 2, 0), (1, 3, 2), (2, 3, 1), (2, 1, 4),
        (4, 1, 2), (1, 2, 4), (4, 0, 4), (4, 2, 1), (0, 3, 2), (2, 3, 0), (3, 1, 4),
        (4, 1, 3), (2, 0, 5), (0, 1, 5), (1, 1, 5), (3, 0, 5), (0, 2, 5), (2, 1, 5),
        (4, 0, 5), (3, 0, 2), (3, 2, 0), (0, 0, 5), (1, 3, 4), (4, 2, 2), (4, 1, 0),
        (3, 1, 1), (2, 0, 4), (4, 0, 2),
    ],
    "concern_3d_up": [
        (0, 0, 0), (1, 1, 1), (2, 2, 1), (2, 3, 2), (1, 3, 2), (1, 2, 3), (1, 4, 1),
        (2, 2, 2), (2, 3, 1), (3, 2, 1), (1, 2, 2), (1, 3, 1), (0, 4, 2), (1, 5, 0),
        (2, 4, 0), (3, 1, 2), (3, 3, 0), (4, 2, 0), (0, 3, 3), (2, 1, 3), (0, 5, 1),
        (4, 1, 1), (0, 2, 3), (1, 1, 3), (0, 4, 1), (0, 5, 0), (1, 4, 0), (3, 1, 1),
        (3, 2, 0), (4, 1, 0), (0, 3, 2), (2, 1, 2), (2, 3, 0), (3, 0, 3), (4, 0, 2),
        (2, 0, 3), (3, 0, 2), (4, 0, 1), (3, 5, 0), (4, 0, 0), (0, 3, 1), (2, 5, 1),
        (4, 4, 1), (4, 3, 2), (3, 5, 2), (3, 1, 0), (4, 3, 1),
    ],
    "concern_2d_down": [
        (6, 5), (5, 4), (4, 3), (3, 3), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4),
        (4, 1), (2, 4), (4, 0), (1, 5), (5, 0), (2, 5), (3, 4), (5, 1), (1, 0), (0, 0),
    ],
    "dummy_3d_down": [
        (16, 8, 2), (15, 8, 2), (14, 7, 2), (13, 7, 2), (12, 6, 2), (11, 7, 2),
        (12, 7, 1), (13, 5, 2), (13, 6, 1), (11, 7, 1), (10, 7, 1), (11, 7, 0),
        (14, 4, 1), (14, 5, 0), (13, 6, 0), (14, 4, 2), (14, 5, 1), (10, 7, 0),
        (14, 5, 2), (15, 4, 1), (15, 5, 0), (15, 3, 2), (9, 7, 1), (15, 4, 2),
        (9, 7, 0), (16, 3, 1), (16, 4, 0), (16, 2, 2), (8, 7, 1), (16, 2, 1),
        (16, 3, 0), (8, 7, 2), (16, 2, 0), (7, 8, 1), (8, 8, 0), (16, 1, 1), (7, 8, 0),
        (16, 1, 0), (6, 8, 1), (16, 0, 1), (6, 8, 0), (16, 0, 0), (5, 8, 1), (5, 8, 0),
        (4, 8, 1), (4, 8, 0), (3, 8, 1), (3, 8, 0), (2, 8, 1), (2, 8, 0), (1, 8, 1),
        (1, 8, 0), (0, 8, 1), (0, 8, 2), (7, 7, 1), (8, 5, 0), (0, 6, 2), (5, 2, 1),
        (10, 4, 0), (9, 8, 2), (8, 2, 1), (6, 1, 2), (9, 6, 2), (7, 2, 2), (12, 2, 0),
        (4, 3, 2), (10, 3, 0), (2, 7, 0), (5, 6, 1), (1, 7, 2), (13, 0, 2), (5, 1, 0),
        (11, 0, 1), (15, 4, 0),
    ],
}


class TestQuickPruneBatches:
    @pytest.mark.parametrize("case", BATCH_CASES, ids=str)
    def test_evaluations_do_not_depend_on_parallelism(self, case):
        space, expression, keep, side, concern, pinned = BATCH_CASES[case]
        runs = {}
        for parallelism in (1, 4):
            ev, calls = counting(expr_evaluator("e", "m", expression))
            context = ctx(parallelism=parallelism)
            out = quick_prune([ev], keep, side=side, concern=concern).apply(space, context)
            # every probed point is evaluated exactly once
            assert len(calls) == len(set(calls)) == context.extra["predicate_evaluations"]
            runs[parallelism] = (
                set(calls),
                context.extra["predicate_evaluations"],
                context.extra["frontier"],
                out.points,
            )
        assert runs[1] == runs[4]
        assert runs[1][1] == pinned

    @pytest.mark.parametrize("case", [*PROBE_SEQUENCES, *PERMUTED_CASES], ids=str)
    def test_probe_sequence_is_pinned(self, case):
        case, permuted = PERMUTED_CASES.get(case, (case, None))
        space, expression, keep, side, concern, pinned = BATCH_CASES[case]
        ev, calls = counting(expr_evaluator("e", "m", expression))
        quick_prune([ev], keep, side=side, concern=concern).apply(permuted or space, ctx())
        assert calls == PROBE_SEQUENCES[case]
        assert len(calls) == pinned

    def test_parallelism_reaches_the_probes(self):
        space = grid(5, 5)
        peaks = {}
        for parallelism in (1, 2):
            lock = threading.Lock()
            state = {"now": 0, "peak": 0}

            def func(view):
                with lock:
                    state["now"] += 1
                    state["peak"] = max(state["peak"], state["now"])
                time.sleep(0.02)
                with lock:
                    state["now"] -= 1
                return (float(sum(view.point.coords)),)

            ev = Evaluator("slow", ("m",), func)
            quick_prune([ev], "m >= 4").apply(space, ctx(parallelism=parallelism))
            peaks[parallelism] = state["peak"]
        assert peaks[1] == 1
        assert peaks[2] >= 2

    def test_abort_surfaces_the_earliest_failure_in_probe_order(self):
        space, expression, keep, side, _, _ = BATCH_CASES["2d_up"]
        ev, calls = counting(expr_evaluator("e", "m", expression))
        quick_prune([ev], keep, side=side).apply(space, ctx())
        first, second = calls[-2], calls[-1]  # both probed, in one batch

        def func(view):
            if view.point.coords == first:
                time.sleep(0.05)  # let the later failure finish first
            if view.point.coords in (first, second):
                raise EvalError(EvalErrorKind.TOOL_FAILURE, "dead", exit_code=1)
            return ev.func(view)

        bad = Evaluator("e", ("m",), func)
        errors = []
        for parallelism in (1, 4):
            with pytest.raises(EvalError) as err:
                quick_prune([bad], keep, side=side).apply(space, ctx(parallelism=parallelism))
            errors.append((err.value.kind, err.value.coords))
        assert errors == [(EvalErrorKind.TOOL_FAILURE, first)] * 2

    def test_the_bowl_falls_back(self, caplog):
        # the bowl is not monotone: its rim passes, so the origin implies
        # every other verdict; the audit probes ceil(sqrt(48)) = 7 of them,
        # meets the failing hollow and the step walks again without inference
        space, expression, keep, side, _, pinned = BATCH_CASES["2d_seed_nudge"]
        ev, calls = counting(expr_evaluator("e", "m", expression))
        context = ctx()
        caplog.set_level(logging.WARNING, logger="dsex")
        out = quick_prune([ev], keep, side=side).apply(space, context)
        extra = context.extra
        assert (extra["inferred"], extra["audited"], extra["fell_back"]) == (8, 7, True)
        assert 0 < extra["audit_failures"] <= extra["audited"]
        assert extra["predicate_evaluations"] == len(calls) == pinned
        assert extra["evaluated_fraction"] == pinned / 49
        hollow = {c for c in calls if (c[0] - 3) ** 2 + (c[1] - 3) ** 2 < 8}
        assert hollow and hollow.isdisjoint(p.coords for p in out.points)
        assert extra["failures_in_closure"] >= len(hollow)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "without inference" in warnings[0]

    def test_log_lines(self, caplog):
        space = grid(9, 7)
        ev = expr_evaluator("e", "m", "p0 + 2 * p1")
        pipeline = Pipeline((quick_prune([ev], "m >= 10"), exhaustive_sort("p0 + p1")))
        caplog.set_level(logging.DEBUG, logger="dsex")
        frame = run_pipeline(pipeline, space)
        records = [r for r in caplog.records if r.name == "dsex.strategy"]
        steps = [r.getMessage() for r in records if r.levelno == logging.INFO]
        assert steps[0].startswith("step quick_prune: 63 points in, 34 out, 24 invocations")
        assert steps[1].startswith("step sort: 34 points in, 34 out, 0 invocations")
        assert len(steps) == len(frame.provenance.steps) == 2
        batches = [
            int(r.getMessage().split()[-2]) for r in records if r.levelno == logging.DEBUG
        ]
        assert len(batches) > 1
        assert sum(batches) == frame.provenance.steps[0].extra["predicate_evaluations"]

        caplog.clear()
        caplog.set_level(logging.WARNING, logger="dsex")
        run_pipeline(pipeline, space)
        assert not [r for r in caplog.records if r.name == "dsex.strategy"]


    @pytest.mark.parametrize("case", ["3d_up", "2d_down", "concern_3d_up"])
    def test_debug_log_names_the_points_kept_unprobed(self, caplog, case):
        # on a monotone grid: the named points are the closure members
        # nobody probed whose verdict is not a failure, which are the
        # kept work-grid points outside the probed ones
        space, expression, keep, side, concern, _ = BATCH_CASES[case]

        def run(level):
            ev, calls = counting(expr_evaluator("e", "m", expression))
            context = ctx()
            caplog.clear()
            caplog.set_level(level, logger="dsex")
            out = quick_prune([ev], keep, side=side, concern=concern).apply(space, context)
            named = [r.args[-1] for r in caplog.records if r.name == "dsex.strategy.unprobed"]
            return out, context.extra, calls, named

        out, extra, calls, named = run(logging.DEBUG)
        assert not extra["fell_back"]
        kept = {p.coords for p in (project_space(out, concern) if concern else out).points}
        assert len(named) == 1
        assert named[0] == sorted(kept - set(calls))
        assert len(named[0]) == extra["unprobed_kept"] > 0
        # naming them changes neither the output nor the provenance
        quiet, quiet_extra, _, not_named = run(logging.WARNING)
        assert (quiet.points, quiet_extra, not_named) == (out.points, extra, [])


# (space, evaluator expression, maximize, moves, output coords); the
# output is the evaluated set, best first, as the per-ring walk before the
# shared probe produced it
GRADIENT_CASES = {
    "2d_max": (
        grid(9, 7),
        quadratic_bowl((5, 4)),
        True,
        9,
        [(5, 4), (4, 4), (5, 3), (5, 5), (6, 4), (4, 3), (4, 5), (3, 4), (3, 3), (4, 2),
         (3, 2), (2, 3), (2, 2), (3, 1), (2, 1), (1, 2), (1, 1), (2, 0), (1, 0), (0, 1),
         (0, 0)],
    ),
    "2d_min": (
        grid(9, 7),
        "(p0 - 7) * (p0 - 7) + (p1 - 2) * (p1 - 2)",
        False,
        9,
        [(7, 2), (6, 2), (7, 1), (7, 3), (8, 2), (6, 1), (6, 3), (5, 2), (5, 1), (6, 0),
         (5, 0), (4, 1), (4, 0), (3, 1), (3, 0), (2, 1), (2, 0), (1, 1), (1, 0), (0, 1),
         (0, 0)],
    ),
    "3d_max": (
        grid(5, 4, 6),
        quadratic_bowl((3, 2, 4)),
        True,
        9,
        [(3, 2, 4), (2, 2, 4), (3, 1, 4), (3, 2, 3), (3, 2, 5), (3, 3, 4), (4, 2, 4),
         (2, 1, 4), (2, 2, 3), (3, 1, 3), (2, 2, 5), (2, 3, 4), (2, 1, 3), (2, 1, 5),
         (1, 2, 4), (1, 1, 4), (1, 2, 3), (2, 0, 4), (1, 1, 3), (2, 0, 3), (2, 1, 2),
         (1, 0, 4), (1, 0, 3), (1, 1, 2), (2, 0, 2), (0, 1, 3), (1, 0, 2), (0, 0, 3),
         (0, 1, 2), (0, 0, 2), (1, 0, 1), (0, 1, 1), (0, 0, 1), (1, 0, 0), (0, 1, 0),
         (0, 0, 0)],
    ),
    "3d_min": (
        grid(5, 4, 6),
        "(p0 - 4) * (p0 - 4) + (p1 - 1) * (p1 - 1) + (p2 - 5) * (p2 - 5)",
        False,
        10,
        [(4, 1, 5), (3, 1, 5), (4, 0, 5), (4, 1, 4), (4, 2, 5), (3, 0, 5), (3, 1, 4),
         (4, 0, 4), (3, 2, 5), (3, 0, 4), (2, 1, 5), (2, 0, 5), (2, 1, 4), (2, 0, 4),
         (3, 0, 3), (2, 1, 3), (2, 0, 3), (1, 0, 4), (1, 1, 3), (1, 0, 3), (2, 0, 2),
         (1, 1, 2), (1, 0, 2), (0, 0, 3), (0, 1, 2), (0, 0, 2), (1, 0, 1), (0, 1, 1),
         (0, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 0)],
    ),
}


class TestGradientBatches:
    @pytest.mark.parametrize("case", GRADIENT_CASES, ids=str)
    def test_evaluations_do_not_depend_on_parallelism(self, case):
        space, expression, maximize, moves, coords = GRADIENT_CASES[case]
        runs = {}
        for parallelism in (1, 4):
            ev, calls = counting(expr_evaluator("e", "m", expression))
            context = ctx(parallelism=parallelism)
            out = gradient_sort([ev], "m", maximize=maximize).apply(space, context)
            # every point is evaluated exactly once, and the output is that set
            assert len(calls) == len(set(calls)) == context.extra["evaluated"]
            assert set(calls) == {p.coords for p in out.points}
            runs[parallelism] = (
                context.extra["moves"],
                context.extra["evaluated"],
                [p.coords for p in out.points],
            )
        assert runs[1] == runs[4] == (moves, len(coords), coords)

    def test_prune_skips_a_failing_head(self):
        space = grid(6, 5)
        score = expr_evaluator("e", "m", quadratic_bowl((4, 3)))

        def func(view):
            if view.point.coords == (0, 0):
                raise EvalError(EvalErrorKind.TIMEOUT, "slow")
            return score.func(view)

        runs = {}
        for parallelism in (1, 4):
            ev, calls = counting(Evaluator("e", ("m",), func))
            context = ctx(policy=FailPolicy(FailMode.PRUNE), parallelism=parallelism)
            out = gradient_sort([ev], "m").apply(space, context)
            # the head is tried once, then the walk starts at the next point
            assert calls[:2] == [(0, 0), (0, 1)]
            assert len(calls) == len(set(calls)) == 18
            runs[parallelism] = (context.extra, [p.coords for p in out.points])
        assert runs[1] == runs[4]
        extra, coords = runs[1]
        # evaluated counts every probed point, the pruned head included
        assert extra == {"moves": 6, "evaluated": 18}
        assert (0, 0) not in coords and (0, 1) in coords and coords[0] == (4, 3)

    def test_debug_log_covers_the_batches(self, caplog):
        space, expression, maximize, _, coords = GRADIENT_CASES["3d_max"]
        ev = expr_evaluator("e", "m", expression)
        caplog.set_level(logging.DEBUG, logger="dsex")
        gradient_sort([ev], "m", maximize=maximize).apply(space, ctx())
        lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert all(line.startswith("gradient: probing a batch of ") for line in lines)
        assert sum(int(line.split()[-2]) for line in lines) == len(coords)


class TestPipeline:
    def test_compose_equals_pipeline(self):
        space = grid(10, 7)
        estim = expr_evaluator("estim", "dsp_estim", "p0 * 4 + p1")
        synth = expr_evaluator("synth", "dsp_synth", "p0 * 4 + p1 + 2")
        prune = exhaustive_prune("dsp_estim < 24", evaluator=estim)
        sort = exhaustive_sort("dsp_synth", evaluator=synth, ascending=False)
        by_hand = sort.apply(prune.apply(space, ctx()), ctx())
        frame = run_pipeline(Pipeline((prune, sort)), space)
        hand_rows = [space.raw_values(p) for p in by_hand.points]
        assert [tuple(int(v) for v in row[:2]) for row in frame.rows] == hand_rows

    def test_single_identity_step(self, dummy_schema):
        space = build_space(dummy_schema)
        frame = run_pipeline(Pipeline((identity(),)), space)
        assert len(frame) == 459
        assert frame.metric_columns == ()
        assert frame.param_columns == ("param1", "param2", "param3")

    def test_prune_sort_order_insensitive_sets(self):
        space = grid(9, 9)
        ev = expr_evaluator("e", "m", "p0 * 2 + p1")
        prune_first = run_pipeline(
            Pipeline(
                (
                    exhaustive_prune("p0 + p1 >= 4"),
                    exhaustive_sort("m", evaluator=ev),
                )
            ),
            space,
        )
        sort_first = run_pipeline(
            Pipeline(
                (
                    exhaustive_sort("m", evaluator=ev),
                    exhaustive_prune("p0 + p1 >= 4"),
                )
            ),
            space,
        )
        assert {r for r in prune_first.rows} == {r for r in sort_first.rows}

    def test_abort_carries_partial_provenance(self):
        space = grid(4)

        def func(view):
            from dsex.errors import EvalErrorKind

            raise EvalError(EvalErrorKind.TOOL_FAILURE, "dead", exit_code=1)

        bad = Evaluator("bad", ("m",), func)
        pipeline = Pipeline((identity(), exhaustive_map(bad)))
        with pytest.raises(PipelineAborted) as err:
            run_pipeline(pipeline, space)
        prov = err.value.provenance
        assert [s.step for s in prov.steps] == ["identity", "map_bad"]
        assert prov.steps[1].points_out is None
        assert "error" in prov.steps[1].extra

    def test_per_step_policy_overrides_pipeline_default(self):
        space = grid(5)

        def func(view):
            from dsex.errors import EvalErrorKind

            if view.point.coords[0] == 0:
                raise EvalError(EvalErrorKind.TIMEOUT, "slow")
            return (1.0,)

        flaky = Evaluator("flaky", ("m",), func)
        step = exhaustive_map(flaky)
        tolerant = Step_with_policy(step, FailPolicy(FailMode.PRUNE))
        frame = run_pipeline(Pipeline((tolerant,)), space)
        assert len(frame) == 4

    def test_provenance_counters(self):
        space = grid(6, 6)
        ev = expr_evaluator("e", "m", "p0 + p1")
        cache = Cache()
        pipeline = Pipeline((exhaustive_map(ev),))
        frame = run_pipeline(pipeline, space, cache)
        assert frame.provenance.steps[0].evaluator_invocations == 36
        frame2 = run_pipeline(pipeline, space, cache)
        assert frame2.provenance.steps[0].evaluator_invocations == 0
        assert frame2.provenance.steps[0].cache_hits == 36

    def test_metric_column_outlives_its_rows(self, tmp_path):
        # the schema names the column even when no surviving row holds it
        space = build_space(Schema([ParamSpec("a", Linear(0, 3))]))
        pipeline = Pipeline((
            exhaustive_map(expr_evaluator("e", "m", "a * 2")),
            exhaustive_prune("m > 100"),
        ))
        frame = run_pipeline(pipeline, space)
        assert len(frame) == 0
        assert frame.columns == ("a", "m", "degraded")
        frame.to_csv(tmp_path / "frame.csv")
        assert (tmp_path / "frame.csv").read_text() == "a,m,degraded\n"

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ConfigError):
            Pipeline(())


def Step_with_policy(step, policy):
    return dataclasses.replace(step, fail_policy=policy)


def _purity_steps():
    ev = expr_evaluator("e", "m", "a * 2 + b")
    return [
        identity(),
        exhaustive_map(ev),
        exhaustive_sort("a - b", evaluator=ev, ascending=False),
        exhaustive_prune("a + b >= 3", evaluator=ev),
        reduce_dimension("left"),
        gradient_sort([ev], "m"),
        quick_prune([ev], "m >= 4"),
    ]


@pytest.mark.parametrize("step", _purity_steps(), ids=lambda s: s.name)
def test_every_builtin_step_is_pure(step):
    schema = Schema(
        [ParamSpec("a", Linear(0, 4), ("left",)), ParamSpec("b", Linear(0, 3), ("right",))]
    )
    space = build_space(schema)
    before = tuple(space.points)
    first = step.apply(space, ctx())
    second = step.apply(space, ctx())
    assert first.points == second.points
    assert space.points == before
    assert all(p.metrics == () for p in space.points)


@pytest.mark.parametrize(
    "build",
    [lambda evs: gradient_sort(evs, "x"), lambda evs: quick_prune(evs, "x > 0")],
    ids=["gradient", "quick_prune"],
)
def test_chain_producing_a_name_twice_is_refused_when_built(build):
    e1, e2 = expr_evaluator("e1", "x", "1.0"), expr_evaluator("e2", "x", "2.0")
    with pytest.raises(ConfigError, match="produces a name twice"):
        build([e1, e2])
    with pytest.raises(ConfigError, match="produces a name twice"):
        build(iter([e1, e1]))


@st.composite
def oracle_cases(draw, min_axes=1):
    """A schema of ``min_axes`` to 4 mixed axes with 1 to 7 values each,
    maybe tagged with a concern, and positive weights on its parameters."""
    n_axes = draw(st.integers(min_axes, 4))
    concern = draw(st.sampled_from([None, "qos"]))
    tagged = draw(st.integers(0, n_axes - 1))  # an axis that surely carries it
    params = []
    for k in range(n_axes):
        size = draw(st.integers(1, 7))
        kind = draw(st.sampled_from(["linear", "pow2", "enum"]))
        if kind == "linear":
            lo = draw(st.integers(-3, 3))
            domain = Linear(lo, lo + size - 1)
        elif kind == "pow2":
            lo = draw(st.integers(0, 2))
            domain = Pow2(lo, lo + size - 1)
        else:
            # ascending, so that every parameter grows with its index
            items = draw(st.lists(st.integers(-9, 20), min_size=size, max_size=size, unique=True))
            domain = Enumerated(sorted(items))
        tags = ()
        if concern is not None:
            tags = ("qos",) if k == tagged else (draw(st.sampled_from(["qos", "other"])),)
        params.append(ParamSpec(f"p{k}", domain, tags))
    weights = draw(st.lists(st.integers(1, 3), min_size=n_axes, max_size=n_axes))
    return Schema(params), concern, weights


class TestNeighbourhoodOracle:
    """quick_prune and gradient on random grids, against exhaustive values
    computed here without dsex."""

    @staticmethod
    def monotone_keep(case, data):
        """A drawn threshold on the case's weighted sum, taken on each
        point's concern image: a monotone keep condition.

        Returns the grid, the concern's axes, the sum on an input point's
        coords, whether a sum is kept, whether a work-grid point is kept,
        the side, the keep condition and the evaluator expression that
        produces the sum as ``m``.
        """
        schema, concern, weights = case
        space = build_space(schema)
        axes = [
            k for k, p in enumerate(schema.params) if concern is None or concern in p.concerns
        ]

        def image_sum(coords):
            # the predicate's sum on the point's concern image: removed
            # parameters sit at their domain minimum
            return sum(
                w * (p.domain.values()[c] if k in axes else min(p.domain.values()))
                for k, (w, p, c) in enumerate(zip(weights, schema.params, coords))
            )

        sums = [image_sum(p.coords) for p in space.points]
        threshold = data.draw(st.integers(min(sums) - 1, max(sums) + 1))
        side = data.draw(st.sampled_from(list(KeepSide)))
        op = ">=" if side is KeepSide.UPWARD else "<="
        holds = (lambda s: s >= threshold) if op == ">=" else (lambda s: s <= threshold)
        expression = " + ".join(f"{w} * p{k}" for k, w in enumerate(weights))

        def kept(work_coords):
            coords = [0] * len(schema)  # image_sum reads no removed axis
            for k, c in zip(axes, work_coords):
                coords[k] = c
            return holds(image_sum(coords))

        return space, axes, image_sum, holds, kept, side, f"m {op} {threshold}", expression

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(case=oracle_cases(), data=st.data())
    def test_quick_prune_keeps_the_exhaustive_prune(self, case, data):
        schema, concern, _ = case
        space, axes, image_sum, holds, kept, side, keep, expression = self.monotone_keep(
            case, data
        )
        sums = [image_sum(p.coords) for p in space.points]

        runs = []
        for parallelism in (1, 3):
            ev, calls = counting(expr_evaluator("e", "m", expression))
            context = ctx(parallelism=parallelism)
            out = quick_prune([ev], keep, side, concern).apply(space, context)
            runs.append((out.points, sorted(calls), dict(context.extra)))
        assert runs[0] == runs[1]
        points, calls, extra = runs[0]

        expected = [p.coords for p, s in zip(space.points, sums) if holds(s)]
        assert [p.coords for p in points] == expected
        work_size = math.prod(schema.cardinalities[k] for k in axes)
        assert extra["predicate_evaluations"] == len(calls) <= work_size
        assert extra["evaluated_fraction"] == len(calls) / work_size
        # inference is exact on a monotone predicate, so the audit agrees
        assert (extra["audit_failures"], extra["fell_back"], extra["failures_in_closure"]) == (
            0, False, 0
        )
        unprobed = {tuple(p.coords[k] for k in axes) for p in points} - set(calls)
        assert extra["unprobed_kept"] == len(unprobed)
        # every recorded frontier point is kept and has a Chebyshev
        # neighbour on the work grid that is not
        work_cards = [schema.cardinalities[k] for k in axes]
        for c in extra["frontier"]:
            assert kept(c), c
            ring = itertools.product(*(
                range(max(x - 1, 0), min(x + 1, n - 1) + 1) for x, n in zip(c, work_cards)
            ))
            assert not all(kept(r) for r in ring), c
        # a probed point carries the metric of its image
        for p in points:
            if p.metrics[0] is not None:
                assert p.metrics == (image_sum(p.coords),)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(case=oracle_cases(min_axes=2), data=st.data())
    def test_quick_prune_probes_no_point_an_earlier_probe_implies(self, case, data):
        concern = case[1]
        space, _, image_sum, holds, kept, side, keep, expression = self.monotone_keep(case, data)

        runs = []
        for parallelism in (1, 3):
            ev, calls = counting(expr_evaluator("e", "m", expression))
            context = ctx(parallelism=parallelism)
            out = quick_prune([ev], keep, side, concern).apply(space, context)
            runs.append(([p.coords for p in out.points], calls, context.extra["audited"]))
        assert runs[0][0] == [p.coords for p in space.points if holds(image_sum(p.coords))]
        assert runs[0][0] == runs[1][0]
        assert sorted(runs[0][1]) == sorted(runs[1][1])

        def at_or_below(a, b):
            return all(x <= y for x, y in zip(a, b))

        # at parallelism 1 the calls come in probe order, the audit last
        _, calls, audited = runs[0]
        for i, c in enumerate(calls[: len(calls) - audited]):
            for d in calls[:i]:
                # under the monotone assumption d's verdict settles the
                # points above it (lo = d) or below it (hi = d)
                lo, hi = (d, c) if kept(d) == (side is KeepSide.UPWARD) else (c, d)
                assert not at_or_below(lo, hi), (d, c)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(case=oracle_cases(), data=st.data())
    def test_quick_prune_keeps_no_point_it_saw_fail(self, case, data):
        # a predicate drawn point by point is rarely monotone: inference
        # then asserts wrong verdicts, which the audit may or may not meet
        schema, concern, _ = case
        space = build_space(schema)
        axes = [
            k for k, p in enumerate(schema.params) if concern is None or concern in p.concerns
        ]
        work = list(itertools.product(*(range(schema.cardinalities[k]) for k in axes)))
        values = data.draw(st.lists(st.integers(0, 9), min_size=len(work), max_size=len(work)))
        table = dict(zip(work, map(float, values)))
        threshold = data.draw(st.integers(0, 10))
        side = data.draw(st.sampled_from(list(KeepSide)))
        op = ">=" if side is KeepSide.UPWARD else "<="
        holds = (lambda v: v >= threshold) if op == ">=" else (lambda v: v <= threshold)
        passes = {c for c, v in table.items() if holds(v)}

        def image(coords):
            return tuple(coords[k] for k in axes)

        runs = []
        for parallelism in (1, 3):
            ev, calls = counting(Evaluator("e", ("m",), lambda v: (table[v.point.coords],)))
            context = ctx(parallelism=parallelism)
            out = quick_prune([ev], f"m {op} {threshold}", side, concern).apply(space, context)
            runs.append((out.points, sorted(calls), dict(context.extra)))
        assert runs[0] == runs[1]
        points, calls, extra = runs[0]

        assert extra["predicate_evaluations"] == len(calls) == len(set(calls))
        assert extra["evaluated_fraction"] == len(calls) / len(work)
        # no survivor was probed and seen to fail; a probed one carries its value
        for p in points:
            if image(p.coords) in calls:
                assert image(p.coords) in passes
                assert p.metrics == (table[image(p.coords)],)
            else:
                assert p.metrics == (None,)
        assert extra["fell_back"] == (extra["audit_failures"] > 0)
        assert extra["audit_failures"] <= extra["audited"]
        assert extra["unprobed_kept"] == len({image(p.coords) for p in points} - set(calls))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(case=oracle_cases(), data=st.data())
    def test_quick_prune_does_not_depend_on_the_point_order(self, case, data):
        # a weighted sum kicked up or down at some points is not monotone,
        # so the walk infers, audits and may fall back: the grid listed
        # in row-major order, reversed or permuted must probe the same
        # coords in the same order, keep the same points in the order of
        # its input and record the same provenance
        schema, concern, weights = case
        space = build_space(schema)
        axes = [
            k for k, p in enumerate(schema.params) if concern is None or concern in p.concerns
        ]
        work = list(itertools.product(*(range(schema.cardinalities[k]) for k in axes)))
        kicks = data.draw(
            st.lists(st.sampled_from([0] * 5 + [-3, 3]), min_size=len(work), max_size=len(work))
        )
        table = {
            c: float(sum(weights[k] * x for k, x in zip(axes, c)) + kick)
            for c, kick in zip(work, kicks)
        }
        threshold = data.draw(st.integers(int(min(table.values())), int(max(table.values()))))
        side = data.draw(st.sampled_from(list(KeepSide)))
        keep = f"m {'>=' if side is KeepSide.UPWARD else '<='} {threshold}"
        orders = {
            "row-major": space.points,
            "reversed": space.points[::-1],
            "drawn": tuple(data.draw(st.permutations(space.points))),
        }

        runs = []
        for points in orders.values():
            ev, calls = counting(Evaluator("e", ("m",), lambda v: (table[v.point.coords],)))
            context = ctx()
            out = quick_prune([ev], keep, side, concern).apply(DesignSpace(schema, points), context)
            runs.append((points, calls, out.points, context.extra))
        _, calls, kept, extra = runs[0]
        by_coords = {p.coords: p for p in kept}
        for points, other_calls, other_kept, other_extra in runs[1:]:
            assert other_calls == calls
            assert list(other_kept) == [by_coords[p.coords] for p in points if p.coords in by_coords]
            assert other_extra == extra

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(case=oracle_cases(), data=st.data())
    def test_gradient_head_is_a_local_optimum(self, case, data):
        schema, concern, _ = case
        space = build_space(schema)
        if concern is not None:
            space = project_space(space, concern)  # the schema gains frozen params
        n = len(space.schema)
        linear = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        square = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        maximize = data.draw(st.booleans())
        expression = " + ".join(
            f"{a} * {name} - {b} * {name} * {name}"
            for a, b, name in zip(linear, square, space.schema.names)
        )

        def value(coords):
            raws = (p.domain.values()[c] for p, c in zip(space.schema.params, coords))
            return sum(a * v - b * v * v for a, b, v in zip(linear, square, raws))

        runs = []
        for parallelism in (1, 3):
            ev, calls = counting(expr_evaluator("e", "m", expression))
            out = gradient_sort([ev], "m", maximize).apply(space, ctx(parallelism=parallelism))
            runs.append((out.points, sorted(calls)))
        assert runs[0] == runs[1]
        points, calls = runs[0]

        assert sorted(p.coords for p in points) == calls
        values = [p.metrics[-1] for p in points]
        assert values == [value(p.coords) for p in points]
        assert values == sorted(values, reverse=maximize)
        head = points[0].coords
        ring = [
            p.coords for p in space.points
            if sum(abs(a - b) for a, b in zip(p.coords, head)) == 1
        ]
        better = (lambda u, v: u > v) if maximize else (lambda u, v: u < v)
        assert not any(better(value(c), value(head)) for c in ring)
