import dataclasses
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsex import (
    Cache,
    CommandSpec,
    DesignSpace,
    Enumerated,
    Evaluator,
    EvalError,
    FailMode,
    FailPolicy,
    Linear,
    MetricCollision,
    ParamSpec,
    Pipeline,
    PipelineAborted,
    Point,
    PointView,
    Pow2,
    Schema,
    apply_transform,
    build_space,
    exhaustive_map,
    exhaustive_prune,
    exhaustive_sort,
    expr_evaluator,
    external_command,
    gradient_sort,
    quick_prune,
    run_pipeline,
)
from dsex import metrics
from dsex.errors import ConfigError, EvalErrorKind

from conftest import counting


def failing_on_first_axis(name="flaky"):
    def func(view):
        if view.point.coords[0] == 0:
            raise EvalError(EvalErrorKind.TOOL_FAILURE, "boom", exit_code=3)
        return (1.0,)

    return Evaluator(name, ("m",), func)


@pytest.fixture
def grid_17x9():
    return build_space(Schema([ParamSpec("a", Linear(0, 16)), ParamSpec("b", Linear(0, 8))]))


class TestApplyTransform:
    def test_efficiency_metric_value(self):
        schema = Schema([ParamSpec("p", Linear(0, 0))])
        space = build_space(schema)
        space = apply_transform(space, expr_evaluator("f", "freq", "247.56"), Cache())
        space = apply_transform(space, expr_evaluator("l", "lut_pct", "0.77"), Cache())
        eff = expr_evaluator("eff", "eff", "freq / lut_pct")
        out = apply_transform(space, eff, Cache())
        assert out.schema.metrics[-1] == "eff"
        assert out.points[0].metrics[-1] == pytest.approx(321.5064935064935)

    def test_constant_transform_preserves_cardinality(self, dummy_schema):
        space = build_space(dummy_schema)
        out = apply_transform(space, expr_evaluator("one", "one", "1.0"), Cache())
        assert len(out) == 459
        assert out.schema.metrics == ("one",)
        assert all(p.metrics == (1.0,) for p in out.points)
        # input untouched
        assert space.schema.metrics == ()
        assert all(p.metrics == () for p in space.points)

    def test_prune_failed_drops_failing_points(self, grid_17x9):
        out = apply_transform(
            grid_17x9, failing_on_first_axis(), Cache(), FailPolicy(FailMode.PRUNE)
        )
        assert len(out) == 16 * 9 == 144

    def test_abort_surfaces_first_error_in_point_order(self, grid_17x9):
        for parallelism in (1, 4):
            with pytest.raises(EvalError) as err:
                apply_transform(
                    grid_17x9, failing_on_first_axis(), Cache(), parallelism=parallelism
                )
            assert err.value.coords == (0, 0)
            assert err.value.exit_code == 3

    @pytest.mark.parametrize("mode", list(FailMode))
    def test_the_earliest_error_surfaces_at_any_parallelism(self, mode):
        # an EvalError at a == 0 and a wrong arity at a == 3: the policy
        # handles the first unless it is ABORT, never the second
        def func(view):
            a = view.point.coords[0]
            if a == 0:
                raise EvalError(EvalErrorKind.TOOL_FAILURE, "boom")
            return (1.0, 2.0) if a == 3 else (1.0,)

        space = build_space(Schema([ParamSpec("a", Linear(0, 3))]))
        policy = FailPolicy(mode, {"m": -1.0})
        raised = []
        for parallelism in (1, 2, 3):
            with pytest.raises((EvalError, ConfigError)) as err:
                apply_transform(space, Evaluator("e", ("m",), func), Cache(), policy, parallelism)
            raised.append((type(err.value), str(err.value), getattr(err.value, "coords", None)))
        assert raised == [raised[0]] * 3
        assert raised[0][0] is (EvalError if mode is FailMode.ABORT else ConfigError)

    @pytest.mark.parametrize(
        "returned", [("x",), (None,), None], ids=["string", "none_value", "none"]
    )
    @pytest.mark.parametrize("mode", list(FailMode))
    def test_a_non_number_from_func_is_a_config_error(self, mode, returned):
        # an EvalError at a == 0 and a non-number at a == 3: the policy
        # handles the first unless it is ABORT, never the second
        def func(view):
            a = view.point.coords[0]
            if a == 0:
                raise EvalError(EvalErrorKind.TOOL_FAILURE, "boom")
            return returned if a == 3 else (1.0,)

        space = build_space(Schema([ParamSpec("a", Linear(0, 3))]))
        policy = FailPolicy(mode, {"m": -1.0})
        raised = []
        for parallelism in (1, 2, 3):
            with pytest.raises((EvalError, ConfigError)) as err:
                apply_transform(space, Evaluator("e", ("m",), func), Cache(), policy, parallelism)
            raised.append((type(err.value), str(err.value)))
        if mode is FailMode.ABORT:
            assert raised == [(EvalError, "tool_failure: boom")] * 3
        else:
            message = f"evaluator 'e' returned {returned!r}, not numbers"
            assert raised == [(ConfigError, message)] * 3

    def test_an_aborting_parallel_batch_is_finished_first(self):
        # the one way the parallelism shows: the pool finishes its batch
        # before it raises, the same error the sequential path stops at
        space = build_space(Schema([ParamSpec("a", Linear(0, 9))]))
        raised = []
        for parallelism in (1, 2):
            cache = Cache()
            with pytest.raises(EvalError) as err:
                apply_transform(space, failing_on_first_axis(), cache, parallelism=parallelism)
            raised.append((str(err.value), err.value.coords, err.value.exit_code))
            if parallelism == 1:
                assert cache.counters() == (0, 1)
        assert raised == [("tool_failure: boom", (0,), 3)] * 2

    def test_sequential_abort_stops_at_first_failure(self, grid_17x9):
        ev, calls = counting(failing_on_first_axis())
        with pytest.raises(EvalError):
            apply_transform(grid_17x9, ev, Cache(), parallelism=1)
        assert calls == [(0, 0)]

    def test_assign_worst_keeps_count_and_tags(self, grid_17x9):
        policy = FailPolicy(FailMode.ASSIGN_WORST, {"m": -1.0})
        out = apply_transform(grid_17x9, failing_on_first_axis(), Cache(), policy)
        assert len(out) == len(grid_17x9)
        degraded = [p for p in out.points if p.degraded]
        assert len(degraded) == 9
        assert out.schema.metrics == ("m",)
        assert all(p.metrics == (-1.0,) for p in degraded)

    def test_assign_worst_requires_configured_value(self, grid_17x9):
        policy = FailPolicy(FailMode.ASSIGN_WORST)
        with pytest.raises(ConfigError):
            apply_transform(grid_17x9, failing_on_first_axis(), Cache(), policy)

    @pytest.mark.parametrize(
        "worst",
        [{"m": "abc"}, {"m": "1.5"}, {"m": float("inf")}, {"m": float("nan")}, {"m": True},
         {1: 0.0}, [("m", 0.0)]],
    )
    def test_worst_values_checked_at_construction(self, worst):
        with pytest.raises(ConfigError, match="finite numbers"):
            FailPolicy(FailMode.ASSIGN_WORST, worst)

    def test_name_collision_rejected(self, grid_17x9):
        with pytest.raises(MetricCollision):
            apply_transform(grid_17x9, expr_evaluator("x", "a", "1.0"), Cache())
        once = apply_transform(grid_17x9, expr_evaluator("x", "m", "1.0"), Cache())
        with pytest.raises(MetricCollision):
            apply_transform(once, expr_evaluator("y", "m", "2.0"), Cache())

    def test_arity_mismatch(self, grid_17x9):
        bad = Evaluator("bad", ("x", "y"), lambda view: (1.0,))
        with pytest.raises(ConfigError):
            apply_transform(grid_17x9, bad, Cache())

    def test_parallelism_is_invisible(self, grid_17x9):
        ev = expr_evaluator("s", "s", "a * 10 + b")
        seq = apply_transform(grid_17x9, ev, Cache(), parallelism=1)
        par = apply_transform(grid_17x9, ev, Cache(), parallelism=8)
        assert seq.points == par.points

    def test_a_fully_cached_batch_takes_no_thread(self, grid_17x9, monkeypatch):
        ev, calls = counting(expr_evaluator("s", "s", "a * 10 + b"))
        cache = Cache()
        half = DesignSpace(grid_17x9.schema, grid_17x9.points[::2])
        apply_transform(half, ev, cache)
        mixed = apply_transform(grid_17x9, ev, cache, parallelism=4)
        assert sorted(calls) == sorted(p.coords for p in grid_17x9.points)
        assert mixed.points == apply_transform(grid_17x9, ev, Cache()).points
        # a fully cached batch never reaches the pool
        monkeypatch.setattr(metrics, "ThreadPoolExecutor", None)
        assert apply_transform(grid_17x9, ev, cache, parallelism=4).points == mixed.points

    def test_abort_in_a_partly_cached_batch(self, grid_17x9):
        ev = failing_on_first_axis()
        cache = Cache()
        head = DesignSpace(grid_17x9.schema, grid_17x9.points[:1])
        apply_transform(head, ev, cache, FailPolicy(FailMode.PRUNE))
        # the stored failure at (0, 0) replays ahead of the fresh ones
        with pytest.raises(EvalError) as err:
            apply_transform(grid_17x9, ev, cache, parallelism=4)
        assert err.value.coords == (0, 0)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_a_declined_batch_with_one_uncached_point(self, parallelism):
        # the stored failure at a == 0 declines the lookup, and only a == 3
        # is uncached: the pool takes the whole batch and finishes it before
        # it raises, the sequential path stops at the stored failure
        ev, calls = counting(failing_on_first_axis())
        space = build_space(Schema([ParamSpec("a", Linear(0, 3))]))
        cache = Cache()
        warm = DesignSpace(space.schema, space.points[:3])
        apply_transform(warm, ev, cache, FailPolicy(FailMode.PRUNE))
        assert calls == [(0,), (1,), (2,)] and cache.counters() == (0, 3)
        with pytest.raises(EvalError) as err:
            apply_transform(space, ev, cache, parallelism=parallelism)
        assert (str(err.value), err.value.coords) == ("tool_failure: boom", (0,))
        if parallelism == 1:
            assert calls == [(0,), (1,), (2,)] and cache.counters() == (1, 3)
        else:
            assert calls == [(0,), (1,), (2,), (3,)] and cache.counters() == (3, 4)

    def test_composition_equals_fused(self, grid_17x9):
        f = expr_evaluator("f", "f_m", "a + 1")
        g = expr_evaluator("g", "g_m", "b * 2")

        def fused_func(view):
            env = view.env
            return (env["a"] + 1, env["b"] * 2)

        fused = Evaluator("fused", ("f_m", "g_m"), fused_func)
        chained = apply_transform(apply_transform(grid_17x9, f, Cache()), g, Cache())
        direct = apply_transform(grid_17x9, fused, Cache())
        assert chained.schema == direct.schema
        assert [p.metrics for p in chained.points] == [p.metrics for p in direct.points]


class TestCache:
    def test_idempotent_second_pass(self, grid_17x9):
        ev, calls = counting(expr_evaluator("e", "m", "a + b"))
        cache = Cache()
        apply_transform(grid_17x9, ev, cache)
        first_misses = cache.misses
        assert len(calls) == len(grid_17x9)
        apply_transform(grid_17x9, ev, cache)
        assert cache.misses == first_misses
        assert len(calls) == len(grid_17x9)
        assert cache.hits == len(grid_17x9)

    def test_errors_are_cached(self, grid_17x9):
        ev, calls = counting(failing_on_first_axis())
        cache = Cache()
        policy = FailPolicy(FailMode.PRUNE)
        apply_transform(grid_17x9, ev, cache, policy)
        assert len(calls) == len(grid_17x9)
        apply_transform(grid_17x9, ev, cache, policy)
        assert len(calls) == len(grid_17x9)

    def test_key_includes_frozen_params(self):
        # schemas that differ only in frozen values never share an entry
        params = [ParamSpec("a", Linear(0, 1))]
        point = build_space(Schema(params)).points[0]
        ev = expr_evaluator("c", "m", "1.0")
        cache = Cache()
        for value in (None, 4.0, 5.0, 4.0):
            frozen = () if value is None else (("z", value),)
            cache.run(ev, PointView(Schema(params, frozen), point))
        assert (cache.misses, cache.hits) == (3, 1)

    @pytest.mark.parametrize("columns", [True, False], ids=["column", "per_point"])
    def test_key_includes_domain_values(self, columns):
        # coords mean nothing without the domain they index
        ev = expr_evaluator("m", "m", "a")
        ev = ev if columns else dataclasses.replace(ev, column_func=None)
        cache = Cache()
        for lo in (0, 10, 0):
            space = build_space(Schema([ParamSpec("a", Linear(lo, lo + 2))]))
            out = apply_transform(space, ev, cache)
            assert [p.metrics for p in out.points] == [(lo + 0.0,), (lo + 1.0,), (lo + 2.0,)]
        assert cache.counters() == (3, 6)

    def test_a_racing_computation_keeps_the_first_write(self):
        # both lookups miss and compute; the one that stores first wins,
        # and the other caller gets the stored value, not its own
        entered, finished = [], []
        lock, both_in = threading.Lock(), threading.Barrier(2, timeout=5)
        returned = threading.Event()  # set once a cache.run call has returned

        def func(view):
            with lock:
                mine = len(entered)
                entered.append(mine)
            both_in.wait()
            if mine == 0:
                # only the second computation's run can have returned, so it stored first
                assert returned.wait(timeout=5)
            finished.append(mine)
            return (float(mine),)

        ev = Evaluator("race", ("m",), func)
        space = build_space(Schema([ParamSpec("a", Linear(0, 0))]))
        view = PointView(space.schema, space.points[0])
        cache = Cache()
        got = []

        def lookup():
            got.append(cache.run(ev, view))
            returned.set()

        threads = [threading.Thread(target=lookup) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert finished == [1, 0]
        assert got == [(1.0,), (1.0,)]
        assert cache.run(ev, view) == (1.0,)
        assert cache.counters() == (1, 2)

    def test_a_racing_column_keeps_the_first_write(self):
        # a result stored while the column is computed wins over the
        # column's own value for that point; both computations count
        space = build_space(Schema([ParamSpec("a", Linear(0, 1))]))
        cache = Cache()
        racer = Evaluator("e", ("m",), lambda view: (7.0,))

        def column_func(schema, points):
            cache.run(racer, PointView(schema, points[0]))
            return [[float(p.coords[0]) for p in points]]

        ev = Evaluator("e", ("m",), lambda view: (-1.0,), column_func)
        assert cache.run_columns([ev], space.schema, space.points) is not None
        views = [PointView(space.schema, p) for p in space.points]
        assert [cache.run(ev, view) for view in views] == [(7.0,), (1.0,)]
        assert cache.counters() == (2, 3)


def _oracle_evaluators():
    # "sum" never fails; "flaky" fails wherever a == 0
    def flaky(view):
        if view.env["a"] == 0:
            raise EvalError(EvalErrorKind.TOOL_FAILURE, "boom")
        return (view.env["a"] * view.env["z"],)

    return [
        Evaluator("sum", ("s",), lambda view: (view.env["a"] + view.env["b"] + view.env["z"],)),
        Evaluator("flaky", ("f",), flaky),
    ]


@st.composite
def views(draw):
    """A point on a random schema with frozen params, holding values for
    a prefix of the schema's metrics, some of them None."""
    domains = draw(st.lists(
        st.one_of(
            st.tuples(st.integers(-3, 3), st.integers(0, 3)).map(lambda t: Linear(t[0], t[0] + t[1])),
            st.tuples(st.integers(0, 3), st.integers(0, 2)).map(lambda t: Pow2(t[0], t[0] + t[1])),
            st.lists(st.integers(-50, 50), min_size=1, max_size=4, unique=True).map(Enumerated),
        ),
        min_size=1, max_size=4,
    ))
    values = st.floats(allow_nan=False, allow_infinity=False)
    frozen = [(f"z{k}", v) for k, v in enumerate(draw(st.lists(values, max_size=3)))]
    metrics = [f"m{k}" for k in range(draw(st.integers(0, 4)))]
    schema = Schema([ParamSpec(f"p{k}", d) for k, d in enumerate(domains)], frozen, metrics)
    coords = tuple(draw(st.integers(0, len(d.values()) - 1)) for d in domains)
    held = draw(st.integers(0, len(metrics)))
    return schema, Point(coords, tuple(draw(st.one_of(st.none(), values)) for _ in range(held)))


class TestPointView:
    @settings(max_examples=200, deadline=None)
    @given(view=views())
    def test_env_matches_a_name_by_name_reference(self, view):
        schema, point = view
        reference = {}
        for param, c in zip(schema.params, point.coords):
            reference[param.name] = float(param.domain.values()[c])
        for name, value in schema.frozen:
            reference[name] = value
        for name, value in zip(schema.metrics, point.metrics):
            if value is not None:
                reference[name] = value
        pv = PointView(schema, point)
        env = pv.env
        assert env == reference
        assert pv.env is env  # built once per view

    def test_env_stays_a_cached_property(self):
        # the traced benchmark re-wraps PointView.env.func in a plain cached_property
        from functools import cached_property

        assert isinstance(PointView.__dict__["env"], cached_property)
        assert callable(PointView.env.func)


class TestCacheOracle:
    """The per-(evaluator, frozen params) tables against one flat dict keyed
    by (evaluator name, coords, frozen params)."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_interleavings_match_a_flat_reference(self, data):
        params = [ParamSpec("a", Linear(0, 2)), ParamSpec("b", Linear(0, 1))]
        # two schemas that differ only in frozen values
        schemas = [Schema(params, (("z", z),)) for z in (1.0, 2.0)]
        points = build_space(Schema(params)).points
        counted = [counting(ev) for ev in _oracle_evaluators()]
        evaluators = [ev for ev, _ in counted]
        cache, reference, hits, misses = Cache(), {}, 0, 0
        for _ in range(data.draw(st.integers(1, 60))):
            schema = data.draw(st.sampled_from(schemas))
            point = data.draw(st.sampled_from(points))
            if data.draw(st.booleans()):
                # a one-point batch through the chain lookup: the wrappers have
                # no column form, so it resolves exactly when every result of
                # the chain is stored and none is a failure
                chain = data.draw(st.lists(st.sampled_from(evaluators), max_size=2))
                stored = [reference.get((ev.name, point.coords, schema.frozen)) for ev in chain]
                got = cache.run_columns(chain, schema, [point])
                if all(v is not None and not isinstance(v[0], EvalErrorKind) for v in stored):
                    hits += len(chain)
                    assert got == [Point(point.coords, sum(stored, ()))]
                else:
                    assert got is None
                assert cache.counters() == (hits, misses)
                continue
            ev = data.draw(st.sampled_from(evaluators))
            key = (ev.name, point.coords, schema.frozen)
            view = PointView(schema, point)
            if key in reference:
                hits += 1
            else:
                misses += 1
                try:
                    reference[key] = ev.func(view)
                except EvalError as err:
                    reference[key] = (err.kind, point.coords)
            try:
                got = cache.run(ev, PointView(schema, point))
            except EvalError as err:
                got = (err.kind, err.coords)
            assert got == reference[key], key
            assert cache.counters() == (hits, misses)
        # every result or failure was computed once: the reference's own call
        # plus the cache's, and replays never reach the evaluator
        assert sum(len(calls) for _, calls in counted) == 2 * len(reference)


def nan_on_first_axis():
    def func(view):
        return (float("nan") if view.point.coords[0] == 0 else 1.0,)

    return Evaluator("nan", ("m",), func)


class TestNonFinite:
    def test_prune_drops_the_point(self, grid_17x9):
        out = apply_transform(
            grid_17x9, nan_on_first_axis(), Cache(), FailPolicy(FailMode.PRUNE)
        )
        assert len(out) == 16 * 9
        assert all(p.coords[0] != 0 for p in out.points)

    def test_assign_worst_substitutes_and_tags(self, grid_17x9):
        policy = FailPolicy(FailMode.ASSIGN_WORST, {"m": -1.0})
        out = apply_transform(grid_17x9, nan_on_first_axis(), Cache(), policy)
        degraded = [p for p in out.points if p.degraded]
        assert [p.coords for p in degraded] == [(0, b) for b in range(9)]
        assert out.schema.metrics == ("m",)
        assert all(p.metrics == (-1.0,) for p in degraded)

    def test_abort_aborts_the_pipeline(self, grid_17x9):
        with pytest.raises(PipelineAborted) as err:
            run_pipeline(Pipeline((exhaustive_map(nan_on_first_axis()),)), grid_17x9)
        assert err.value.cause.kind is EvalErrorKind.NON_FINITE
        assert err.value.cause.coords == (0, 0)

    def test_failure_is_stored_and_replayed(self, grid_17x9):
        ev, calls = counting(nan_on_first_axis())
        cache = Cache()
        view = PointView(grid_17x9.schema, grid_17x9.points[0])
        for _ in range(2):
            with pytest.raises(EvalError) as err:
                cache.run(ev, view)
            assert err.value.kind is EvalErrorKind.NON_FINITE
        assert len(calls) == 1
        assert cache.counters() == (1, 1)

    def test_overflowing_expression(self, grid_17x9):
        ev = expr_evaluator("x", "m", "a * 1e308 * 10")
        out = apply_transform(grid_17x9, ev, Cache(), FailPolicy(FailMode.PRUNE))
        # a == 0 gives 0, every other point overflows to inf
        assert [p.coords for p in out.points] == [(0, b) for b in range(9)]

    def test_command_printing_nan(self):
        space = build_space(Schema([ParamSpec("x", Linear(0, 0))]))
        spec = CommandSpec(argv=(sys.executable, "-c", "print('{\"m\": NaN}')"), produces=("m",))
        tool = external_command("tool", spec)
        with pytest.raises(EvalError) as err:
            apply_transform(space, tool, Cache())
        assert err.value.kind is EvalErrorKind.NON_FINITE
        assert len(apply_transform(space, tool, Cache(), FailPolicy(FailMode.PRUNE))) == 0


class TestExternalCommand:
    def test_constant_subprocess(self):
        schema = Schema([ParamSpec("nbCore", Linear(1, 64))])
        space = build_space(schema)
        spec = CommandSpec(
            argv=(sys.executable, "-c", "print('{\"lut\": 10}')"),
            produces=("lut",),
        )
        out = apply_transform(space, external_command("tool", spec), Cache(), parallelism=8)
        assert out.schema.metrics == ("lut",)
        assert all(p.metrics == (10.0,) for p in out.points)

    def test_argv_substitution(self):
        schema = Schema([ParamSpec("nbCore", Linear(64, 64))])
        space = build_space(schema)
        spec = CommandSpec(
            argv=(
                sys.executable,
                "-c",
                "import sys, json; print(json.dumps({'echo': float(sys.argv[2])}))",
                "--n",
                "{nbCore}",
            ),
            produces=("echo",),
        )
        out = apply_transform(space, external_command("tool", spec), Cache())
        assert out.schema.metrics == ("echo",)
        assert out.points[0].metrics == (64.0,)

    def test_env_substitution_and_dsex_vars(self):
        schema = Schema([ParamSpec("nbCore", Linear(7, 7))])
        space = build_space(schema)
        code = (
            "import os, json;"
            "print(json.dumps({'a': float(os.environ['DSEX_NBCORE']),"
            " 'b': float(os.environ['CUSTOM'])}))"
        )
        spec = CommandSpec(
            argv=(sys.executable, "-c", code),
            produces=("a", "b"),
            env={"CUSTOM": "{nbCore}"},
        )
        out = apply_transform(space, external_command("tool", spec), Cache())
        assert out.schema.metrics == ("a", "b")
        assert out.points[0].metrics == (7.0, 7.0)

    def test_dsex_vars_render_raw_values(self):
        # pow2 and enum axes give their raw values, integral frozen
        # params lose the fractional part, others keep it
        schema = Schema(
            [ParamSpec("width", Pow2(0, 4)), ParamSpec("depth", Enumerated([4, 11, 9]))],
            (("lanes", 4.0), ("ratio", 2.5)),
        )
        space = DesignSpace(schema, [Point((3, 1))])
        code = (
            "import os, sys\n"
            "got = [os.environ.get('DSEX_' + n) for n in ('WIDTH', 'DEPTH', 'LANES', 'RATIO')]\n"
            "if got != ['8', '11', '4', '2.5']:\n"
            "    sys.exit(str(got))\n"
            "print('{\"ok\": 1}')\n"
        )
        spec = CommandSpec(argv=(sys.executable, "-c", code), produces=("ok",))
        out = apply_transform(space, external_command("tool", spec), Cache())
        assert out.schema.metrics == ("ok",)
        assert out.points[0].metrics == (1.0,)

    @pytest.mark.parametrize(
        "params, frozen, names",
        [
            ([("a", Linear(0, 1)), ("A", Linear(5, 6))], (), "'a' and 'A'"),
            ([("width", Linear(0, 1))], (("WIDTH", 2.0),), "'width' and 'WIDTH'"),
        ],
        ids=["params", "frozen"],
    )
    def test_names_sharing_a_variable_are_refused_before_spawning(self, params, frozen, names):
        # a tool that cannot start would fail each point with an EvalError,
        # so the ConfigError shows that no process was started
        schema = Schema([ParamSpec(n, d) for n, d in params], frozen)
        spec = CommandSpec(argv=("/nonexistent/tool",), produces=("m",))
        policy = FailPolicy(FailMode.PRUNE)
        with pytest.raises(ConfigError, match=f"{names} both pass as DSEX_"):
            apply_transform(build_space(schema), external_command("tool", spec), Cache(), policy)

    def test_timeout(self):
        schema = Schema([ParamSpec("x", Linear(0, 0))])
        space = build_space(schema)
        spec = CommandSpec(
            argv=(sys.executable, "-c", "import time; time.sleep(30)"),
            produces=("m",),
            timeout_s=0.5,
        )
        with pytest.raises(EvalError) as err:
            apply_transform(space, external_command("tool", spec), Cache())
        assert err.value.kind is EvalErrorKind.TIMEOUT

    def test_tool_failure_exit_code(self):
        schema = Schema([ParamSpec("x", Linear(0, 0))])
        space = build_space(schema)
        spec = CommandSpec(
            argv=(sys.executable, "-c", "import sys; sys.exit(9)"), produces=("m",)
        )
        with pytest.raises(EvalError) as err:
            apply_transform(space, external_command("tool", spec), Cache())
        assert err.value.kind is EvalErrorKind.TOOL_FAILURE
        assert err.value.exit_code == 9

    @pytest.mark.parametrize(
        "code",
        ["print('not json')", "print('[1, 2]')", "print('{\"other\": 1}')",
         "print('{\"m\": \"high\"}')"],
    )
    def test_parse_failures(self, code):
        schema = Schema([ParamSpec("x", Linear(0, 0))])
        space = build_space(schema)
        spec = CommandSpec(argv=(sys.executable, "-c", code), produces=("m",))
        with pytest.raises(EvalError) as err:
            apply_transform(space, external_command("tool", spec), Cache())
        assert err.value.kind is EvalErrorKind.PARSE_FAILURE


@pytest.mark.parametrize(
    "error",
    [
        EvalError(EvalErrorKind.TOOL_FAILURE, "dead", exit_code=1),
        EvalError(EvalErrorKind.TIMEOUT, "slow", coords=(2, 0, 1), name="synth"),
        EvalError(EvalErrorKind.NON_FINITE, "m is nan").at((4,)),
    ],
    ids=["exit_code", "coords_and_name", "tagged"],
)
def test_eval_error_survives_pickling(error):
    # a process pool sends a worker's failure back pickled
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is EvalError
    fields = ("kind", "detail", "coords", "exit_code", "name", "args")
    assert [getattr(copy, f) for f in fields] == [getattr(error, f) for f in fields]
    assert str(copy) == str(error)


def _per_point(evaluators):
    """The same evaluators without their column forms."""
    return [dataclasses.replace(ev, column_func=None) for ev in evaluators]


# "s" never fails; "r" divides by a, so it fails on every point where a == 0
_SECONDS = {"ok": "s + a", "fails": "s / a"}
_POLICIES = {
    "abort": FailPolicy(FailMode.ABORT),
    "prune": FailPolicy(FailMode.PRUNE),
    "assign_worst": FailPolicy(FailMode.ASSIGN_WORST, {"s": -1.0, "r": -2.0}),
}


def _chain(second):
    return [expr_evaluator("sum", "s", "a + b"), expr_evaluator("ratio", "r", _SECONDS[second])]


class TestColumnPath:
    """A batch evaluated a column at a time yields what the per-point path
    yields: the same points, errors, cache counters and step provenance."""

    GRID = Schema([ParamSpec("a", Linear(0, 3)), ParamSpec("b", Pow2(0, 2))])

    def batches(self, evaluators, batches, policy, parallelism=1):
        space = build_space(self.GRID)
        schema = metrics.check_no_collision(space.schema, evaluators)
        cache, out = Cache(), []
        for batch in batches:
            points = [space.points[i] for i in batch]
            try:
                got = metrics.enhance_points(
                    points, schema, evaluators, cache, policy, parallelism
                )
            except EvalError as err:
                got = (err.kind, err.detail, err.coords)
            out.append((got, cache.counters()))
        return out

    @pytest.mark.parametrize("policy", list(_POLICIES))
    @pytest.mark.parametrize("second", list(_SECONDS))
    @pytest.mark.parametrize(
        "warm",
        [[], [4, 7, 9], [0, 4, 5]],
        ids=["cold", "partly_warm", "warm_with_a_failure"],
    )
    def test_batches_match_the_per_point_path(self, monkeypatch, policy, second, warm):
        # duplicate coords, a partly warm cache and a chain whose second
        # evaluator fails; a replay of the whole batch last
        batches = [warm, [3, 4, 0, 4, 8, 11, 3, 9, 1], list(range(12))]
        lookups = []
        run = Cache.run
        monkeypatch.setattr(Cache, "run", lambda *a: lookups.append(1) or run(*a))
        got = self.batches(_chain(second), batches, _POLICIES[policy])
        through_columns = not lookups
        expected = self.batches(_per_point(_chain(second)), batches, _POLICIES[policy])
        assert got == expected
        for points, _ in got:
            if isinstance(points, list):
                assert {type(v) for p in points if p is not None for v in p.metrics} <= {float}
        # only a chain that fails somewhere leaves the column path
        assert through_columns == (second == "ok")

    @pytest.mark.parametrize("value", [1, "x", None])
    def test_a_column_is_converted_or_declined(self, monkeypatch, tmp_path, value):
        # func returns the int 1 and the column form ``value`` for every
        # point: a column of ints is stored as floats, a non-number declines
        ev = Evaluator("one", ("m",), lambda view: (1,), lambda s, points: [[value] * len(points)])
        batches = [[0, 4, 5], [3, 4, 0, 4, 8, 11, 3, 9, 1], list(range(12))]
        lookups = []
        run = Cache.run
        monkeypatch.setattr(Cache, "run", lambda *a: lookups.append(1) or run(*a))
        got = self.batches([ev], batches, _POLICIES["abort"])
        assert bool(lookups) == (value != 1)
        assert got == self.batches(_per_point([ev]), batches, _POLICIES["abort"])
        assert {type(v) for points, _ in got for p in points for v in p.metrics} == {float}
        for name, chain in ("column", [ev]), ("per_point", _per_point([ev])):
            frame = run_pipeline(Pipeline([exhaustive_map(chain[0])]), build_space(self.GRID))
            frame.to_jsonl(tmp_path / name)
        assert (tmp_path / "column").read_bytes() == (tmp_path / "per_point").read_bytes()

    @pytest.mark.parametrize("policy", list(_POLICIES))
    @pytest.mark.parametrize("second", list(_SECONDS))
    def test_step_provenance_matches_the_per_point_path(self, policy, second):
        def outcome(evaluators):
            first, ratio = evaluators
            pipeline = Pipeline(
                [
                    exhaustive_map(first, name="map_sum"),
                    exhaustive_prune("s >= 1", name="prune"),
                    quick_prune([ratio], "r < 3", name="quick"),
                    exhaustive_sort("s", name="sort"),
                    gradient_sort(
                        [expr_evaluator("twice", "t", "2 * s"), expr_evaluator("q", "q", "t / b")],
                        "q",
                        name="climb",
                    ),
                ],
                fail_policy=_POLICIES[policy],
            )
            space = build_space(self.GRID)
            cache = Cache()
            try:
                frame = run_pipeline(pipeline, space, cache)
            except PipelineAborted as err:
                return str(err), err.provenance.to_dict(), cache.counters()
            return frame.rows, frame.provenance.to_dict(), cache.counters()

        def timeless(result):
            rows, provenance, counters = result
            steps = [
                {k: v for k, v in s.items() if k != "wall_time_s"} for s in provenance["steps"]
            ]
            return rows, steps, counters

        got = outcome(_chain(second))
        assert timeless(got) == timeless(outcome(_per_point(_chain(second))))

    # a chain holding an evaluator with no column form (the counting
    # wrapper): its warm batches resolve by lookup, and its misses and
    # stored failures leave it on the per-point path

    @staticmethod
    def counted(second, at):
        chain = _chain(second)
        chain[at], calls = counting(chain[at])
        return chain, calls

    @pytest.mark.parametrize("parallelism", [1, 3])
    @pytest.mark.parametrize("at", [0, 1], ids=["first", "second"])
    def test_a_warm_batch_resolves_by_lookup(self, monkeypatch, parallelism, at):
        chain, calls = self.counted("ok", at)
        space = build_space(self.GRID)
        schema = metrics.check_no_collision(space.schema, chain)
        cache = Cache()
        cold = metrics.enhance_points(space.points, schema, chain, cache)
        assert len(calls) == 12 and cache.counters() == (0, 24)
        # neither the evaluator, Cache.run nor a thread may run now
        monkeypatch.setattr(Cache, "run", None)
        monkeypatch.setattr(metrics, "ThreadPoolExecutor", None)
        batch = [3, 4, 0, 4, 8, 11, 3, 9, 1]
        warm = metrics.enhance_points(
            [space.points[i] for i in batch], schema, chain, cache, parallelism=parallelism
        )
        assert warm == [cold[i] for i in batch]
        assert len(calls) == 12 and cache.counters() == (2 * len(batch), 24)

    @pytest.mark.parametrize("policy", list(_POLICIES))
    @pytest.mark.parametrize("parallelism", [1, 3])
    @pytest.mark.parametrize("at", [0, 1], ids=["first", "second"])
    @pytest.mark.parametrize(
        "second, warm, batch",
        [
            ("ok", [i for i in range(12) if i != 5], [3, 4, 0, 4, 8, 5, 3, 9]),
            ("fails", [3, 4, 6, 7, 8, 9, 10, 11, 0], [3, 4, 0, 4, 8, 11, 3, 9]),
        ],
        ids=["one_miss", "stored_failure"],
    )
    def test_a_batch_it_cannot_look_up_runs_point_by_point(
        self, monkeypatch, policy, parallelism, at, second, warm, batch
    ):
        # the per-point path is the one a chain like this took before
        # warm batches were looked up: Cache.run_columns declining
        batches = [warm, batch, list(range(12))]
        chain, calls = self.counted(second, at)
        got = self.batches(chain, batches, _POLICIES[policy], parallelism)
        got_calls = sorted(calls)
        monkeypatch.setattr(Cache, "run_columns", lambda *a: None)
        chain, calls = self.counted(second, at)
        assert got == self.batches(chain, batches, _POLICIES[policy], parallelism)
        assert got_calls == sorted(calls)

    @pytest.mark.parametrize("policy", list(_POLICIES))
    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_step_counts_match_the_per_point_path(self, monkeypatch, policy, parallelism):
        def outcome():
            first, ratio = (counting(ev)[0] for ev in _chain("fails"))
            twice = counting(expr_evaluator("twice", "t", "2 * s"))[0]
            pipeline = Pipeline(
                [
                    exhaustive_map(first, name="map_sum"),
                    quick_prune([ratio], "r < 3", name="quick"),
                    gradient_sort([twice, expr_evaluator("q", "q", "t / b")], "q", name="climb"),
                ],
                parallelism=parallelism,
                fail_policy=_POLICIES[policy],
            )
            cache, runs = Cache(), []
            for _ in range(2):  # cold, then warm
                try:
                    frame = run_pipeline(pipeline, build_space(self.GRID), cache)
                    result, provenance = frame.rows, frame.provenance
                except PipelineAborted as err:
                    result, provenance = str(err), err.provenance
                counts = [
                    (s.step, s.points_out, s.evaluator_invocations, s.cache_hits)
                    for s in provenance.steps
                ]
                runs.append((result, counts, cache.counters()))
            return runs

        got = outcome()
        monkeypatch.setattr(Cache, "run_columns", lambda *a: None)
        assert got == outcome()
