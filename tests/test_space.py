import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsex
from dsex import (
    DesignSpace,
    Enumerated,
    KeepSide,
    Linear,
    NoSuchConcern,
    Norm,
    NotAFullGrid,
    ParamSpec,
    Point,
    PointNotInSpace,
    Pow2,
    Schema,
    SchemaError,
    build_space,
    project_space,
)
from dsex.space import Grid, order_masks

from conftest import chebyshev_ring


def grid(*dims):
    return build_space(
        Schema([ParamSpec(f"p{k}", Linear(0, d - 1)) for k, d in enumerate(dims)])
    )


class TestDomains:
    def test_linear_values(self):
        assert Linear(0, 16).values() == tuple(range(17))

    def test_pow2_values(self):
        assert Pow2(0, 8).values() == (1, 2, 4, 8, 16, 32, 64, 128, 256)

    def test_enum_keeps_declaration_order(self):
        assert Enumerated([9, 4, 6]).values() == (9, 4, 6)

    @pytest.mark.parametrize(
        "bad",
        [lambda: Linear(3, 2), lambda: Pow2(-1, 4), lambda: Pow2(5, 2),
         lambda: Enumerated([]), lambda: Enumerated([4, 4]),
         # arguments that are not integers are refused, never truncated
         lambda: Enumerated([2.5, 3.7]), lambda: Enumerated(["4"]),
         lambda: Enumerated([1, True]), lambda: Enumerated([None]),
         lambda: Linear(True, 3), lambda: Linear(0.5, 2), lambda: Linear(0, "3"),
         lambda: Pow2(1, 2.0), lambda: Pow2(False, 2), lambda: Pow2("1", 2)],
    )
    def test_invalid_domains(self, bad):
        with pytest.raises(SchemaError):
            bad()

    def test_frozen_value_must_be_finite(self):
        # a float, or an int a float holds; never a string or a bool
        for value in (float("nan"), float("inf"), -float("inf"), 10**400, "1.0", True):
            with pytest.raises(SchemaError, match="finite number"):
                Schema([ParamSpec("p", Linear(0, 1))], [("x", value)])

    def test_bad_identifier(self):
        with pytest.raises(SchemaError, match="invalid identifier"):
            Schema([ParamSpec("p", Linear(0, 1))], [("2fast", 1.0)])

    def test_schema_stores_frozen_values_as_floats(self):
        schema = Schema([ParamSpec("p", Linear(0, 1))], [("x", 4), ("y", 2.5)])
        assert schema.frozen == (("x", 4.0), ("y", 2.5))
        assert all(type(v) is float for _, v in schema.frozen)
        assert schema.frozen_env == {"x": 4.0, "y": 2.5}


class TestBuildSpace:
    def test_dummy_module_cardinality(self, dummy_schema):
        assert len(build_space(dummy_schema)) == 17 * 9 * 3 == 459

    def test_singleton_enum(self):
        space = build_space(Schema([ParamSpec("p", Enumerated([7]))]))
        assert len(space) == 1
        assert space.points[0].coords == (0,)
        assert space.raw_values(space.points[0]) == (7,)

    def test_row_major_order(self):
        space = grid(2, 2)
        assert [p.coords for p in space.points] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_fresh_points(self, dummy_schema):
        space = build_space(dummy_schema)
        assert space.schema.frozen == ()
        assert all(p.metrics == () for p in space.points)

    def test_duplicate_param_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([ParamSpec("p", Linear(0, 1)), ParamSpec("p", Linear(0, 1))])

    @pytest.mark.parametrize("frozen", [["p", "x"], ["x", "x"]], ids=["param", "frozen"])
    def test_frozen_name_repeating_a_name_rejected(self, frozen):
        with pytest.raises(SchemaError):
            Schema([ParamSpec("p", Linear(0, 1))], [(n, 1.0) for n in frozen])

    def test_metric_names_are_identifiers(self):
        with pytest.raises(SchemaError):
            Schema([ParamSpec("p", Linear(0, 1))], metrics=("2fast",))
        schema = Schema([ParamSpec("p", Linear(0, 1))], metrics=["m", "n"])
        assert schema.metrics == ("m", "n")


def _m(name, value=1.0):
    return (name, value)


class TestConstructorChecks:
    """The public constructors check what enters; steps build their
    outputs without repeating it, so these checks have to hold here."""

    @pytest.mark.parametrize(
        "frozen, metrics, points",
        [
            ((), (), [Point((0,))]),  # coords arity
            ((), (), [Point((0, 1, 0))]),
            ((), (), [Point((0, 3))]),  # coordinate out of range
            ((), (), [Point((2, -1))]),
            ((_m("p0"),), (), [Point((0, 0))]),  # frozen param named like a parameter
            ((), ("p1",), [Point((0, 0), (1.0,))]),  # metric named like a parameter
            ((), (), [Point((0, 0)), Point((1, 1)), Point((0, 0))]),  # duplicate coords
            ((_m("z"),), ("m",), [Point((0, 0), (None,)), Point((0, 0), (1.0,))]),
            ((_m("z"),), ("z",), [Point((0, 0), (2.0,))]),  # metric named like a frozen param
        ],
        ids=["short", "long", "above", "below", "frozen-name", "metric-name",
             "duplicate", "duplicate-frozen", "metric-frozen-name"],
    )
    def test_design_space_refuses(self, frozen, metrics, points):
        params = [ParamSpec("p0", Linear(0, 2)), ParamSpec("p1", Linear(0, 2))]
        with pytest.raises(SchemaError):
            DesignSpace(Schema(params, frozen, metrics), points)

    @pytest.mark.parametrize(
        "metrics",
        [(), (1.0,), (1.0, 2.0, 3.0),  # arity
         (float("nan"), 1.0), (1.0, float("inf")), (None, float("-inf")),
         ("1.5", 1.0), (1, 2.0), (True, 1.0), (1.0, [2.0])],  # not a float
        ids=["none", "short", "long", "nan", "inf", "-inf", "str", "int", "bool", "list"],
    )
    def test_design_space_refuses_metric_values(self, metrics):
        schema = Schema([ParamSpec("p", Linear(0, 1))], metrics=("a", "b"))
        with pytest.raises(SchemaError):
            DesignSpace(schema, [Point((0,), (1.0, 2.0)), Point((1,), metrics)])

    def test_design_space_takes_absent_metrics(self):
        schema = Schema([ParamSpec("p", Linear(0, 1))], metrics=("a", "b"))
        space = DesignSpace(schema, [Point((0,), (None, None)), Point((1,), (1.0, None))])
        assert [p.metrics for p in space.points] == [(None, None), (1.0, None)]

    @pytest.mark.parametrize(
        "frozen, metrics",
        [((_m("x"),), ("x",)), ((), ("x", "x")), ((_m("x"), _m("x", 2.0)), ()),
         ((), ("m", "p"))],
        ids=["frozen-metric", "metric-metric", "frozen-frozen", "param-metric"],
    )
    def test_point_refuses_a_name_collision(self, frozen, metrics):
        # a point holds no names: the schema refuses every clash
        with pytest.raises(SchemaError):
            Schema([ParamSpec("p", Linear(0, 0))], frozen, metrics)


class TestProjectSpace:
    def test_resource_projection(self, dummy_schema):
        space = build_space(dummy_schema)
        projected = project_space(space, "resource")
        assert len(projected) == 17 * 9 == 153
        assert projected.schema.names == ("param1", "param2")
        assert projected.schema.frozen == (("param3", 4.0),)

    def test_qos_projection(self, dummy_schema):
        assert len(project_space(build_space(dummy_schema), "qos")) == 17 * 3 == 51

    def test_projection_to_max(self, dummy_schema):
        projected = project_space(build_space(dummy_schema), "resource", project_to_min=False)
        assert projected.schema.frozen == (("param3", 9.0),)

    def test_full_coverage_is_identity(self):
        schema = Schema([ParamSpec("a", Linear(0, 3), ("x",)), ParamSpec("b", Linear(0, 2), ("x",))])
        space = build_space(schema)
        assert project_space(space, "x") is space

    def test_unknown_concern(self, dummy_schema):
        with pytest.raises(NoSuchConcern):
            project_space(build_space(dummy_schema), "power")

    def test_first_occurrence_wins(self, dummy_schema):
        space = build_space(dummy_schema)
        tagged = DesignSpace(
            Schema(space.schema.params, metrics=("mark",)),
            [Point(p.coords, (float(i),)) for i, p in enumerate(space.points)],
        )
        projected = project_space(tagged, "resource")
        assert projected.schema.metrics == ("mark",)
        # row-major order: the first point of each surviving group carries
        # the lowest mark of the group
        first = projected.points[0]
        assert first.metrics == (0.0,)

    def test_reexpansion_is_subset(self, dummy_schema):
        # undoing the projection at the frozen values lands inside the original
        space = build_space(dummy_schema)
        projected = project_space(space, "qos")
        (frozen_value,) = projected.schema.frozen_env.values()
        k = dummy_schema.names.index("param2")
        idx = dummy_schema.params[k].domain.values().index(int(frozen_value))
        originals = {p.coords for p in space.points}
        for p in projected.points:
            coords = list(p.coords)
            coords.insert(k, idx)
            assert tuple(coords) in originals


class TestNeighbours:
    def test_interior_l1(self):
        space = grid(5, 5)
        center = space.points[12]
        assert [p.coords for p in space.neighbours(center, Norm.L1)] == [
            (1, 2), (2, 1), (2, 3), (3, 2),
        ]

    def test_corner_clipping(self):
        space = grid(5, 5)
        assert [p.coords for p in space.neighbours(space.points[0], Norm.L1)] == [(0, 1), (1, 0)]

    def test_point_not_in_space(self):
        full = grid(3, 3)
        space = DesignSpace(full.schema, full.points[1:])
        alien = Point((0, 0))
        with pytest.raises(PointNotInSpace):
            space.neighbours(alien, Norm.L1)

    def test_sparse_space_matches_brute_force(self):
        # 8 of 16 cells, out of row-major order
        schema = Schema(
            [ParamSpec("p0", Linear(0, 3)), ParamSpec("p1", Linear(0, 3))],
            (("z", 0.0),),
        )
        cells = [(2, 1), (0, 0), (3, 3), (1, 1), (1, 2), (0, 3), (2, 2), (3, 0)]
        points = [Point(c) for c in cells]
        space = DesignSpace(schema, points)
        assert not space.is_full_grid()

        def brute(p):
            out = []
            for q in space.points:
                reach = sum(abs(a - b) for a, b in zip(p.coords, q.coords))
                if q.coords != p.coords and reach <= 1:
                    out.append(q)
            return out

        for p in space.points:
            assert space.neighbours(p, Norm.L1) == brute(p), p
        assert space.neighbours(points[0], Norm.L1) == [points[3], points[6]]
        # a cell of the grid that is not a point of the space has no ring
        with pytest.raises(PointNotInSpace):
            space.neighbours(Point((3, 1)), Norm.L1)

    @pytest.mark.parametrize("norm", list(Norm))
    @pytest.mark.parametrize("sparse", [False, True], ids=["full", "sparse"])
    @pytest.mark.parametrize("coords", [(0, 5), (1, -1), (3, 0), (-1, 1), (0, -1), (0,), (0, 0, 0)])
    def test_coords_off_the_grid_are_not_aliased(self, norm, sparse, coords):
        # on a 3x2 grid (0, 5) has the row-major index of (2, 1) and (1, -1)
        # that of (0, 1): the index must refuse them, not answer for another
        space = grid(3, 2)
        assert space.schema.strides == (2, 1)
        if sparse:
            space = DesignSpace(space.schema, space.points[::-1][:4])
        with pytest.raises(PointNotInSpace):
            space.neighbours(Point(coords), norm)

    @settings(max_examples=60, deadline=None)
    @given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=4), data=st.data())
    def test_random_sparse_space_matches_brute_force(self, dims, data):
        # a random subset of the grid in random order
        cells = data.draw(st.permutations(list(itertools.product(*map(range, dims)))))
        cells = cells[: data.draw(st.integers(1, len(cells)))]
        points = [Point(c) for c in cells]
        schema = Schema([ParamSpec(f"p{k}", Linear(0, n - 1)) for k, n in enumerate(dims)])
        space = DesignSpace(schema, data.draw(st.permutations(points)))
        for p in space.points:
            brute = []
            for q in space.points:
                reach = sum(abs(a - b) for a, b in zip(p.coords, q.coords))
                if q.coords != p.coords and reach <= 1:
                    brute.append(q)
            assert space.neighbours(p, Norm.L1) == brute, p

    @settings(max_examples=60, deadline=None)
    @given(dims=st.lists(st.integers(2, 5), min_size=1, max_size=3), data=st.data())
    def test_symmetry(self, dims, data):
        space = grid(*dims)
        i = data.draw(st.integers(0, len(space) - 1))
        j = data.draw(st.integers(0, len(space) - 1))
        p, q = space.points[i], space.points[j]
        in_pq = q in space.neighbours(p, Norm.L1)
        in_qp = p in space.neighbours(q, Norm.L1)
        assert in_pq == in_qp


class TestDiagonal:
    def test_square(self):
        assert [p.coords for p in grid(5, 5).diagonal()] == [
            (0, 0), (1, 1), (2, 2), (3, 3), (4, 4),
        ]

    def test_rectangular(self):
        # round-half-up interpolation, checked by hand
        assert [p.coords for p in grid(3, 5).diagonal()] == [
            (0, 0), (1, 1), (1, 2), (2, 3), (2, 4),
        ]

    def test_degenerate_axis(self):
        assert [p.coords for p in grid(1, 4).diagonal()] == [
            (0, 0), (0, 1), (0, 2), (0, 3),
        ]

    def test_single_point(self):
        assert [p.coords for p in grid(1, 1).diagonal()] == [(0, 0)]
        # a schema with no parameter has one point, its own diagonal
        assert [p.coords for p in build_space(Schema([])).diagonal()] == [()]

    def test_requires_full_grid(self):
        space = grid(3, 3)
        partial = DesignSpace(space.schema, space.points[:-1])
        with pytest.raises(NotAFullGrid):
            partial.diagonal()

    def test_permuted_full_grid(self):
        # the diagonal is a walk through the grid, whatever the points' order
        space = grid(3, 5)
        points = list(space.points)
        random.Random(0).shuffle(points)
        permuted = DesignSpace(space.schema, points)
        diag = permuted.diagonal()
        assert [p.coords for p in diag] == [p.coords for p in space.diagonal()]
        assert all(any(p is q for q in points) for p in diag)

    @settings(max_examples=60, deadline=None)
    @given(dims=st.lists(st.integers(1, 9), min_size=1, max_size=4))
    def test_endpoints_and_steps(self, dims):
        space = grid(*dims)
        diag = space.diagonal()
        assert diag[0].coords == tuple(0 for _ in dims)
        assert diag[-1].coords == tuple(d - 1 for d in dims)
        assert len(diag) == max(d - 1 for d in dims) + 1
        for a, b in zip(diag, diag[1:]):
            assert max(abs(x - y) for x, y in zip(a.coords, b.coords)) <= 1


def closure_of(space, frontier, side):
    # the closure of the frontier's coords, as coords, on a grid in
    # row-major order, where a point's position is its index
    bitgrid = Grid(space.schema)
    closed = bitgrid.close(bitgrid.bits(map(space.position, frontier)), side)
    return {space.points[i].coords for i in bitgrid.indices(closed)}


class TestGridRing:
    # the one Chebyshev ring: indices within one step on every axis
    def test_interior_linf(self):
        bitgrid = Grid(grid(5, 5).schema)
        assert bitgrid.ring(12) == bitgrid.bits([6, 7, 8, 11, 13, 16, 17, 18])

    @pytest.mark.parametrize(
        "index, ring", [(0, [1, 5, 6]), (4, [3, 8, 9]), (20, [15, 16, 21]), (24, [18, 19, 23])]
    )
    def test_corner_clipping_linf(self, index, ring):
        bitgrid = Grid(grid(5, 5).schema)
        assert bitgrid.indices(bitgrid.ring(index)) == ring

    @pytest.mark.parametrize(
        "dims, index, ring",
        [
            # on a 2x3 grid index 2 is (0, 2) and index 3 is (1, 0): one
            # index apart, but not neighbours, so no ring may wrap a row
            ((2, 3), 0, [1, 3, 4]),
            ((2, 3), 1, [0, 2, 3, 4, 5]),
            ((2, 3), 2, [1, 4, 5]),
            ((2, 3), 3, [0, 1, 4]),
            ((2, 3), 4, [0, 1, 2, 3, 5]),
            ((2, 3), 5, [1, 2, 4]),
            ((3, 2), 0, [1, 2, 3]),
            ((3, 2), 2, [0, 1, 3, 4, 5]),
            ((3, 2), 5, [2, 3, 4]),
        ],
    )
    def test_ring_does_not_wrap_a_row(self, dims, index, ring):
        bitgrid = Grid(grid(*dims).schema)
        assert bitgrid.indices(bitgrid.ring(index)) == ring
        coords = list(itertools.product(*map(range, dims)))
        assert [coords[i] for i in ring] == chebyshev_ring(coords[index], coords)


class TestGridClosure:
    """The closure against its all-pairs definition: a point is closed when
    it sits at or beyond some frontier coords on every axis."""

    @settings(max_examples=150, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        side=st.sampled_from(list(KeepSide)),
        data=st.data(),
    )
    def test_matches_all_pairs(self, dims, side, data):
        space = grid(*dims)
        coords = [p.coords for p in space.points]
        frontier = data.draw(st.lists(st.sampled_from(coords), max_size=5))
        beyond = operator.ge if side is KeepSide.UPWARD else operator.le
        expected = {c for c in coords if any(all(map(beyond, c, f)) for f in frontier)}
        assert closure_of(space, frontier, side) == expected
        # closing the frontier in two parts closes the same set
        bitgrid = Grid(space.schema)
        split = data.draw(st.integers(0, len(frontier)))
        closed = bitgrid.close(bitgrid.bits(map(space.position, frontier[:split])), side)
        closed = bitgrid.close(closed | bitgrid.bits(map(space.position, frontier[split:])), side)
        assert {coords[i] for i in bitgrid.indices(closed)} == expected
        assert all((closed >> i & 1) == (c in expected) for i, c in enumerate(coords))

    @pytest.mark.parametrize("side", list(KeepSide))
    def test_empty_frontier_closes_nothing(self, side):
        assert closure_of(grid(3, 4, 2), [], side) == set()

    def test_corner_closes_the_grid(self):
        space = grid(9, 9, 4, 4)
        everything = {p.coords for p in space.points}
        assert closure_of(space, [(0, 0, 0, 0)], KeepSide.UPWARD) == everything
        assert closure_of(space, [(8, 8, 3, 3)], KeepSide.DOWNWARD) == everything


@settings(max_examples=150, deadline=None)
@given(
    coords=st.integers(1, 4).flatmap(
        lambda d: st.lists(st.tuples(*[st.integers(0, 4)] * d), max_size=12, unique=True)
    )
)
def test_order_masks_match_all_pairs(coords):
    below, above = order_masks(coords)
    for i, c in enumerate(coords):
        assert below[i] == sum(1 << j for j, o in enumerate(coords) if all(map(operator.le, o, c)))
        assert above[i] == sum(1 << j for j, o in enumerate(coords) if all(map(operator.ge, o, c)))


@settings(max_examples=150, deadline=None)
@given(dims=st.lists(st.integers(1, 5), min_size=1, max_size=4))
def test_ring_bits_match_ring(dims):
    # bit i of a ring is the row-major index i, read off the schema alone
    schema = grid(*dims).schema
    coords = list(itertools.product(*map(range, dims)))
    index = {c: sum(map(operator.mul, c, schema.strides)) for c in coords}
    assert list(index.values()) == list(range(len(coords)))
    bitgrid = Grid(schema)
    for c in coords:
        ring = [index[q] for q in chebyshev_ring(c, coords)]
        assert bitgrid.indices(bitgrid.ring(index[c])) == ring
        assert bitgrid.ring(index[c]) == bitgrid.bits(ring)


def _schema(domains) -> Schema:
    specs = []
    for k, d in enumerate(domains):
        if isinstance(d, list):
            dom = Enumerated(d)
        elif d[0] == "linear":
            dom = Linear(d[1], d[1] + d[2])
        else:
            dom = Pow2(min(d[1], d[2]), max(d[1], d[2]))
        specs.append(ParamSpec(f"p{k}", dom))
    return Schema(specs)


_random_schemas = st.lists(
    st.one_of(
        st.tuples(st.just("linear"), st.integers(-3, 3), st.integers(0, 4)),
        st.tuples(st.just("pow2"), st.integers(0, 3), st.integers(0, 3)),
        st.lists(st.integers(-50, 50), min_size=1, max_size=5, unique=True),
    ),
    min_size=1,
    max_size=6,
).map(_schema)


@settings(max_examples=40, deadline=None)
@given(_random_schemas)
def test_cardinality_is_domain_product(schema):
    space = build_space(schema)
    expected = 1
    for c in schema.cardinalities:
        expected *= c
    assert len(space) == expected
    again = build_space(schema)
    assert [p.coords for p in again.points] == [p.coords for p in space.points]


@settings(max_examples=40, deadline=None)
@given(_random_schemas)
def test_built_grid_passes_the_checked_constructors(schema):
    # build_space skips the checks; the checked constructors accept what
    # it builds and give the same space
    space = build_space(schema)
    assert DesignSpace(schema, space.points) == space
    grid = itertools.product(*map(range, schema.cardinalities))
    assert space.points == tuple(Point(coords) for coords in grid)
    assert all(type(c) is int for p in space.points for c in p.coords)


def test_built_grid_refuses_a_schema_naming_a_metric():
    # its points would hold no value for the metric and not fit the schema
    schema = Schema([ParamSpec("a", Linear(0, 2))], metrics=["m"])
    with pytest.raises(SchemaError, match="no metric"):
        build_space(schema)


def test_enumeration_matches_itertools_product(dummy_schema):
    space = build_space(dummy_schema)
    expected = list(itertools.product(range(17), range(9), range(3)))
    assert [p.coords for p in space.points] == expected


@pytest.mark.parametrize("name", dsex.__all__)
def test_every_exported_name_resolves(name):
    # the package loads its names lazily, so a name left in its export
    # table after its definition went would otherwise fail only on use
    getattr(dsex, name)
    assert name in dir(dsex)
