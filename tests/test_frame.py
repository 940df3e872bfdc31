import json
import tracemalloc
from decimal import ROUND_DOWN, Context, Decimal, localcontext

from hypothesis import given, settings
from hypothesis import strategies as st

from dsex import (
    DesignSpace,
    Enumerated,
    Linear,
    ParamSpec,
    Point,
    Pow2,
    Schema,
    build_frame,
)
from dsex.cli import main
from dsex.frame import ResultFrame, load_rows, render_2dp, render_top_table


def reference_csv(frame: ResultFrame) -> str:
    """The export as first specified: every cell ``repr(float(v))``, None empty."""
    lines = [",".join(frame.columns)]
    for row in frame.rows:
        lines.append(",".join("" if v is None else repr(float(v)) for v in row))
    return "".join(line + "\n" for line in lines)


def reference_jsonl(frame: ResultFrame) -> str:
    """One ``json.dumps`` per row of its non-None cells, in column order."""
    return "".join(
        json.dumps({c: v for c, v in zip(frame.columns, row) if v is not None}) + "\n"
        for row in frame.rows
    )


def reference_rows(space: DesignSpace) -> list[tuple]:
    """Rows as built one float at a time from each point's raw values."""
    frozen = [value for _, value in space.schema.frozen]
    return [
        (*(float(v) for v in space.raw_values(p)), *frozen, *p.metrics, float(p.degraded))
        for p in space.points
    ]


_values = st.one_of(
    st.integers(-10**6, 10**6).map(float),  # integral values
    st.floats(allow_nan=False, allow_infinity=False),
)
_domains = st.one_of(
    st.tuples(st.integers(-3, 3), st.integers(0, 3)).map(lambda t: Linear(t[0], t[0] + t[1])),
    st.tuples(st.integers(0, 3), st.integers(0, 2)).map(lambda t: Pow2(t[0], t[0] + t[1])),
    st.lists(st.integers(-50, 50), min_size=1, max_size=4, unique=True).map(Enumerated),
)


@st.composite
def spaces(draw):
    domains = draw(st.lists(_domains, min_size=1, max_size=3))
    params = [ParamSpec(f"p{k}", d) for k, d in enumerate(domains)]
    frozen = [(f"z{k}", v) for k, v in enumerate(draw(st.lists(_values, max_size=2)))]
    metrics = [f"m{k}" for k in range(draw(st.integers(0, 3)))]
    schema = Schema(params, frozen, metrics)
    cells = [
        tuple(draw(st.integers(0, len(d.values()) - 1)) for d in domains)
        for _ in range(draw(st.integers(0, 12)))
    ]
    points = [
        Point(
            coords,
            tuple(draw(st.one_of(st.none(), _values)) for _ in metrics),
            draw(st.booleans()),  # degraded rows
        )
        for coords in dict.fromkeys(cells)  # zero rows included
    ]
    return DesignSpace(schema, points)


class TestExportOracle:
    @settings(max_examples=150, deadline=None)
    @given(space=spaces())
    def test_rows_and_exports_match_the_reference(self, space, tmp_path_factory):
        frame = build_frame(space)
        assert list(frame.rows) == reference_rows(space)
        out = tmp_path_factory.mktemp("frame")
        frame.to_csv(out / "frame.csv")
        frame.to_jsonl(out / "frame.jsonl")
        assert (out / "frame.csv").read_text() == reference_csv(frame)
        assert (out / "frame.jsonl").read_text() == reference_jsonl(frame)

    def test_rows_share_the_schema_floats(self):
        schema = Schema([ParamSpec("a", Linear(0, 2)), ParamSpec("b", Pow2(3, 4))])
        space = DesignSpace(schema, [Point((i, j)) for i in range(3) for j in range(2)])
        rows = build_frame(space).rows
        assert all(row[1] is schema.floats[1][p.coords[1]] for row, p in zip(rows, space.points))

    def test_jsonl_streams_its_rows(self, tmp_path):
        # written one row at a time, a 20,000-row export allocates no
        # per-frame structure; building every row's dict first peaked at
        # 4.25 MB on this frame
        columns = ("a", "b", "c", "m", "n")
        rows = tuple(
            (float(i % 17), float(i % 5), 4.0, i * 0.5, None if i % 3 else 1.25, 0.0)
            for i in range(20_000)
        )
        frame = ResultFrame(columns[:3], (), columns[3:], rows)
        tracemalloc.start()
        try:
            frame.to_jsonl(tmp_path / "frame.jsonl")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20, f"to_jsonl peaked at {peak / 2**20:.2f} MB"
        assert (tmp_path / "frame.jsonl").read_text() == reference_jsonl(frame)


_awkward = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, 1e16, 123456789.0, 0.1, 1e-7]),
    st.integers(-2**53, 2**53).map(float),  # integral values
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals
    st.none(),
)
_non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def frames(draw, cells=_awkward):
    """A ResultFrame built directly, its cells drawn from ``cells``."""
    widths = [draw(st.integers(0, 3)) for _ in range(3)]
    params, frozen, metrics = (
        tuple(f"{prefix}{k}" for k in range(width)) for prefix, width in zip("pzm", widths)
    )
    width = sum(widths) + 1
    rows = draw(st.lists(st.tuples(*[cells] * width), max_size=12))
    return ResultFrame(params, frozen, metrics, tuple(rows))


class TestAwkwardValues:
    @settings(max_examples=200, deadline=None)
    @given(frame=frames(st.one_of(_awkward, _non_finite)))
    def test_exports_match_their_references(self, frame, tmp_path_factory):
        # -0.0, subnormals, the float extremes, integral values, empty
        # cells, and NaN and infinities, which json.dumps writes as NaN,
        # Infinity and -Infinity
        out = tmp_path_factory.mktemp("frame")
        frame.to_csv(out / "frame.csv")
        frame.to_jsonl(out / "frame.jsonl")
        assert (out / "frame.csv").read_text() == reference_csv(frame)
        assert (out / "frame.jsonl").read_text() == reference_jsonl(frame)


def _reloaded_columns(frame: ResultFrame, out) -> tuple[list[str], list[str]]:
    frame.to_csv(out / "frame.csv")
    frame.to_jsonl(out / "frame.jsonl")
    return load_rows(out / "frame.csv")[0], load_rows(out / "frame.jsonl")[0]


class TestLoadRowsColumns:
    def test_a_metric_missing_from_the_first_row_keeps_its_place(self, tmp_path, capsys):
        frame = ResultFrame(("a",), (), ("m1", "m2"), ((1.0, None, 2.0, 0.0), (2.0, 3.0, 4.0, 0.0)))
        csv_columns, jsonl_columns = _reloaded_columns(frame, tmp_path)
        assert csv_columns == jsonl_columns == ["a", "m1", "m2", "degraded"]
        headers = []
        for name in ("frame.csv", "frame.jsonl"):
            assert main(["report", "--frame", str(tmp_path / name)]) == 0
            headers.append(capsys.readouterr().out.splitlines()[0])
        assert headers[0] == headers[1]

    @settings(max_examples=150, deadline=None)
    @given(frame=frames())
    def test_jsonl_columns_are_the_csv_columns_the_rows_determine(
        self, frame, tmp_path_factory
    ):
        csv_columns, jsonl_columns = _reloaded_columns(frame, tmp_path_factory.mktemp("frame"))
        # a column no row holds a value for cannot appear in the JSONL
        held = [k for k, c in enumerate(csv_columns) if any(r[k] is not None for r in frame.rows)]
        assert sorted(jsonl_columns) == sorted(csv_columns[k] for k in held)
        # every row lists its keys in the reloaded order
        position = {c: i for i, c in enumerate(jsonl_columns)}
        for row in frame.rows:
            keys = [position[c] for c, v in zip(csv_columns, row) if v is not None]
            assert keys == sorted(keys)
        # and where each two neighbouring held columns share a row, the
        # rows fix the order: it is the CSV's (two frames whose columns
        # never share a row can write the same JSONL in different orders)
        if all(
            any(r[i] is not None and r[j] is not None for r in frame.rows)
            for i, j in zip(held, held[1:])
        ):
            assert jsonl_columns == [csv_columns[k] for k in held]


class TestRender2dp:
    @settings(max_examples=300, deadline=None)
    @given(value=_awkward.filter(lambda v: v is not None))
    def test_every_finite_float_truncates_to_2_decimals(self, value):
        text = render_2dp(value)
        whole, point, cents = text.partition(".")
        assert point == "." and len(cents) == 2 and whole.lstrip("-").isdigit()
        with localcontext(Context(prec=400)):  # exact arithmetic on any float
            shown, exact = Decimal(text), Decimal(repr(value))
            assert abs(shown) <= abs(exact) < abs(shown) + Decimal("0.01")
            assert shown == 0 or (shown < 0) == (exact < 0)
        if abs(value) < 1e26:  # the range the default 28-digit context holds
            assert text == str(Decimal(repr(value)).quantize(Decimal("0.01"), ROUND_DOWN))

    def test_non_finite_values(self):
        assert [render_2dp(float(v)) for v in ("inf", "-inf", "nan")] == ["inf", "-inf", "nan"]

    def test_top_table_holds_huge_and_non_finite_metrics(self):
        rows = ((1.0, 1e30, 0.0), (2.5, float("-inf"), 0.0), (3.0, float("nan"), 1.0))
        lines = render_top_table(ResultFrame(("a",), (), ("m",), rows)).splitlines()
        assert [[c.strip() for c in line.split("|")[1:]] for line in lines[1:]] == [
            ["[1]", "1000000000000000000000000000000.00", "0.00"],
            ["[2.50]", "-inf", "0.00"],
            ["[3]", "nan", "1.00"],
        ]
