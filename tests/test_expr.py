import collections
import math
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsex import (
    Cache,
    Evaluator,
    EvalError,
    ExprSyntaxError,
    FailMode,
    FailPolicy,
    Linear,
    ParamSpec,
    Point,
    PointView,
    Schema,
    expr_evaluator,
    parse_expr,
)
from dsex.errors import EvalErrorKind
from dsex.frame import render_2dp
from dsex.metrics import enhance_points
from dsex.strategy import _values


class TestParsing:
    def test_efficiency_example(self):
        value = parse_expr("freq / lut_pct")({"freq": 247.56, "lut_pct": 0.77})
        assert value == pytest.approx(321.5064935064935)
        assert render_2dp(value) == "321.50"

    def test_additive_inverse(self):
        assert parse_expr("-(x) + x")({"x": 123.25}) == 0.0

    def test_precedence(self):
        assert parse_expr("a + b * c")({"a": 1, "b": 2, "c": 3}) == 7.0

    def test_left_associativity(self):
        assert parse_expr("10 - 4 - 3")({}) == 3.0
        assert parse_expr("16 / 4 / 2")({}) == 2.0

    def test_unary_minus_binds_tighter_than_mul(self):
        assert parse_expr("-2 * 3")({}) == -6.0
        assert parse_expr("2 * -3")({}) == -6.0

    def test_not_binds_looser_than_comparison(self):
        assert parse_expr("!x < 3")({"x": 5}) is True
        assert parse_expr("! (x < 3) || x == 5")({"x": 5}) is True

    def test_boolean_connectives(self):
        env = {"a": 1.0, "b": 0.0}
        assert parse_expr("a == 1 && b == 0")(env) is True
        assert parse_expr("a == 0 || b == 0")(env) is True
        assert parse_expr("!(a == 1) || a > 0 && b >= 0")(env) is True

    def test_whitespace_insensitive(self):
        compact = parse_expr("1+2*3<=7&&!(4/2==3)")({})
        spread = parse_expr("  1 + 2 * 3 <= 7  &&  ! ( 4 / 2 == 3 ) ")({})
        assert compact is spread is True

    def test_scientific_literals(self):
        assert parse_expr("1e6 / 2E3")({}) == 500.0
        assert parse_expr("2.5e-1")({}) == 0.25

    def test_names_collected(self):
        assert parse_expr("a + b * a - c").names == {"a", "b", "c"}

    def test_predicate_detection(self):
        assert parse_expr("a < b").is_predicate
        assert parse_expr("!(a < b)").is_predicate
        assert not parse_expr("a + b").is_predicate

    @pytest.mark.parametrize(
        "text,pos",
        [("a + ", 4), ("(a + b", 6), ("a ** b", 3), ("1 + $", 4), ("", 0)],
    )
    def test_syntax_error_positions(self, text, pos):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text)
        assert err.value.position == pos


class TestEvaluation:
    def test_name_not_found(self):
        with pytest.raises(EvalError) as err:
            parse_expr("a + missing")({"a": 1.0})
        assert err.value.kind is EvalErrorKind.NAME_NOT_FOUND
        assert err.value.name == "missing"

    def test_short_circuit_does_not_hide_missing_names(self):
        with pytest.raises(EvalError) as err:
            parse_expr("1 == 1 || missing > 0")({})
        assert err.value.kind is EvalErrorKind.NAME_NOT_FOUND

    def test_first_missing_name_in_alphabetical_order(self):
        with pytest.raises(EvalError) as err:
            parse_expr("x == x || zeta > 0 && alpha > 0")({"x": 1.0})
        assert err.value.kind is EvalErrorKind.NAME_NOT_FOUND
        assert err.value.name == "alpha"
        assert err.value.detail == "name 'alpha' not found on point"

    def test_short_circuit_guards_division(self):
        assert parse_expr("a == 0 || b / a > 1")({"a": 0.0, "b": 3.0}) is True

    def test_short_circuit_guards_division_in_a_column(self):
        # the right operands see only the rows their left values leave open
        env = {"a": [0.0, 2.0, 0.0, 1.0], "b": [3.0, 3.0, 1.0, 0.5]}
        guard = parse_expr("a == 0 || b / a > 1")
        assert guard.column(env, 4) == [True, True, True, False]
        both = parse_expr("a != 0 && b / a > 1 && (a > 1 || b / (a - 1) > 0)")
        assert both.column(env, 4) == [False, True, False, False]
        with pytest.raises(EvalError) as err:
            parse_expr("a != 1 && b / a > 1").column(env, 4)
        assert err.value.kind is EvalErrorKind.DIV_BY_ZERO

    def test_division_by_zero(self):
        with pytest.raises(EvalError) as err:
            parse_expr("1 / x")({"x": 0.0})
        assert err.value.kind is EvalErrorKind.DIV_BY_ZERO

    def test_boolean_arithmetic_rejected(self):
        with pytest.raises(EvalError) as err:
            parse_expr("(a < b) + 1")({"a": 1.0, "b": 2.0})
        assert err.value.kind is EvalErrorKind.TYPE_MISMATCH

    def test_numeric_boolean_comparison_rejected(self):
        with pytest.raises(EvalError):
            parse_expr("(a < b) == 1")({"a": 1.0, "b": 2.0})

    def test_not_on_number_rejected(self):
        with pytest.raises(EvalError):
            parse_expr("!x")({"x": 1.0})

    def test_tautology_and_contradiction(self):
        assert parse_expr("1 == 1")({}) is True
        assert parse_expr("1 == 0")({}) is False


class _Fail:
    """The error the reference semantics predicts, in place of a value."""

    def __init__(self, kind, detail):
        self.kind = kind
        self.detail = detail


def _mismatch(expected, got):
    kind = "boolean" if isinstance(got, bool) else "number"
    return _Fail(EvalErrorKind.TYPE_MISMATCH, f"expected {expected}, got {kind}")


_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _apply(op, a, b=None):
    """Reference semantics of one operator over operand values computed
    left to right; a _Fail operand is the error raised first. Operands
    are computed eagerly, which is safe because the reference is pure:
    a short circuit simply ignores the right operand."""
    if isinstance(a, _Fail):
        return a
    if op == "neg":
        return _mismatch("number", a) if isinstance(a, bool) else -a
    if op == "!":
        return (not a) if isinstance(a, bool) else _mismatch("boolean", a)
    if op in ("&&", "||"):
        if not isinstance(a, bool):
            return _mismatch("boolean", a)
        if a is (op == "||"):
            return a
        if isinstance(b, _Fail):
            return b
        return b if isinstance(b, bool) else _mismatch("boolean", b)
    if isinstance(b, _Fail):
        return b
    if op in ("==", "!="):
        if isinstance(a, bool) != isinstance(b, bool):
            return _mismatch("operands of the same kind", b)
        return (a == b) if op == "==" else (a != b)
    if isinstance(a, bool) or isinstance(b, bool):
        return _mismatch("number", True)
    if op == "/" and b == 0.0:
        return _Fail(EvalErrorKind.DIV_BY_ZERO, "division by zero")
    return _ARITH[op](a, b)


def _fold(node, env):
    """Render a tree to fully parenthesised text and evaluate it with
    the reference semantics; returns (text, value or _Fail, free names)."""
    if isinstance(node, float):
        return repr(node), node, set()
    if node[0] == "var":
        name = node[1]
        return name, float(env.get(name, 1.0)), {name}
    if node[0] in ("neg", "!"):
        text, value, names = _fold(node[1], env)
        # '!' binds looser than arithmetic, so it needs parentheses of its own
        text = f"-({text})" if node[0] == "neg" else f"(!({text}))"
        return text, _apply(node[0], value), names
    op, left, right = node
    lt, lv, ln = _fold(left, env)
    rt, rv, rn = _fold(right, env)
    return f"({lt} {op} {rt})", _apply(op, lv, rv), ln | rn


def _check_against_reference(tree, env):
    text, expected, names = _fold(tree, env)
    missing = sorted(names - set(env))
    if missing:
        # every free name is resolved before anything is evaluated
        expected = _Fail(EvalErrorKind.NAME_NOT_FOUND, f"name {missing[0]!r} not found on point")
    expr = parse_expr(text)
    if isinstance(expected, _Fail):
        with pytest.raises(EvalError) as err:
            expr(env)
        assert (err.value.kind, err.value.detail) == (expected.kind, expected.detail), text
        if missing:
            assert err.value.name == missing[0]
        return expected.kind
    got = expr(env)
    assert type(got) is type(expected), text
    # bit for bit: the same float operations in the same order
    assert got == expected or (math.isnan(got) and math.isnan(expected)), text
    return "boolean" if isinstance(got, bool) else "number"


_COMPARISONS = ["<", "<=", ">", ">=", "==", "!="]


def _random_tree(rng: random.Random, depth: int, boolean: bool):
    if rng.random() < 0.05:
        boolean = not boolean  # now and then an operand of the wrong kind
    if boolean:
        op = rng.choice(_COMPARISONS + ["&&", "||", "!"] if depth > 0 else _COMPARISONS)
        if op == "!":
            return ("!", _random_tree(rng, depth - 1, True))
        if op in ("&&", "||"):
            return (op, _random_tree(rng, depth - 1, True), _random_tree(rng, depth - 1, True))
        kind = op in ("==", "!=") and rng.random() < 0.3
        return (op, _random_tree(rng, depth - 1, kind), _random_tree(rng, depth - 1, kind))
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.45:
            return ("var", f"m{rng.randrange(5)}")
        if roll < 0.5:
            return 0.0
        return round(rng.uniform(0.1, 50.0), 3)
    op = rng.choice(["+", "-", "*", "/", "neg"])
    if op == "neg":
        return ("neg", _random_tree(rng, depth - 1, False))
    return (op, _random_tree(rng, depth - 1, False), _random_tree(rng, depth - 1, False))


def test_matches_reference_interpreter_on_random_expressions():
    rng = random.Random(20240817)
    outcomes = collections.Counter()
    for _ in range(3000):
        env = {f"m{k}": round(rng.uniform(-20, 20), 3) for k in range(5) if rng.random() < 0.85}
        tree = _random_tree(rng, rng.randint(1, 5), rng.random() < 0.5)
        outcomes[_check_against_reference(tree, env)] += 1
    # the draw reaches every outcome, each error kind included
    assert set(outcomes) == {
        "number",
        "boolean",
        EvalErrorKind.DIV_BY_ZERO,
        EvalErrorKind.TYPE_MISMATCH,
        EvalErrorKind.NAME_NOT_FOUND,
    }


_literals = st.one_of(
    st.just(0.0), st.floats(0.125, 64.0, allow_nan=False).map(lambda v: round(v, 3))
)


def _numeric(children):
    binary = st.tuples(st.sampled_from("+-*/"), children, children)
    return st.one_of(binary, st.tuples(st.just("neg"), children))


def _logical(children):
    binary = st.tuples(st.sampled_from(["&&", "||"]), children, children)
    return st.one_of(binary, st.tuples(st.just("!"), children))


def _any(children):
    ops = list("+-*/") + _COMPARISONS + ["&&", "||"]
    binary = st.tuples(st.sampled_from(ops), children, children)
    return st.one_of(binary, st.tuples(st.sampled_from(["neg", "!"]), children))


_numbers = st.recursive(_literals, _numeric, max_leaves=12)
_comparisons = st.tuples(st.sampled_from(_COMPARISONS), _numbers, _numbers)
_trees = st.one_of(
    _numbers,
    st.recursive(_comparisons, _logical, max_leaves=6),
    st.recursive(_literals, _any, max_leaves=20),
)


@settings(max_examples=200, deadline=None)
@given(_trees)
def test_render_parse_round_trip(tree):
    _check_against_reference(tree, {})


_NAMES = [f"m{k}" for k in range(5)]


def _outcome(expr, env):
    """A row's value, or its error as (kind, detail)."""
    try:
        return expr(env)
    except EvalError as err:
        return err.kind, err.detail


def _same(got, want):
    # ==, and the same type: a float is never a bool, nor a bool a float
    return type(got) is type(want) and (got == want or got != got and want != want)


def _check_rows(tree, rows):
    """Evaluate ``tree`` over rows (name -> value dicts, names missing
    here and there) as one column, and through the batch entries, against
    the rows evaluated one at a time."""
    expr = parse_expr(_fold(tree, {})[0])
    per_row = [_outcome(expr, env) for env in rows]
    errors = [isinstance(v, tuple) for v in per_row]
    n = len(rows)
    env = {k: [row[k] for row in rows] for k in _NAMES if all(k in row for row in rows)}
    try:
        column = expr.column(env, n)
        outcome = "column"
    except EvalError:
        # a column raises only where some row does, short circuits included
        outcome = "errors"
        assert any(errors), expr.source
    else:
        assert not any(errors), expr.source
        assert len(column) == n and all(map(_same, column, per_row)), expr.source

    # the batch entries, over points holding the rows as metrics
    schema = Schema([ParamSpec("i", Linear(0, n - 1))], (), _NAMES)
    points = [Point((i,), tuple(row.get(k) for k in _NAMES)) for i, row in enumerate(rows)]
    if expr.is_predicate:
        # a keep condition or sort key: the first failing row's own error
        try:
            values = _values(expr, schema, points)
        except EvalError as err:
            assert (err.kind, err.detail) == next(v for v in per_row if isinstance(v, tuple))
        else:
            assert not any(errors) and all(map(_same, values, per_row)), expr.source
        return outcome
    # a cost expression: each row's value or stored error, as point by point
    stored = []
    for columns in (True, False):
        ev = expr_evaluator("e", "v", expr)
        ev = ev if columns else Evaluator(ev.name, ev.produces, ev.func, reads=ev.reads)
        out_schema = Schema(schema.params, (), _NAMES + ["v"])
        cache = Cache()
        policy = FailPolicy(FailMode.ASSIGN_WORST, {"v": -1.0})
        got = enhance_points(points, out_schema, [ev], cache, policy)
        replayed = []
        for p in points:
            try:
                replayed.append(cache.run(ev, PointView(out_schema, p)))
            except EvalError as err:
                replayed.append((err.kind, err.detail, err.coords))
        stored.append((got, replayed, cache.counters()))
    assert stored[0] == stored[1], expr.source
    return outcome


def _random_rows(rng: random.Random) -> list[dict]:
    rows = []
    for _ in range(rng.randint(1, 64)):
        row = {}
        for k in _NAMES:
            roll = rng.random()
            if roll < 0.05:
                continue  # a missing name
            row[k] = 0.0 if roll < 0.2 else round(rng.uniform(-20, 20), 3)
        rows.append(row)
    return rows


def _guarded(rng: random.Random):
    """A division by a name that a short circuit guards against zero, and
    the name."""
    name = rng.choice(_NAMES)
    divisor = ("var", name)
    ratio = (rng.choice(_COMPARISONS), ("/", _random_tree(rng, 2, False), divisor), 1.0)
    if rng.random() < 0.5:
        return ("||", ("==", divisor, 0.0), ratio), name
    return ("&&", ("!=", divisor, 0.0), ratio), name


def test_columns_match_rows_on_random_expressions():
    rng = random.Random(20261019)
    outcomes = collections.Counter()
    for k in range(600):
        if k % 4:
            tree = _random_tree(rng, rng.randint(1, 5), rng.random() < 0.5)
            outcomes[_check_rows(tree, _random_rows(rng))] += 1
        else:
            tree, divisor = _guarded(rng)
            rows = _random_rows(rng)
            outcome = _check_rows(tree, rows)
            guarded = any(row.get(divisor) == 0.0 for row in rows)
            outcomes[f"guarded_{outcome}" if guarded else outcome] += 1
    # the draw reaches every case: columns evaluated whole, rows that fail,
    # and columns whose short circuit guards some rows' zero divisor
    assert set(outcomes) >= {"column", "errors", "guarded_column"}


_names = st.sampled_from(_NAMES).map(lambda name: ("var", name))
_leaves = st.one_of(_literals, _names)
_row_trees = st.one_of(
    st.recursive(_leaves, _numeric, max_leaves=10),
    st.recursive(
        st.tuples(st.sampled_from(_COMPARISONS), _leaves, _leaves), _logical, max_leaves=6
    ),
    st.recursive(_leaves, _any, max_leaves=12),
)
_values_or_zero = st.one_of(st.just(0.0), st.floats(-64.0, 64.0, allow_nan=False))
_rows = st.lists(
    st.dictionaries(st.sampled_from(_NAMES), _values_or_zero, min_size=3), min_size=1, max_size=64
)


@settings(max_examples=150, deadline=None)
@given(_row_trees, _rows)
def test_columns_match_rows(tree, rows):
    _check_rows(tree, rows)
