"""Metric expression mini-language.

A small recursive-descent parser for cost expressions over named
metrics: arithmetic (+ - * /, unary minus, parentheses), comparisons
(< <= > >= == !=) and boolean connectives (&& || !).

Precedence, loosest to tightest: || , && , ! , comparisons, + -, * /,
unary minus. All binary operators associate to the left. Values are
floats; comparisons yield booleans; mixing the two kinds is an
evaluation-time type error. Division by zero is an error, never
infinity.

The parser compiles each expression once into nested column closures,
``fn(env, n) -> list``: ``env`` maps each name to a list of n values,
one per row, and every node yields its n values, each row's float
operations in the order a row-by-row evaluation makes them. ``&&`` and
``||`` evaluate their right operand over only the rows whose left value
needs it, so a column short-circuits row by row as single evaluations
do, and raises only where some row on its own would; the caller then
evaluates row by row to learn which row, and how. Every
subexpression's kind (number or boolean) is fixed by its syntax, so
the kind checks are settled at parse time: a well-kinded expression
evaluates with no check at all, and a mixed one compiles to a closure
that evaluates its operands in order and then raises the type error.
"""

from __future__ import annotations

import re
from itertools import compress
from operator import add, eq, ge, gt, le, lt, mul, ne, neg, not_, sub, truediv

from .errors import ConfigError, EvalError, EvalErrorKind, ExprSyntaxError, text

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Mapping

    # a compiled subexpression: its column closure, and whether it yields a boolean
    Compiled = tuple[Callable[[Mapping[str, list], int], list], bool]

_COMPARISONS = ("<=", ">=", "==", "!=", "<", ">")
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|==|!=|&&|\|\||[-+*/()<>!])"
    r")"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            # skip trailing whitespace before declaring failure
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _divide(left, right):
    def fn(env, n):
        a = left(env, n)
        b = right(env, n)
        if 0.0 in b:
            raise EvalError(EvalErrorKind.DIV_BY_ZERO, "division by zero")
        return list(map(truediv, a, b))

    return fn


def _rows(op):
    """The builder of a closure applying ``op`` row by row, left before right."""
    return lambda a, b: lambda env, n: list(map(op, a(env, n), b(env, n)))


def _connective(skip: bool):
    """The builder of ``&&`` (``skip`` False) or ``||`` (True): a row whose
    left value is ``skip`` keeps it, and the right operand is evaluated
    over only the other rows, whose value it gives."""

    def build(a, b):
        def fn(env, n):
            left = a(env, n)  # a list of its own, never one of env's
            need = list(compress(range(n), map(not_, left) if skip else left))
            if not need:
                return left
            if len(need) == n:
                return b(env, n)
            rows = {name: list(map(column.__getitem__, need)) for name, column in env.items()}
            for i, value in zip(need, b(rows, len(need))):
                left[i] = value
            return left

        return fn

    return build


# closure builders for well-kinded operands
_OPS = {
    "+": _rows(add),
    "-": _rows(sub),
    "*": _rows(mul),
    "/": _divide,
    "<": _rows(lt),
    "<=": _rows(le),
    ">": _rows(gt),
    ">=": _rows(ge),
    "==": _rows(eq),
    "!=": _rows(ne),
    "&&": _connective(False),
    "||": _connective(True),
}


def _raising(operands, expected: str, got_bool: bool):
    """A closure that evaluates ``operands`` in order, then raises the
    type error that their kinds make certain."""
    detail = f"expected {expected}, got {'boolean' if got_bool else 'number'}"

    def fn(env, n):
        for operand in operands:
            operand(env, n)
        raise EvalError(EvalErrorKind.TYPE_MISMATCH, detail)

    return fn


def _expect(node: Compiled, boolean: bool):
    """The closure of ``node``, raising once evaluated if its kind is wrong."""
    fn, is_bool = node
    if is_bool == boolean:
        return fn
    return _raising((fn,), "boolean" if boolean else "number", is_bool)


def _unary(op: str, operand: Compiled) -> Compiled:
    if op == "-":
        fn = _expect(operand, False)
        return (lambda env, n: list(map(neg, fn(env, n)))), False
    fn = _expect(operand, True)
    return (lambda env, n: list(map(not_, fn(env, n)))), True


def _binary(op: str, left: Compiled, right: Compiled) -> Compiled:
    if op in ("&&", "||"):
        # the left operand's kind is checked before the short circuit
        return _OPS[op](_expect(left, True), _expect(right, True)), True
    (lf, l_bool), (rf, r_bool) = left, right
    if op in ("==", "!="):
        if l_bool != r_bool:
            return _raising((lf, rf), "operands of the same kind", r_bool), True
    elif l_bool or r_bool:
        return _raising((lf, rf), "number", True), op in _COMPARISONS
    return _OPS[op](lf, rf), op in _COMPARISONS


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.names: set[str] = set()

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        self.take()

    def parse(self) -> Compiled:
        node = self.or_expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {value!r}", pos)
        return node

    def or_expr(self) -> Compiled:
        return self._left_assoc(self.and_expr, ("||",))

    def and_expr(self) -> Compiled:
        return self._left_assoc(self.not_expr, ("&&",))

    def not_expr(self) -> Compiled:
        if self._at_op("!"):
            self.take()
            return _unary("!", self.not_expr())
        return self.comparison()

    def comparison(self) -> Compiled:
        return self._left_assoc(self.additive, _COMPARISONS)

    def additive(self) -> Compiled:
        return self._left_assoc(self.multiplicative, ("+", "-"))

    def multiplicative(self) -> Compiled:
        return self._left_assoc(self.unary, ("*", "/"))

    def unary(self) -> Compiled:
        if self._at_op("-"):
            self.take()
            return _unary("-", self.unary())
        return self.primary()

    def primary(self) -> Compiled:
        kind, value, pos = self.peek()
        if kind == "num":
            self.take()
            number = float(value)
            return (lambda env, n: [number] * n), False
        if kind == "name":
            self.take()
            self.names.add(value)
            return (lambda env, n: env[value]), False
        if kind == "op" and value == "(":
            self.take()
            node = self.or_expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"expected a value, got {value!r}" if value else "unexpected end", pos)

    def _at_op(self, *ops: str) -> bool:
        kind, value, _ = self.peek()
        return kind == "op" and value in ops

    def _left_assoc(self, operand, ops: tuple[str, ...]) -> Compiled:
        node = operand()
        while self._at_op(*ops):
            _, op, _ = self.take()
            node = _binary(op, node, operand())
        return node


class MetricExpr:
    """A parsed, reusable expression: its source text, the free names it
    reads, whether it yields a boolean, and its compiled column closure.

    Two expressions are equal when their sources are.
    """

    __slots__ = ("source", "names", "is_predicate", "_sorted_names", "_fn")

    def __init__(self, source: str, fn, names: frozenset[str], is_predicate: bool):
        self.source = source
        self.names = names
        self.is_predicate = is_predicate
        self._sorted_names = tuple(sorted(names))
        self._fn = fn

    def __eq__(self, other):
        if not isinstance(other, MetricExpr):
            return NotImplemented
        return self.source == other.source

    def __hash__(self):
        return hash(self.source)

    def __repr__(self):
        return f"MetricExpr({self.source!r})"

    def __call__(self, env: Mapping[str, float]):
        return evaluate(self, env)

    def column(self, env: Mapping[str, list], n: int) -> list:
        """The expression's values over n rows, ``env`` mapping each name
        to its n values. A missing name raises as ``evaluate`` does. Any
        other EvalError says that some row fails: evaluate the rows one
        at a time to learn which, and how."""
        for name in self._sorted_names:
            if name not in env:
                raise EvalError(
                    EvalErrorKind.NAME_NOT_FOUND, f"name {name!r} not found on point", name=name
                )
        return self._fn(env, n)


def parse_expr(text: str) -> MetricExpr:
    """Parse expression text and compile it into a reusable expression.

    Raises ExprSyntaxError (with position) on malformed input.
    """
    parser = _Parser(text)
    fn, is_bool = parser.parse()
    return MetricExpr(text, fn, frozenset(parser.names), is_bool)


def predicate(value, what: str = "expression", boolean: bool = True) -> MetricExpr:
    """``value``, an expression or its text, as a boolean expression (a
    numeric one when ``boolean`` is false); the other kind raises
    ConfigError naming ``what``. Also a ``Reader.read`` converter."""
    expr = value if isinstance(value, MetricExpr) else parse_expr(text(value))
    if expr.is_predicate != boolean:
        got, want = ("boolean", "numeric") if expr.is_predicate else ("numeric", "boolean")
        raise ConfigError(f"{what} must be {want}, got {got} {expr.source!r}")
    return expr


def numeric(value, what: str = "expression") -> MetricExpr:
    """``value`` as a numeric expression, refused as ``predicate`` refuses."""
    return predicate(value, what, boolean=False)


def evaluate(expr: MetricExpr, env: Mapping[str, float]):
    """Evaluate an expression against a name -> value environment, as a
    column of one.

    All free names must resolve; missing names raise EvalError
    (name_not_found, naming the alphabetically first) before any
    evaluation, so boolean short-circuiting never hides an unresolvable
    name.
    """
    return expr.column({name: [float(env[name])] for name in expr.names if name in env}, 1)[0]
