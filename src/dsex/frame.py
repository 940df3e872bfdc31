"""Result frames: the tabular outcome of an exploration run.

A frame has one row per surviving point, with raw parameter values,
the schema's frozen params, its metrics and a degradation flag, plus
per-step provenance. Machine exports (CSV, line-delimited JSON) keep
full shortest-round-trip precision; human tables render values
truncated to 2 decimals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from decimal import ROUND_DOWN, Context, Decimal
from operator import getitem
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError
from .space import DesignSpace


@dataclass(frozen=True)
class StepReport:
    """Provenance of one executed step."""

    step: str
    kind: str
    points_in: int
    points_out: int | None
    evaluator_invocations: int
    cache_hits: int
    wall_time_s: float
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "kind": self.kind,
            "points_in": self.points_in,
            "points_out": self.points_out,
            "evaluator_invocations": self.evaluator_invocations,
            "cache_hits": self.cache_hits,
            "wall_time_s": self.wall_time_s,
            **self.extra,
        }


@dataclass(frozen=True)
class Provenance:
    steps: tuple[StepReport, ...]
    parallelism: int
    total_wall_time_s: float
    info: dict = field(default_factory=dict)

    @property
    def total_invocations(self) -> int:
        return sum(s.evaluator_invocations for s in self.steps)

    def to_dict(self) -> dict:
        return {
            "parallelism": self.parallelism,
            "total_wall_time_s": self.total_wall_time_s,
            "total_evaluator_invocations": self.total_invocations,
            **self.info,
            "steps": [s.to_dict() for s in self.steps],
        }

    def write_json(self, path: str | Path) -> None:
        with open(path, "w", newline="\n") as fh:
            # one write: json.dump writes each token on its own
            fh.write(json.dumps(self.to_dict(), indent=2) + "\n")


# the JSON text json.dumps gives the values whose repr is not JSON
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@dataclass(frozen=True)
class ResultFrame:
    """Ordered rows of raw values; None marks a metric absent on a row."""

    param_columns: tuple[str, ...]
    frozen_columns: tuple[str, ...]
    metric_columns: tuple[str, ...]
    rows: tuple[tuple[float | None, ...], ...]
    provenance: Provenance | None = None

    @property
    def columns(self) -> tuple[str, ...]:
        return self.param_columns + self.frozen_columns + self.metric_columns + ("degraded",)

    def __len__(self) -> int:
        return len(self.rows)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(["" if v is None else repr(float(v)) for v in row]) + "\n")

    def to_jsonl(self, path: str | Path) -> None:
        """One JSON object per row, of its non-None cells, written as it is built.

        Each line is byte for byte ``json.dumps`` of the row's dict of
        non-None cells in column order, non-finite values included
        (``NaN``, ``Infinity``), but rendered directly: each column's
        key text once, each value as the number's ``repr``.
        """
        keys = [json.dumps(c) + ": " for c in self.columns]
        text = _JSON_NON_FINITE.get
        with open(path, "w", newline="\n") as fh:
            for row in self.rows:
                cells = [k + text(r := repr(v), r) for k, v in zip(keys, row) if v is not None]
                fh.write("{" + ", ".join(cells) + "}\n")

    def provenance_json(self, path: str | Path) -> None:
        if self.provenance is None:
            raise ConfigError("frame has no provenance to write")
        self.provenance.write_json(path)


def build_frame(space: DesignSpace, provenance: Provenance | None = None) -> ResultFrame:
    """Tabulate a design space into a result frame.

    Column order: parameters in schema order, frozen params in demotion
    order, the schema's metric names in production order, then the
    degradation flag. A metric column exists even when no row holds a
    value for it; a point's None leaves its cell empty.
    """
    schema = space.schema
    floats, fixed = schema.floats, tuple(schema.frozen_env.values())
    rows = tuple(
        (*map(getitem, floats, p.coords), *fixed, *p.metrics, 1.0 if p.degraded else 0.0)
        for p in space.points
    )
    return ResultFrame(schema.names, tuple(schema.frozen_env), schema.metrics, rows, provenance)


def load_rows(path: str | Path) -> tuple[list[str], list[dict[str, float]]]:
    """Read a saved frame (CSV or JSONL) back as column names plus rows.

    A JSONL line that is not an object of numbers, or a CSV line whose
    cells are not as many as the header's or not all numbers (an empty
    cell is a missing value), is refused with a ``ValueError`` naming
    the file and the line.
    """
    path = Path(path)
    if path.suffix == ".jsonl":
        rows = []
        with open(path) as fh:
            for n, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append(_jsonl_row(line))
                except ValueError as err:
                    raise ValueError(f"{path}: line {n}: {err}") from None
        return _merge_key_orders(dict.fromkeys(map(tuple, rows))), rows
    with open(path) as fh:
        header = fh.readline().strip()
        if not header:
            return [], []
        columns = header.split(",")
        rows = []
        for n, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                rows.append(_csv_row(columns, line.split(",")))
            except ValueError as err:
                raise ValueError(f"{path}: line {n}: {err}") from None
        return columns, rows


def _csv_row(columns: list[str], cells: list[str]) -> dict[str, float]:
    if len(cells) != len(columns):
        raise ValueError(f"{len(cells)} cells, the header has {len(columns)}")
    row = {}
    for c, v in zip(columns, cells):
        if v != "":
            try:
                row[c] = float(v)
            except ValueError:
                raise ValueError(f"{c!r} must be a number, got {v!r}") from None
    return row


def _jsonl_row(line: str) -> dict[str, float]:
    try:
        row = json.loads(line)
    except json.JSONDecodeError as err:
        raise ValueError(f"{err.msg} at column {err.colno}") from None
    if not isinstance(row, dict):
        raise ValueError(f"a row must be a JSON object, got {line}")
    for k, v in row.items():
        if type(v) not in (int, float):  # bool, null, text and nesting are refused
            raise ValueError(f"{k!r} must be a number, got {json.dumps(v)}")
    return {k: float(v) for k, v in row.items()}


def _merge_key_orders(orders: Iterable[tuple[str, ...]]) -> list[str]:
    """The columns of JSONL rows whose keys each come in column order:
    each column after every column some row lists before it, ties (and
    any cycle) broken by first appearance."""
    before: dict[str, set[str]] = {}  # in order of first appearance
    for keys in orders:
        for i, k in enumerate(keys):
            before.setdefault(k, set()).update(keys[:i])
    columns: list[str] = []
    while len(columns) < len(before):
        placed = set(columns)
        todo = [k for k in before if k not in placed]
        columns.append(next((k for k in todo if before[k] <= placed), todo[0]))
    return columns


# enough digits to hold any finite float's integer part and 2 decimals
_FLOAT_DIGITS = Context(prec=312)


def render_2dp(value: float) -> str:
    """Render a value truncated (not rounded) to 2 decimals.

    Truncation keeps 247.56/0.77 at 321.50, the presentation used in
    ranked tables. Non-finite values render as ``inf``, ``-inf`` or
    ``nan``.
    """
    value = float(value)
    if not math.isfinite(value):
        return str(value)
    return str(Decimal(str(value)).quantize(Decimal("0.01"), ROUND_DOWN, _FLOAT_DIGITS))


def _render_params(values: Sequence[float]) -> str:
    parts = []
    for v in values:
        parts.append(str(int(v)) if float(v).is_integer() else render_2dp(v))
    return "[" + ", ".join(parts) + "]"


def render_top_table(frame: ResultFrame, top: int = 5) -> str:
    """Ranked table of the frame's head: Rank | Parameters | metrics."""
    n_params = len(frame.param_columns) + len(frame.frozen_columns)
    headers = ["Rank", "Parameters"] + list(frame.metric_columns) + ["degraded"]
    table = [headers]
    for rank, row in enumerate(frame.rows[:top], start=1):
        cells = [str(rank), _render_params([v for v in row[:n_params]])]
        for v in row[n_params:]:
            cells.append("" if v is None else render_2dp(v))
        table.append(cells)
    return _align(table)


def render_rows_table(
    columns: Sequence[str], rows: Sequence[Mapping[str, float]], top: int | None = None
) -> str:
    """Generic table over loaded rows, 2-decimal truncated."""
    headers = ["Rank"] + list(columns)
    table = [headers]
    shown = rows if top is None else rows[:top]
    for rank, row in enumerate(shown, start=1):
        cells = [str(rank)]
        for c in columns:
            cells.append(render_2dp(row[c]) if c in row else "")
        table.append(cells)
    return _align(table)


def _align(table: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    lines = []
    for r in table:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(lines)
