"""Analytic stand-ins for synthesis and estimation tools.

A resource model maps parameters to metrics through cost expressions,
optionally simulating tool latency and timeout-style failures. The
same model can run in process (``model_evaluator``) or as an external
executable speaking the flat JSON metric protocol (``python -m
dsex.surrogate --model FILE``), which reads ``DSEX_*`` environment
variables, prints the metric object on stdout and exits 0.

Models are fixtures, not predictors: no calibration against real
synthesis data is attempted.
"""

from __future__ import annotations

import json
import os
import sys
import time

from .errors import (
    ConfigError,
    DsexError,
    EvalError,
    EvalErrorKind,
    Reader,
    mapping,
    number,
    placed,
    text,
    texts,
)
from .expr import numeric, predicate

# the served model starts once per point, so this module imports neither
# dataclasses nor typing at run time; annotation-only names load here
TYPE_CHECKING = False
if TYPE_CHECKING:
    from pathlib import Path
    from typing import Mapping, Sequence

    from .expr import MetricExpr
    from .metrics import Evaluator, PointView
    from .space import Point, Schema


# how long the served model stalls when its failure rule fires; long
# enough that any sane client timeout expires first
FAIL_STALL_S = 600.0


class ResourceModel:
    """Per-metric formulas over schema parameters.

    ``fail_if`` simulates a synthesis timeout: points satisfying it
    raise a timeout error in process, and stall past any client
    timeout when served as an external tool. ``latency_s`` sleeps that
    long per evaluation to mimic slow tools.
    """

    def __init__(
        self,
        name: str,
        produces: Sequence[str],
        formulas: Mapping[str, MetricExpr],
        latency_s: float = 0.0,
        fail_if: MetricExpr | None = None,
    ):
        self.name = name
        self.produces = tuple(produces)
        self.formulas = {m: numeric(e, f"model formula for {m!r}") for m, e in formulas.items()}
        self.latency_s = latency_s
        self.fail_if = None if fail_if is None else predicate(fail_if, f"model {name!r} fail_if")
        for metric in self.produces:
            if metric not in self.formulas:
                raise ConfigError(f"model {self.name!r} lacks a formula for {metric!r}")
        # the names the model reads
        rules = [*self.formulas.values(), self.fail_if]
        self.names = frozenset().union(*(r.names for r in rules if r is not None))

    def compute(self, env: Mapping[str, float]) -> list[float]:
        """The produced metrics' values, in ``produces`` order."""
        return [float(self.formulas[metric](env)) for metric in self.produces]

    def fails_on(self, env: Mapping[str, float]) -> bool:
        return self.fail_if is not None and bool(self.fail_if(env))


def model_evaluator(model: ResourceModel, name: str | None = None) -> "Evaluator":
    """In-process evaluator backed by a resource model; without latency
    it has a column form. Each point is its columns over that point, and
    with latency it sleeps after them."""
    from .metrics import Evaluator, env_columns

    def column_func(schema: "Schema", points: "Sequence[Point]") -> list[list[float]]:
        env, n = env_columns(schema, points, model.names), len(points)
        if model.fail_if is not None and True in model.fail_if.column(env, n):
            raise EvalError(EvalErrorKind.TIMEOUT, f"model {model.name!r} failure rule triggered")
        return [model.formulas[metric].column(env, n) for metric in model.produces]

    def func(view: "PointView") -> Sequence[float]:
        values = [column[0] for column in column_func(view.schema, [view.point])]
        if model.latency_s > 0:
            time.sleep(model.latency_s)
        return values

    sleeps = model.latency_s > 0
    return Evaluator(name or model.name, model.produces, func, None if sleeps else column_func)


def model_from_dict(data: "Mapping | Reader", name: str = "model") -> ResourceModel:
    """A model from its mapping, or from a reader over it, such as an
    evaluator entry that has already read its own keys."""
    model = data if isinstance(data, Reader) else Reader(data, f"model {name!r}")
    formulas = Reader(model.read("formulas", mapping), model.where, "formulas")
    built = placed(
        model.where,
        ResourceModel,
        name=model.read("name", text, name),
        produces=model.read("produces", texts),
        formulas={str(m): formulas.read(m, numeric) for m in formulas.data},
        latency_s=model.read("latency_s", number, 0.0),
        fail_if=model.read("fail_if", predicate, None),
    )
    model.close()
    return built


def load_model(path: "str | Path") -> ResourceModel:
    """Read a model file; JSON is tried first, YAML as a fallback.

    The JSON-first order (and this module's lean import set) keeps the
    served subprocess cheap to start, since it runs once per point.
    """
    with open(path) as fh:
        source = fh.read()
    try:
        data = json.loads(source)
    except json.JSONDecodeError:
        try:
            import yaml
        except ImportError:
            raise ConfigError(
                f"model file {path} is not JSON and no YAML parser is available"
            ) from None
        try:
            data = yaml.safe_load(source)
        except yaml.YAMLError as err:
            raise ConfigError(f"cannot parse model file {path}: {err}") from None
    model = Reader(data, f"model file {path}")
    model.read("note", text, None)  # JSON has no comments; a note stands in for one
    stem = os.path.splitext(os.path.basename(str(path)))[0]
    return model_from_dict(model, name=stem)


def serve_once(model: ResourceModel, environ: Mapping[str, str] = os.environ) -> int:
    """Evaluate the model from DSEX_* environment variables, print the
    flat metric object on stdout, and return the exit code.
    """
    env: dict[str, float] = {}
    for name in sorted(model.names):
        raw = environ.get(f"DSEX_{name.upper()}")
        if raw is None:
            print(f"missing parameter: DSEX_{name.upper()}", file=sys.stderr)
            return 1
        try:
            env[name] = float(raw)
        except ValueError:
            print(f"non-numeric parameter: DSEX_{name.upper()}={raw!r}", file=sys.stderr)
            return 1
    if model.fails_on(env):
        time.sleep(FAIL_STALL_S)
        return 1
    if model.latency_s > 0:
        time.sleep(model.latency_s)
    payload = {
        m: (int(v) if v.is_integer() else v) for m, v in zip(model.produces, model.compute(env))
    }
    print(json.dumps(payload))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    # hand-rolled flag parsing: this entry point starts once per point,
    # so it avoids argparse and stays import-light
    args = list(sys.argv[1:] if argv is None else argv)
    model_path = None
    if len(args) == 2 and args[0] == "--model":
        model_path = args[1]
    elif len(args) == 1 and args[0].startswith("--model="):
        model_path = args[0].split("=", 1)[1]
    if model_path is None:
        print("usage: python -m dsex.surrogate --model FILE", file=sys.stderr)
        return 2
    try:
        model = load_model(model_path)
    except (DsexError, OSError) as err:
        print(str(err), file=sys.stderr)
        return 1
    return serve_once(model)


if __name__ == "__main__":
    raise SystemExit(main())
