"""dsex: a design-space exploration engine.

Declare parameter schemas with domains and concern tags, materialize
design spaces, attach metrics through pluggable evaluators, and search
with composable exploration steps producing ranked result frames.

Submodules load lazily so that per-point tool subprocesses (the served
surrogate models) start without paying for the whole package.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": [
        "ConfigError",
        "DsexError",
        "EmptySpaceError",
        "EvalError",
        "EvalErrorKind",
        "ExprSyntaxError",
        "MetricCollision",
        "NoSuchConcern",
        "NotAFullGrid",
        "PipelineAborted",
        "PointNotInSpace",
        "SchemaError",
    ],
    "expr": ["MetricExpr", "parse_expr"],
    "frame": ["Provenance", "ResultFrame", "StepReport", "build_frame"],
    "metrics": [
        "Cache",
        "CommandSpec",
        "Evaluator",
        "FailMode",
        "FailPolicy",
        "PointView",
        "apply_transform",
        "expr_evaluator",
        "external_command",
    ],
    "space": [
        "DesignSpace",
        "Domain",
        "Enumerated",
        "KeepSide",
        "Linear",
        "Norm",
        "ParamSpec",
        "Point",
        "Pow2",
        "Schema",
        "build_space",
        "project_space",
    ],
    "strategy": [
        "Pipeline",
        "Step",
        "StepContext",
        "exhaustive_map",
        "exhaustive_prune",
        "exhaustive_sort",
        "gradient_sort",
        "identity",
        "quick_prune",
        "reduce_dimension",
        "run_pipeline",
    ],
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
