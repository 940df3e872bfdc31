"""Command line front end.

Subcommands: ``space`` inspects schema cardinalities and projections,
``run`` executes a pipeline and writes frame.csv / frame.jsonl /
provenance.json, ``report`` re-sorts or filters a saved frame offline.

Exit codes for ``run``: 0 success, 1 evaluator failure under the abort
policy, 2 schema/config errors or an output that cannot be written, 3
empty final space. Set DSEX_LOG to debug/info/warning to control
verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import (
    RunManifest,
    echo_manifest,
    load_evaluators,
    load_manifest,
    load_pipeline,
    load_schema,
)
from .errors import ConfigError, DsexError, EvalError, PipelineAborted
from .expr import MetricExpr, numeric, predicate
from .frame import load_rows, render_rows_table, render_top_table
from .metrics import Cache, render_raw
from .space import build_space, project_space
from .strategy import run_pipeline

log = logging.getLogger("dsex")


def _setup_logging() -> None:
    level = os.environ.get("DSEX_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(message)s")


def _print_points(space) -> None:
    frozen = [*map(render_raw, space.schema.frozen_env.values())]
    for p in space.points:
        print("[" + ", ".join([*map(str, space.raw_values(p)), *frozen]) + "]")


def cmd_space(args) -> int:
    try:
        schema = load_schema(args.schema)
        full = build_space(schema)
        if args.concern is not None:
            projected = project_space(full, args.concern)
            print(f"{args.concern}: {len(projected)}")
            if args.list:
                _print_points(projected)
            return 0
        parts = [f"full: {len(full)}"]
        for tag in schema.concern_tags():
            parts.append(f"{tag}: {len(project_space(full, tag))}")
        print(", ".join(parts))
        if args.list:
            _print_points(full)
        return 0
    except DsexError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _cannot_write(err: OSError) -> int:
    print(f"error: cannot write {err.filename}: {err.strerror}", file=sys.stderr)
    return 2


def _manifest_from_args(args) -> RunManifest:
    """The manifest file, if given, with each flag given applied over it."""
    paths = ("schema", "pipeline", "evaluators", "out")
    flags = {
        key: Path(value).resolve() if key in paths else value
        for key in (*paths, "parallelism", "seed", "top")
        if (value := getattr(args, key)) is not None
    }
    if args.manifest:
        return replace(load_manifest(args.manifest), **flags)
    missing = [f"--{key}" for key in ("schema", "pipeline", "evaluators") if key not in flags]
    if missing:
        raise ConfigError(f"{', '.join(missing)} required (or pass --manifest)")
    return RunManifest(**{"out": Path("out").resolve(), **flags})


def cmd_run(args) -> int:
    try:
        manifest = _manifest_from_args(args)
        schema = load_schema(manifest.schema)
        registry = load_evaluators(manifest.evaluators, global_seed=manifest.seed)
        pipeline = load_pipeline(manifest.pipeline, registry, parallelism=manifest.parallelism)
        space = build_space(schema)
    except DsexError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    out_dir = manifest.out
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        echo_manifest(manifest, out_dir / "manifest.yaml")
    except OSError as err:
        return _cannot_write(err)
    log.info("exploring %d points through %d steps", len(space), len(pipeline.steps))

    try:
        frame = run_pipeline(
            pipeline, space, Cache(), info={"seed": manifest.seed}
        )
    except DsexError as err:
        print(f"error: {err}", file=sys.stderr)
        if err.provenance is not None:
            try:
                err.provenance.write_json(out_dir / "provenance.json")
            except OSError as write_err:
                return _cannot_write(write_err)
        return 1 if isinstance(err, PipelineAborted) else 2

    try:
        frame.to_csv(out_dir / "frame.csv")
        frame.to_jsonl(out_dir / "frame.jsonl")
        frame.provenance_json(out_dir / "provenance.json")
    except OSError as err:
        return _cannot_write(err)
    print(render_top_table(frame, manifest.top))
    if len(frame) == 0:
        print("final space is empty", file=sys.stderr)
        return 3
    return 0


def cmd_report(args) -> int:
    try:
        if args.top is not None and args.top < 0:
            raise ConfigError(f"--top must be at least 0, got {args.top}")
        columns, rows = load_rows(args.frame)
        if args.keep:
            keep = predicate(args.keep, "--keep expression")
            _check_columns(keep.names, columns)
            held, kept = _column(keep, rows)
            rows = [r for r, value in zip(held, kept) if value]
        if args.sort:
            key = numeric(args.sort, "--sort expression")
            _check_columns(key.names, columns)
            held, keys = _column(key, rows)
            order = sorted(range(len(held)), key=keys.__getitem__, reverse=args.desc)
            rows = [held[i] for i in order] + [r for r in rows if not key.names <= r.keys()]
        print(render_rows_table(columns, rows, args.top))
        return 0
    except (DsexError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _column(expr: MetricExpr, rows: list[dict]) -> tuple[list[dict], list]:
    """The rows holding every name ``expr`` reads, and its value on each,
    as one column; when the column raises, row by row, so the error is
    the first failing row's own."""
    held = [r for r in rows if expr.names <= r.keys()]
    try:
        return held, expr.column({n: [r[n] for r in held] for n in expr.names}, len(held))
    except EvalError:
        return held, [expr(r) for r in held]


def _check_columns(names, columns) -> None:
    unknown = set(names) - set(columns)
    if unknown:
        raise ConfigError(f"unknown columns: {sorted(unknown)}")


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="dsex", description="design space exploration")
    sub = parser.add_subparsers(dest="command", required=True)

    p_space = sub.add_parser("space", help="inspect a schema's design spaces")
    p_space.add_argument("--schema", required=True)
    p_space.add_argument("--concern", default=None)
    p_space.add_argument("--list", action="store_true")
    p_space.set_defaults(func=cmd_space)

    p_run = sub.add_parser("run", help="run a pipeline and export the frame")
    p_run.add_argument("--manifest", default=None, help="manifest file with defaults")
    p_run.add_argument("--schema", default=None)
    p_run.add_argument("--pipeline", default=None)
    p_run.add_argument("--evaluators", default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--parallelism", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--top", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="re-sort or filter a saved frame")
    p_report.add_argument("--frame", required=True)
    p_report.add_argument("--keep", default=None)
    p_report.add_argument("--sort", default=None)
    p_report.add_argument("--desc", action="store_true")
    p_report.add_argument("--top", type=int, default=None)
    p_report.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
