"""One measured dsex run in a fresh interpreter, started by run.py.

    worker.py setup MANIFEST
        time `import dsex`, config loading and build_space; print JSON
    worker.py run MANIFEST OUT [--trace] [--warm-seconds S] [--inprocess EVALUATORS]
        explore cold on a fresh Cache, rerun warm on the cache that run
        filled (repeated until the reruns add up to S seconds, and their
        median kept), export both frames under OUT/cold and OUT/warm, and
        write OUT/result.json. --trace records spans around dsex's
        public layer functions; --inprocess adds the tool-frontier
        reference runs with in-process evaluators.

dsex is driven only through the calls `dsex run` makes: load_manifest,
load_schema, load_evaluators, load_pipeline, build_space, run_pipeline
and the ResultFrame exports.
"""

import time

T_START = time.perf_counter()  # before dsex is imported: setup_s starts here

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
WARM_REPEATS = 50  # the most warm reruns one exploration makes

# failure kinds reported one by one, including the planned non_finite;
# any other kind (nondeterministic, which nothing raises) counts as "other"
FAILURE_KINDS = (
    "timeout", "tool_failure", "parse_failure", "name_not_found",
    "div_by_zero", "type_mismatch", "non_finite",
)
STEP_KINDS = ("identity", "map", "sort", "prune", "reduce_dimension", "gradient", "quick_prune")
# span name for each evaluator kind of the registry file format
EVALUATOR_SPANS = {
    "command": "metrics.external_command",
    "model": "surrogate.model",
    "expr": "metrics.expr_evaluator",
    "blackscholes_qos": "blackscholes.qos_evaluator",
    "latency": "blackscholes.latency_evaluator",
}
# (nbIteration, nbEuler) pairs of the blackscholes schema
EULER_SHAPES = [(i, e) for i in (32, 64, 128, 256) for e in (2, 4, 8, 16)]


def _import_dsex() -> None:
    import dsex

    home = (ROOT / "src" / "dsex").resolve()
    if Path(dsex.__file__).resolve().parent != home:
        raise SystemExit(f"dsex imported from {dsex.__file__}, expected {home}")


def load(manifest_path, registry_hook=None):
    """The config loading `dsex run` does; returns (manifest, schema, pipeline)."""
    _import_dsex()
    from dsex.config import load_evaluators, load_manifest, load_pipeline, load_schema

    manifest = load_manifest(manifest_path)
    schema = load_schema(manifest.schema)
    registry = load_evaluators(manifest.evaluators, global_seed=manifest.seed)
    if registry_hook is not None:
        registry = registry_hook(manifest, registry)
    pipeline = load_pipeline(manifest.pipeline, registry, parallelism=manifest.parallelism)
    return manifest, schema, pipeline


def cmd_setup(manifest_path) -> dict:
    _, schema, _ = load(manifest_path)
    from dsex.space import build_space

    build_space(schema)
    return {"setup_s": time.perf_counter() - T_START}


def export(frame, out: Path, tracer=None) -> None:
    out.mkdir(parents=True)
    for method, name in (
        (frame.to_csv, "frame.csv"),
        (frame.to_jsonl, "frame.jsonl"),
        (frame.provenance_json, "provenance.json"),
    ):
        if tracer is None:
            method(out / name)
        else:
            with tracer.span(f"frame.{method.__name__}"):
                method(out / name)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def explore(pipeline, space, cache, seed, out: Path, tracer=None, phase=""):
    from dsex.strategy import run_pipeline

    t0 = time.perf_counter()
    if tracer is None:
        frame = run_pipeline(pipeline, space, cache, info={"seed": seed})
        export(frame, out)
    else:
        with tracer.span(f"run.{phase}"):
            frame = run_pipeline(pipeline, space, cache, info={"seed": seed})
            export(frame, out, tracer)
    return frame, time.perf_counter() - t0


def cmd_run(manifest_path, out: Path, trace: bool, warm_seconds: float,
            inprocess: str | None) -> dict:
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        _import_dsex()
        wrap_registry, quick_prune_outputs = install(tracer)
        with tracer.span("config.load"):
            manifest, schema, pipeline = load(manifest_path, wrap_registry)
    else:
        manifest, schema, pipeline = load(manifest_path)
    from dsex.metrics import Cache
    from dsex.space import build_space

    if tracer is None:
        space = build_space(schema)
    else:
        with tracer.span("space.build_space"):
            space = build_space(schema)

    cache = Cache()
    cpu0 = cpu_seconds()
    cold, run_s = explore(pipeline, space, cache, manifest.seed, out / "cold", tracer, "cold")
    cpu_s = cpu_seconds() - cpu0
    evals = cache.counters()[1]
    reruns, rerun_evals = [], 0
    while not reruns or (
        tracer is None and sum(reruns) < warm_seconds and len(reruns) < WARM_REPEATS
    ):
        shutil.rmtree(out / "warm", ignore_errors=True)
        warm, rerun_s = explore(pipeline, space, cache, manifest.seed, out / "warm", tracer, "warm")
        reruns.append(rerun_s)
        rerun_evals += warm.provenance.total_invocations
        if len(reruns) == 1:  # later repeats hold two warm frames at once
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "run_s": run_s,
        "rerun_s": statistics.median(reruns),
        "reruns": len(reruns),
        "cpu_s": cpu_s,
        "evals": evals,
        "rerun_evals": rerun_evals,
        "peak_rss_mb": peak_rss_mb,
        "rows": len(cold),
    }
    if tracer is not None:
        tracer.unpatch()
        tracer.write(out / "spans.csv")
        result["layers"], result["ranking"] = layer_metrics(
            tracer, manifest, cache, cold, quick_prune_outputs
        )
    if inprocess is not None:
        result["checks"] = inprocess_checks(manifest, pipeline, space, cache, evals, inprocess)
    return result


def inprocess_checks(manifest, pipeline, space, cache, evals, inprocess) -> dict:
    """The tool-frontier references that need dsex itself.

    The quick_prune step alone, rerun on the warm cache, yields its
    survivors without a new evaluation. The same pipeline with
    in-process model evaluators must give the identical frame and
    evaluation count at parallelism 1 and 2.
    """
    from dsex.config import load_evaluators, load_pipeline
    from dsex.metrics import Cache
    from dsex.strategy import Pipeline, run_pipeline

    first = Pipeline(pipeline.steps[:1], pipeline.parallelism, pipeline.fail_policy)
    survivors = run_pipeline(first, space, cache)
    n = len(survivors.param_columns)
    registry = load_evaluators(inprocess, global_seed=manifest.seed)
    frames, counts = {}, {}
    for parallelism in (1, 2):
        reference = load_pipeline(manifest.pipeline, registry, parallelism=parallelism)
        fresh = Cache()
        frame = run_pipeline(reference, space, fresh)
        path = Path(inprocess).parent / f"inprocess_p{parallelism}.csv"
        frame.to_csv(path)
        frames[parallelism] = path.read_text()
        counts[parallelism] = fresh.counters()[1]
    return {
        "evals": evals,
        "quick_prune_survivors": [list(row[:n]) for row in survivors.rows],
        "quick_prune_new_evals": survivors.provenance.total_invocations,
        "inprocess_frames": frames,
        "inprocess_evals": counts,
    }


# ---------------------------------------------------------------- tracing


def install(tracer):
    """Wrap dsex's layer functions where their callers look them up.

    Returns a registry hook that wraps every evaluator's function in a
    span named after its kind, so Cache.run's self time is the lookup
    alone, and the list that collects every quick_prune step's output.
    """
    import dataclasses
    from functools import cached_property

    import yaml
    from dsex import blackscholes, expr, metrics, space, strategy

    wrap, patch = tracer.wrap, tracer.patch
    DesignSpace = space.DesignSpace
    patch(DesignSpace, "neighbours", wrap(
        DesignSpace.neighbours, "space.neighbours",
        lambda a, r: (a[2].value, len(a[0]), len(r)),
    ))
    patch(DesignSpace, "diagonal", wrap(
        DesignSpace.diagonal, "space.diagonal", lambda a, r: len(a[0])
    ))
    patch(DesignSpace, "__init__", wrap(DesignSpace.__init__, "space.DesignSpace"))
    patch(space.Point, "__post_init__", wrap(space.Point.__post_init__, "space.Point"))
    patch(strategy, "project_space", wrap(space.project_space, "space.project_space"))
    patch(expr, "evaluate", wrap(expr.evaluate, "expr.evaluate"))
    env = cached_property(wrap(metrics.PointView.env.func, "metrics.PointView.env"))
    env.__set_name__(metrics.PointView, "env")
    patch(metrics.PointView, "env", env)
    patch(metrics.Cache, "run", wrap(metrics.Cache.run, "metrics.Cache.run"))
    one = wrap(metrics.enhance_point, "metrics.enhance", lambda a, r: 1)
    many = wrap(metrics.enhance_points, "metrics.enhance", lambda a, r: len(a[0]))
    patch(strategy, "enhance_point", one)
    patch(strategy, "enhance_points", many)
    patch(metrics, "enhance_points", many)  # apply_transform's lookup
    patch(blackscholes, "euler_estimate", wrap(
        blackscholes.euler_estimate, "blackscholes.euler_estimate",
        lambda a, r: (a[0].nb_iteration, a[0].nb_euler),
    ))
    quick_prune_outputs = []

    def step_output(args, result):
        if args[0].kind == "quick_prune":
            quick_prune_outputs.append(result)

    patch(strategy.Step, "apply", wrap(
        strategy.Step.apply, lambda a: f"strategy.{a[0].kind}", step_output
    ))
    patch(strategy, "build_frame", wrap(strategy.build_frame, "frame.build_frame"))

    def registry_hook(manifest, registry):
        entries = yaml.safe_load(Path(manifest.evaluators).read_text())["evaluators"]
        kinds = {str(e["name"]): str(e["kind"]) for e in entries}
        return {
            name: dataclasses.replace(ev, func=wrap(ev.func, EVALUATOR_SPANS[kinds[name]]))
            for name, ev in registry.items()
        }

    return registry_hook, quick_prune_outputs


def _mean_us(seconds: float, count: int) -> float:
    return seconds / count * 1e6 if count else 0.0


def _quantile_ms(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(tracer, manifest, cache, cold, quick_prune_outputs) -> tuple[dict, list]:
    """Per-layer numbers of the whole traced worker (config loading, space
    build, cold run and warm rerun), and the ten largest self times.

    Seconds are self time. Counts that come from provenance (probes,
    moves, rows, violations) describe the cold run.
    """
    import yaml

    calls, self_s, per_call, self_time, root = tracer.summary()
    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    def attrs(name):
        return [(i, tracer.attrs[i]) for i in per_call[name]]

    # space
    nb = attrs("space.neighbours")
    put("space.neighbours.calls", len(nb), "count")
    put("space.neighbours.s", self_s["space.neighbours"], "s")
    scanned = sum(a[1] for _, a in nb)
    put("space.neighbours.hit_ratio", sum(a[2] for _, a in nb) / scanned if scanned else 0.0, "ratio")
    for norm in ("l1", "linf"):
        idx = [i for i, a in nb if a[0] == norm]
        put(f"space.neighbours.{norm}_us", _mean_us(sum(self_time[i] for i in idx), len(idx)), "us")
    put("space.Point.calls", calls["space.Point"], "count")
    for name in ("space.build_space", "space.project_space", "space.diagonal",
                 "space.DesignSpace", "space.Point"):
        put(f"{name}.s", self_s[name], "s")
    # expr and metrics
    put("expr.evaluate.calls", calls["expr.evaluate"], "count")
    put("expr.evaluate.s", self_s["expr.evaluate"], "s")
    put("expr.evaluate.us", _mean_us(self_s["expr.evaluate"], calls["expr.evaluate"]), "us")
    put("metrics.PointView.env.s", self_s["metrics.PointView.env"], "s")
    put("metrics.PointView.env.us",
        _mean_us(self_s["metrics.PointView.env"], calls["metrics.PointView.env"]), "us")
    put("metrics.Cache.run.self_s", self_s["metrics.Cache.run"], "s")
    evaluator_spans = set(EVALUATOR_SPANS.values())
    invoked = {
        tracer.parent[i]
        for name in evaluator_spans for i in per_call[name]
    }
    lookups = per_call["metrics.Cache.run"]
    misses = [self_time[i] for i in lookups if i in invoked]
    hits = [self_time[i] for i in lookups if i not in invoked]
    put("metrics.Cache.run.hit_us", _mean_us(sum(hits), len(hits)), "us")
    put("metrics.Cache.run.miss_us", _mean_us(sum(misses), len(misses)), "us")
    n_hits, n_misses = cache.counters()
    put("metrics.cache.hits", n_hits, "count")
    put("metrics.cache.misses", n_misses, "count")
    put("metrics.cache.hit_ratio", n_hits / (n_hits + n_misses) if n_hits + n_misses else 0.0, "ratio")
    batches = attrs("metrics.enhance")
    put("metrics.enhance.batches", len(batches), "count")
    put("metrics.enhance.batch_mean", sum(a for _, a in batches) / len(batches) if batches else 0.0, "points")
    spawns = [self_time[i] for i in per_call["metrics.external_command"]]
    put("metrics.external_command.spawns", len(spawns), "count")
    put("metrics.external_command.s", sum(spawns), "s")
    put("metrics.external_command.p50_ms", _quantile_ms(spawns, 50), "ms")
    put("metrics.external_command.p95_ms", _quantile_ms(spawns, 95), "ms")
    failures = dict.fromkeys(FAILURE_KINDS + ("other",), 0)
    for i, kind in tracer.errors.items():
        if tracer.names[tracer.name[i]] in evaluator_spans:
            failures[kind if kind in failures else "other"] += 1
    for kind, count in failures.items():
        put(f"metrics.eval_failures.{kind}", count, "count")
    # blackscholes
    euler = attrs("blackscholes.euler_estimate")
    steps = sum(it * eu for _, (it, eu) in euler)
    put("blackscholes.euler_estimate.calls", len(euler), "count")
    put("blackscholes.euler_estimate.s", self_s["blackscholes.euler_estimate"], "s")
    put("blackscholes.euler_steps", steps, "count")
    kernel_s = self_s["blackscholes.euler_estimate"]
    put("blackscholes.euler_steps_per_s", steps / kernel_s if kernel_s else 0.0, "1/s")
    for it, eu in EULER_SHAPES:
        idx = [i for i, a in euler if a == (it, eu)]
        put(f"blackscholes.euler_step_us.{it}x{eu}",
            _mean_us(sum(self_time[i] for i in idx), len(idx) * it * eu), "us")
    # surrogate and strategy
    put("surrogate.model.calls", calls["surrogate.model"], "count")
    put("surrogate.model.s", self_s["surrogate.model"], "s")
    for kind in STEP_KINDS:
        put(f"strategy.{kind}.s", self_s[f"strategy.{kind}"], "s")
    cold_steps = cold.provenance.steps
    probes = sum(s.extra.get("predicate_evaluations", 0) for s in cold_steps if s.kind == "quick_prune")
    cold_root = per_call["run.cold"][0]
    grid = sum(a for i, a in attrs("space.diagonal") if root[i] == cold_root)
    put("strategy.quick_prune.probes", probes, "count")
    put("strategy.quick_prune.evaluated_frac", probes / grid if grid else 0.0, "ratio")
    put("strategy.quick_prune.kept_violations", _kept_violations(
        yaml.safe_load(Path(manifest.pipeline).read_text())["steps"],
        quick_prune_outputs,
    ), "count")
    put("strategy.gradient.moves",
        sum(s.extra.get("moves", 0) for s in cold_steps if s.kind == "gradient"), "count")
    # frame and config
    for name in ("frame.build_frame", "frame.to_csv", "frame.to_jsonl"):
        put(f"{name}.s", self_s[name], "s")
    put("frame.rows", len(cold), "count")
    put("config.load.s", self_s["config.load"], "s")
    return m, sorted(self_s.items(), key=lambda kv: -kv[1])[:10]


def _kept_violations(steps, outputs) -> int:
    """Rows of the cold run's quick_prune outputs (the first ones
    recorded) whose measured metrics fail the step's own keep predicate;
    rows never probed are skipped."""
    from dsex.expr import parse_expr
    from dsex.metrics import PointView

    keeps = [parse_expr(str(s["keep"])) for s in steps if s.get("step") == "quick_prune"]
    count = 0
    for keep, space in zip(keeps, outputs):
        for p in space.points:
            env = PointView(space.schema, p).env
            if keep.names <= set(env) and not keep(env):
                count += 1
    return count


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        print(json.dumps(cmd_setup(argv[1])))
        return 0
    out = Path(argv[2])

    def option(name, default=None):
        return argv[argv.index(name) + 1] if name in argv else default

    result = cmd_run(argv[1], out, "--trace" in argv, float(option("--warm-seconds", 0)),
                     option("--inprocess"))
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main(sys.argv[1:]))
