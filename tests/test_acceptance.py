"""Acceptance suite: one test per criterion, deterministic seeds, stated
time budgets enforced. The terminal summary prints one PASS/FAIL line
per criterion (see conftest)."""

import json
import math
import random
import subprocess
import sys
import time

import pytest

from dsex import (
    Cache,
    CommandSpec,
    DesignSpace,
    EvalError,
    FailMode,
    FailPolicy,
    KeepSide,
    Linear,
    ParamSpec,
    PointView,
    Schema,
    apply_transform,
    build_space,
    exhaustive_prune,
    expr_evaluator,
    external_command,
    gradient_sort,
    parse_expr,
    project_space,
    quick_prune,
    run_pipeline,
    StepContext,
)
from dsex.blackscholes import (
    BsConfig,
    BsModelParams,
    closed_form,
    euler_estimate,
    latency_evaluator,
    mix_seed,
    qos_evaluator,
)
from dsex.config import load_evaluators, load_manifest, load_pipeline, load_schema
from dsex.errors import EvalErrorKind
from dsex.frame import render_2dp
from dsex.surrogate import load_model, model_evaluator

from conftest import PIPELINES, ROOT, counting, subprocess_env

GEMM_THROUGHPUT = (
    "matSize * bandwidth * freq_mhz"
    " / ((1 + matSize * matSize / 200) * (1 + bandwidth * bandwidth / 16))"
)


def grid(*dims):
    return build_space(
        Schema([ParamSpec(f"p{k}", Linear(0, d - 1)) for k, d in enumerate(dims)])
    )


def test_criterion_01_cardinality_reproduction():
    start = time.perf_counter()
    schema = load_schema(PIPELINES / "schemas" / "dummy.yaml")
    space = build_space(schema)
    assert len(space) == 459
    assert len(project_space(space, "resource")) == 153
    assert len(project_space(space, "qos")) == 51
    assert time.perf_counter() - start < 1.0


def test_criterion_02_efficiency_example():
    start = time.perf_counter()
    value = parse_expr("freq / lut_pct")({"freq": 247.56, "lut_pct": 0.77})
    rendered = float(render_2dp(value))
    assert abs(rendered - 321.50) <= 0.005
    assert time.perf_counter() - start < 1.0


def _gradient_vs_exhaustive(schema_file, synth_file, objective_exprs, budget):
    """Returns (same_best, gradient_synth_evals, exhaustive_synth_evals)."""
    schema = load_schema(PIPELINES / "schemas" / schema_file)
    space = build_space(schema)
    if schema_file == "gemm_like.yaml":
        estim = model_evaluator(load_model(PIPELINES / "models" / "gemm_estim.json"))
        space = exhaustive_prune("dsp_estim < 4096", evaluator=estim).apply(
            space, StepContext(cache=Cache())
        )

    def best_by_throughput(points, target_space):
        best = None
        for p in points:
            value = PointView(target_space.schema, p).env["throughput"]
            if best is None or value > best[1]:
                best = (p, value)
        return best

    # gradient route
    synth, synth_calls = counting(model_evaluator(load_model(PIPELINES / "models" / synth_file)))
    evs = [synth] + [expr_evaluator(n, n, e) for n, e in objective_exprs]
    ctx = StepContext(cache=Cache(), policy=FailPolicy(FailMode.PRUNE))
    out = gradient_sort(evs, "throughput").apply(space, ctx)
    gradient_best = best_by_throughput(out.points, out)

    # exhaustive route (independent of the walk)
    synth2, synth2_calls = counting(model_evaluator(load_model(PIPELINES / "models" / synth_file)))
    full = apply_transform(space, synth2, Cache(), FailPolicy(FailMode.PRUNE))
    for n, e in objective_exprs:
        full = apply_transform(full, expr_evaluator(n, n, e), Cache())
    exhaustive_best = best_by_throughput(full.points, full)

    assert gradient_best is not None and exhaustive_best is not None
    same = gradient_best[0].coords == exhaustive_best[0].coords
    assert len(set(synth_calls)) <= budget
    return same, len(set(synth_calls)), len(set(synth2_calls))


def test_criterion_03_evaluation_count_reduction():
    start = time.perf_counter()
    same, used, exhaustive = _gradient_vs_exhaustive(
        "fft_like.yaml", "fft_synth.json", [], budget=7
    )
    assert same and exhaustive == 7
    same, used, exhaustive = _gradient_vs_exhaustive(
        "gemm_like.yaml",
        "gemm_synth.json",
        [("throughput", GEMM_THROUGHPUT)],
        budget=15,
    )
    assert same and exhaustive == 41
    assert time.perf_counter() - start < 10.0


def _monotone_cases(rng, count, dims_choices, comparator):
    cases = []
    while len(cases) < count:
        dims = rng.choice(dims_choices)
        names = [f"p{k}" for k in range(len(dims))]
        weights = [rng.uniform(0.2, 3.0) for _ in dims]
        tau = rng.uniform(0.05, 0.95) * sum(w * (d - 1) for w, d in zip(weights, dims))
        text = (
            " + ".join(f"{w:.4f} * {n}" for w, n in zip(weights, names))
            + f" {comparator} {tau:.4f}"
        )
        cases.append((dims, text))
    return cases


def test_criterion_04_quick_prune_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20250808)
    cases = []
    # 2-D instances >= 10x10 stay at the 12x12 budget point, including the
    # adversarial balanced staircase
    cases += [((12, 12), f"1.0 * p0 + 1.0 * p1 >= {t}") for t in (6, 11, 15)]
    cases += _monotone_cases(rng, 57, [(12, 12)], ">=")
    cases += _monotone_cases(rng, 35, [(6, 8), (9, 7), (8, 8), (5, 9)], ">=")
    cases += _monotone_cases(rng, 35, [(6, 8), (9, 7), (8, 8), (5, 9)], "<=")
    cases += _monotone_cases(rng, 35, [(12, 12, 4), (10, 11, 3), (8, 9, 4)], ">=")
    cases += _monotone_cases(rng, 35, [(12, 12, 4), (10, 11, 3), (6, 7, 4)], "<=")
    assert len(cases) == 200

    for dims, text in cases:
        space = grid(*dims)
        side = KeepSide.UPWARD if ">=" in text else KeepSide.DOWNWARD
        ctx = StepContext(cache=Cache())
        quick = quick_prune([], text, side=side).apply(space, ctx)
        oracle = exhaustive_prune(text).apply(space, StepContext(cache=Cache()))
        assert {p.coords for p in quick.points} == {p.coords for p in oracle.points}, text
        if len(dims) == 2 and min(dims) >= 10:
            assert ctx.extra["predicate_evaluations"] < 0.6 * len(space), (
                text,
                ctx.extra["predicate_evaluations"],
            )
    assert time.perf_counter() - start < 60.0


def test_criterion_05_frontier_definition_check():
    start = time.perf_counter()
    rng = random.Random(11)
    checked = 0
    while checked < 100:
        nx, ny = rng.randint(8, 12), rng.randint(8, 12)
        space = grid(nx, ny)
        w1, w2 = rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5)
        tau = rng.uniform(0.1, 0.9) * (w1 * (nx - 1) + w2 * (ny - 1))
        text = f"{w1:.4f} * p0 + {w2:.4f} * p1 >= {tau:.4f}"
        keep = parse_expr(text)
        kept = {p.coords: bool(keep(PointView(space.schema, p).env)) for p in space.points}
        if not any(kept.values()) or all(kept.values()):
            continue
        # brute-force frontier straight from the definition
        expected = set()
        for p in space.points:
            if not kept[p.coords]:
                continue
            ring = [
                q.coords
                for q in space.points
                if q.coords != p.coords
                and max(abs(a - b) for a, b in zip(q.coords, p.coords)) <= 1
            ]
            if any(not kept[c] for c in ring):
                expected.add(p.coords)
        ctx = StepContext(cache=Cache())
        quick_prune([], text).apply(space, ctx)
        assert {tuple(c) for c in ctx.extra["frontier"]} == expected, text
        checked += 1
    assert time.perf_counter() - start < 30.0


def test_criterion_06_gradient_oracle():
    start = time.perf_counter()
    rng = random.Random(4242)
    for trial in range(100):
        n_dims = rng.randint(1, 5)
        while True:
            dims = [rng.randint(2, 12) for _ in range(n_dims)]
            if math.prod(dims) <= 2000:
                break
        space = grid(*dims)
        peak = tuple(rng.randrange(d) for d in dims)
        weights = [round(rng.uniform(0.5, 3.0), 4) for _ in dims]
        if trial % 2:
            # separable quadratic bowl
            terms = " + ".join(
                f"{w} * (p{k} - {c}) * (p{k} - {c})"
                for k, (w, c) in enumerate(zip(weights, peak))
            )
        else:
            # separable saturating decay; strictly worse per axis step away
            terms = " + ".join(
                f"{w} * (p{k} - {c}) * (p{k} - {c})"
                f" / (1 + (p{k} - {c}) * (p{k} - {c}))"
                for k, (w, c) in enumerate(zip(weights, peak))
            )
        objective = f"0 - ({terms})"
        ev, calls = counting(expr_evaluator("obj", "score", objective))
        out = gradient_sort([ev], "score").apply(space, StepContext(cache=Cache()))
        expr = parse_expr(objective)
        brute_best = max(
            expr(PointView(space.schema, p).env) for p in space.points
        )
        got_best = PointView(out.schema, out.points[0]).env["score"]
        assert got_best == brute_best
        assert len(set(calls)) <= len(space)
    assert time.perf_counter() - start < 60.0


@pytest.mark.slow
def test_criterion_07_parallelism_determinism(tmp_path):
    start = time.perf_counter()
    frames = {}
    for parallelism in (1, 2, 8):
        out = tmp_path / f"par{parallelism}"
        proc = subprocess.run(
            [
                sys.executable, "-m", "dsex", "run",
                "--manifest", str(PIPELINES / "blackscholes" / "manifest.yaml"),
                "--out", str(out),
                "--parallelism", str(parallelism),
            ],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            timeout=280,
            cwd=ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        frames[parallelism] = (
            (out / "frame.csv").read_bytes(),
            (out / "frame.jsonl").read_bytes(),
        )
    assert frames[1] == frames[2] == frames[8]
    assert time.perf_counter() - start < 300.0


def test_criterion_08_blackscholes_numerics():
    start = time.perf_counter()
    rng = random.Random(88)

    def random_config(model, seed):
        return BsConfig(
            dynamic=rng.randint(8, 32),
            precision=rng.randint(8, 32),
            nb_iteration=2 ** rng.randint(5, 10),
            nb_euler=2 ** rng.randint(1, 6),
            nb_core=2 ** rng.randint(2, 10),
            model=model,
            seed=seed,
        )

    # zero volatility: quantization alone bounds the error
    for trial in range(50):
        s0 = round(rng.uniform(50.0, 150.0), 4)
        if trial % 2 == 0:
            model = BsModelParams(s0, 0.0, 0.0, 1.0)
            cfg = random_config(model, seed=trial)
            error = abs(euler_estimate(cfg).estimate - closed_form(model)) / closed_form(model)
        else:
            mu = round(rng.uniform(-0.1, 0.1), 4)
            model = BsModelParams(s0, mu, 0.0, 1.0)
            cfg = random_config(model, seed=trial)
            # discrete drift reference: volatility-free path value
            reference = s0 * (1.0 + mu / cfg.nb_euler) ** cfg.nb_euler
            error = abs(euler_estimate(cfg).estimate - reference) / abs(reference)
        assert error <= cfg.nb_euler * 2.0 ** (1 - cfg.precision), cfg

    # mean |error| over 32 seeds never grows across nbIteration doublings
    model = BsModelParams(100.0, 0.05, 0.02, 1.0)
    reference = closed_form(model)
    for slice_id, (dyn, prec, ne) in enumerate([(12, 16, 2), (16, 12, 8), (10, 20, 4)]):
        means = []
        for ni in (32, 64, 128, 256, 512, 1024):
            errors = [
                abs(
                    euler_estimate(
                        BsConfig(dyn, prec, ni, ne, 4, model, seed=mix_seed((slice_id, rep), 42))
                    ).estimate
                    - reference
                )
                / reference
                for rep in range(32)
            ]
            means.append(sum(errors) / len(errors))
        assert all(b <= a for a, b in zip(means, means[1:])), (slice_id, means)

    # statistics never depend on the core count
    for seed in (1, 7, 99):
        estimates = {
            euler_estimate(BsConfig(14, 18, 128, 8, cores, seed=seed)).estimate
            for cores in (4, 16, 64, 1024)
        }
        assert len(estimates) == 1
    assert time.perf_counter() - start < 300.0


def test_criterion_09_throughput_scaling_shape():
    start = time.perf_counter()
    schema = Schema(
        [
            ParamSpec("nbIteration", Linear(64, 64)),
            ParamSpec("nbEuler", Linear(2, 2)),
            ParamSpec("nbCore", Linear(32, 64)),
        ]
    )
    space = build_space(schema)
    with_latency = apply_transform(space, latency_evaluator(0), Cache())
    with_freq = apply_transform(
        with_latency, expr_evaluator("f", "freq_mhz", "250.13"), Cache()
    )
    out = apply_transform(
        with_freq,
        expr_evaluator("thr", "throughput", "freq_mhz * 1e6 / latency_cycles"),
        Cache(),
    )
    by_cores = {
        int(PointView(out.schema, p).env["nbCore"]): PointView(out.schema, p).env["throughput"]
        for p in out.points
    }
    assert by_cores[64] == 2.0 * by_cores[32]
    assert time.perf_counter() - start < 1.0


def test_criterion_10_external_tool_protocol(dummy_schema, tmp_path):
    start = time.perf_counter()
    model_path = PIPELINES / "models" / "dummy_synth.json"
    model = load_model(model_path)
    space = build_space(dummy_schema)

    direct = apply_transform(space, model_evaluator(model), Cache())
    spec = CommandSpec(
        argv=(sys.executable, "-S", "-m", "dsex.surrogate", "--model", str(model_path)),
        produces=model.produces,
        env={"PYTHONPATH": subprocess_env()["PYTHONPATH"]},
        timeout_s=120,
    )
    via_tool = apply_transform(
        space, external_command(model.name, spec), Cache(), parallelism=16
    )
    assert via_tool.schema == direct.schema
    assert [p.metrics for p in via_tool.points] == [p.metrics for p in direct.points]

    # induced timeout handled per policy
    stall_file = tmp_path / "stall.json"
    stall_file.write_text(
        json.dumps(
            {"produces": ["m"], "formulas": {"m": "param1"}, "fail_if": "param1 >= 1"}
        )
    )
    small = DesignSpace(space.schema, space.points[: 2 * 27 : 27])  # param1 = 0 and 1
    stall_spec = CommandSpec(
        argv=(sys.executable, "-S", "-m", "dsex.surrogate", "--model", str(stall_file)),
        produces=("m",),
        env={"PYTHONPATH": subprocess_env()["PYTHONPATH"]},
        timeout_s=1.0,
    )
    stalling = external_command("stall", stall_spec)
    with pytest.raises(EvalError) as err:
        apply_transform(small, stalling, Cache(), FailPolicy(FailMode.ABORT))
    assert err.value.kind is EvalErrorKind.TIMEOUT
    pruned = apply_transform(small, stalling, Cache(), FailPolicy(FailMode.PRUNE))
    assert [p.coords for p in pruned.points] == [small.points[0].coords]
    worst = apply_transform(
        small, stalling, Cache(), FailPolicy(FailMode.ASSIGN_WORST, {"m": -1.0})
    )
    assert len(worst) == 2
    assert not worst.points[0].degraded and worst.points[1].degraded
    assert time.perf_counter() - start < 30.0


@pytest.mark.slow
def test_criterion_11_cache_idempotence(monkeypatch):
    def per_point(*args, **kwargs):
        raise AssertionError("a warm rerun took the per-point path")

    for bundle in ("dsp-pipeline", "gradient-synth", "blackscholes"):
        manifest = load_manifest(PIPELINES / bundle / "manifest.yaml")
        schema = load_schema(manifest.schema)
        registry = load_evaluators(manifest.evaluators, global_seed=manifest.seed)
        pipeline = load_pipeline(
            manifest.pipeline, registry, parallelism=manifest.parallelism
        )
        space = build_space(schema)
        cache = Cache()
        warm = run_pipeline(pipeline, space, cache)
        assert warm.provenance.total_invocations > 0
        start = time.perf_counter()
        with monkeypatch.context() as m:  # every warm batch resolves by lookup
            m.setattr(Cache, "run", per_point)
            m.setattr(PointView, "__init__", per_point)
            rerun = run_pipeline(pipeline, space, cache)
        elapsed = time.perf_counter() - start
        assert rerun.provenance.total_invocations == 0, bundle
        assert elapsed < 10.0, bundle
        assert rerun.rows == warm.rows
        # every step looks up what it evaluated or looked up cold
        for cold, hot in zip(warm.provenance.steps, rerun.provenance.steps, strict=True):
            assert hot.evaluator_invocations == 0, (bundle, hot.step)
            assert hot.cache_hits == cold.evaluator_invocations + cold.cache_hits, (
                bundle,
                hot.step,
            )
