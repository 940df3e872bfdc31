import json
import subprocess
import sys
import time

import pytest

from dsex import (
    Cache,
    CommandSpec,
    EvalError,
    Linear,
    ParamSpec,
    Pow2,
    Schema,
    apply_transform,
    build_space,
    external_command,
    parse_expr,
)
from dsex.errors import ConfigError, EvalErrorKind
from dsex.metrics import PointView
from dsex.surrogate import (
    ResourceModel,
    load_model,
    model_evaluator,
    serve_once,
)

from conftest import PIPELINES, subprocess_env


def core_model(**kwargs):
    return ResourceModel(
        name="m",
        produces=("dsp",),
        formulas={"dsp": parse_expr("nbCore * 2")},
        **kwargs,
    )


def core_space(lo=64, hi=64):
    return build_space(Schema([ParamSpec("nbCore", Linear(lo, hi))]))


class TestModelEvaluator:
    def test_direct_substitution(self):
        out = apply_transform(core_space(), model_evaluator(core_model()), Cache())
        assert out.schema.metrics == ("dsp",)
        assert out.points[0].metrics[0] == 128.0

    def test_failure_rule_raises_timeout(self):
        schema = Schema([ParamSpec("nbCore", Pow2(0, 10)), ParamSpec("matSize", Pow2(0, 6))])
        space = build_space(schema)
        model = ResourceModel(
            name="m",
            produces=("dsp",),
            formulas={"dsp": parse_expr("nbCore * 2")},
            fail_if=parse_expr("nbCore >= 512 && matSize >= 32"),
        )
        ev = model_evaluator(model)
        good = [p for p in space.points if space.raw_values(p) == (256, 32)][0]
        bad = [p for p in space.points if space.raw_values(p) == (512, 32)][0]
        cache = Cache()
        assert cache.run(ev, PointView(schema, good)) == (512.0,)
        with pytest.raises(EvalError) as err:
            cache.run(ev, PointView(schema, bad))
        assert err.value.kind is EvalErrorKind.TIMEOUT

    def test_full_dummy_space_under_a_second(self, dummy_schema):
        model = load_model(PIPELINES / "models" / "dummy_synth.json")
        space = build_space(dummy_schema)
        start = time.perf_counter()
        out = apply_transform(space, model_evaluator(model), Cache())
        assert time.perf_counter() - start < 1.0
        assert len(out) == 459

    def test_missing_formula_rejected(self):
        with pytest.raises(ConfigError):
            ResourceModel("m", ("a", "b"), {"a": parse_expr("1")})

    def test_simulated_latency_sleeps(self):
        model = core_model(latency_s=0.08)
        start = time.perf_counter()
        apply_transform(core_space(), model_evaluator(model), Cache())
        assert time.perf_counter() - start >= 0.08

    def test_model_file_refuses_unknown_keys_but_a_note(self, tmp_path):
        # the shipped gemm_synth.json carries a note, which nothing reads
        assert load_model(PIPELINES / "models" / "gemm_synth.json").fail_if is not None
        path = tmp_path / "m.json"
        path.write_text('{"produces": ["a"], "formulas": {"a": "1"}, "fail_fi": "a > 1"}')
        with pytest.raises(ConfigError, match="unknown keys \\['fail_fi'\\]"):
            load_model(path)

    def test_served_model_file_error_is_one_line(self, tmp_path, capsys):
        from dsex.surrogate import main

        path = tmp_path / "m.json"
        path.write_text('{"produces": ["a"], "formulas": {"a": "p +"}}')
        assert main(["--model", str(path)]) == 1
        assert capsys.readouterr().err.count("\n") == 1


class TestServeOnce:
    def test_prints_flat_object(self, capsys):
        code = serve_once(core_model(), {"DSEX_NBCORE": "4"})
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"dsp": 8}

    def test_missing_env_var_exits_1(self, capsys):
        assert serve_once(core_model(), {}) == 1
        assert "DSEX_NBCORE" in capsys.readouterr().err

    def test_non_integral_values_stay_floats(self, capsys):
        model = ResourceModel(
            "m", ("half",), {"half": parse_expr("nbCore / 2")}
        )
        assert serve_once(model, {"DSEX_NBCORE": "5"}) == 0
        assert json.loads(capsys.readouterr().out) == {"half": 2.5}


class TestSubprocessProtocol:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dsex.surrogate", "--model",
             str(PIPELINES / "models" / "dummy_estim.json")],
            env=subprocess_env({"DSEX_PARAM1": "2", "DSEX_PARAM2": "8"}),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"dsp_estim": 20}

    def test_import_stays_light(self):
        # the served model starts once per point; dataclasses alone would
        # pull in inspect, ast and dis
        probe = (
            "import dsex.surrogate, sys; "
            "print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_import_loads_no_yaml_typing_or_dataclasses(self):
        # the run-file reader in dsex.errors must keep this import light too
        probe = (
            "import dsex.surrogate, sys; "
            "print(sorted({'yaml', 'typing', 'dataclasses'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize(
        "model, params, payload",
        [
            ("dummy_synth", {"PARAM1": "3", "PARAM2": "16", "PARAM3": "6"},
             '{"dsp_synth": 38, "freq_mhz": 385.4}'),
            ("bs_synth", {"DYNAMIC": "17", "PRECISION": "23", "NBCORE": "48"},
             '{"freq_mhz": 250, "dsp_pct": 75, "lut_pct": 60}'),
            ("fft_synth", {"BANDWIDTH": "7"},
             '{"freq_mhz": 493, "throughput": 376.4727272727273}'),
        ],
        ids=["dummy_synth", "bs_synth", "fft_synth"],
    )
    def test_served_payload_is_pinned(self, model, params, payload):
        # -X importtime lists every module the served process loads on stderr
        proc = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-m", "dsex.surrogate",
             "--model", str(PIPELINES / "models" / f"{model}.json")],
            env=subprocess_env({f"DSEX_{k}": v for k, v in params.items()}),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == payload + "\n"
        loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert loaded.isdisjoint({"dataclasses", "typing", "inspect"})
        assert "dsex.expr" in loaded

    def test_in_process_equals_subprocess_on_sample(self, dummy_schema):
        model_path = PIPELINES / "models" / "dummy_synth.json"
        model = load_model(model_path)
        space = build_space(dummy_schema)
        sample = space.points[:: len(space) // 12]
        from dsex import DesignSpace

        small = DesignSpace(space.schema, sample)
        direct = apply_transform(small, model_evaluator(model), Cache())
        spec = CommandSpec(
            argv=(sys.executable, "-S", "-m", "dsex.surrogate", "--model", str(model_path)),
            produces=model.produces,
            env={"PYTHONPATH": subprocess_env()["PYTHONPATH"]},
            timeout_s=60,
        )
        via_tool = apply_transform(
            small, external_command(model.name, spec), Cache(), parallelism=8
        )
        assert via_tool.schema == direct.schema
        assert [p.metrics for p in via_tool.points] == [p.metrics for p in direct.points]

    def test_failure_rule_stalls_until_client_timeout(self, tmp_path):
        model_file = tmp_path / "stall.json"
        model_file.write_text(
            json.dumps(
                {
                    "produces": ["dsp"],
                    "formulas": {"dsp": "nbCore * 2"},
                    "fail_if": "nbCore >= 2",
                }
            )
        )
        spec = CommandSpec(
            argv=(sys.executable, "-S", "-m", "dsex.surrogate", "--model", str(model_file)),
            produces=("dsp",),
            env={"PYTHONPATH": subprocess_env()["PYTHONPATH"]},
            timeout_s=1.0,
        )
        space = core_space(2, 2)
        with pytest.raises(EvalError) as err:
            apply_transform(space, external_command("stall", spec), Cache())
        assert err.value.kind is EvalErrorKind.TIMEOUT
