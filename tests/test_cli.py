import json
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from conftest import PIPELINES, ROOT, subprocess_env


def dsex(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "dsex", *map(str, args)],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )


class TestSpaceCommand:
    def test_dummy_cardinalities(self):
        proc = dsex("space", "--schema", PIPELINES / "schemas" / "dummy.yaml")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "full: 459, resource: 153, qos: 51"

    def test_singleton(self, tmp_path):
        schema = tmp_path / "one.yaml"
        schema.write_text("params:\n  - name: p\n    domain: {enum: [7]}\n")
        proc = dsex("space", "--schema", schema)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "full: 1"

    def test_unknown_concern_exits_2(self):
        proc = dsex(
            "space", "--schema", PIPELINES / "schemas" / "dummy.yaml", "--concern", "power"
        )
        assert proc.returncode == 2
        assert "power" in proc.stderr

    def test_list_enumerates_raw_values(self, tmp_path):
        schema = tmp_path / "two.yaml"
        schema.write_text(
            "params:\n"
            "  - name: a\n    domain: {linear: [0, 1]}\n"
            "  - name: b\n    domain: {pow2: [1, 2]}\n"
        )
        proc = dsex("space", "--schema", schema, "--list")
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "full: 4"
        assert lines[1:] == ["[0, 2]", "[0, 4]", "[1, 2]", "[1, 4]"]

    def test_schema_error_exits_2(self, tmp_path):
        schema = tmp_path / "bad.yaml"
        schema.write_text("params:\n  - name: p\n    domain: {linear: [5, 1]}\n")
        proc = dsex("space", "--schema", schema)
        assert proc.returncode == 2

    @pytest.mark.parametrize("domain", ["{enum: [a, b]}", "{linear: 5}", "{enum: [2.5, 3.7]}"])
    def test_malformed_domain_exits_2(self, tmp_path, domain):
        schema = tmp_path / "bad.yaml"
        schema.write_text(f"params:\n  - name: p\n    domain: {domain}\n")
        proc = dsex("space", "--schema", schema)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: {schema}: params[0]: 'domain'")
        assert proc.stderr.count("\n") == 1


    @pytest.mark.parametrize(
        "param, named",
        [
            # a lone string is not split into one-letter tags
            ("    concerns: qos\n", "'concerns'"),
            ("    concerns: 5\n", "'concerns'"),
            ("    concern: [qos]\n", "'concern'"),
            # values the domain or schema refuses, placed at the file and entry
            ("  - {name: q, domain: {linear: [5, 2]}}\n",
             "schema.yaml: params[1]: 'domain': linear domain [5, 2] enumerates no value"),
            ("  - {name: q, domain: {pow2: [-1, 2]}}\n", "schema.yaml: params[1]: 'domain'"),
            ("  - {name: q, domain: {enum: [3, 3]}}\n", "schema.yaml: params[1]: 'domain'"),
            ("  - {name: q, domain: {}}\n", "schema.yaml: params[1]: 'domain' must be"),
            # a value no float holds would end the run in an OverflowError
            ("  - {name: q, domain: {pow2: [1020, 1030]}}\n",
             "schema.yaml: params[1]: 'domain': pow2 domain [1020, 1030] has a value too large"),
            ("  - {name: 7x, domain: {enum: [1]}}\n",
             "schema.yaml: params[1]: invalid identifier: '7x'"),
            ("  - {name: p, domain: {enum: [1]}}\n",
             "schema.yaml: duplicate names in schema: ['p', 'p']"),
        ],
        ids=["string-concerns", "int-concerns", "misspelt-concerns", "linear-bounds",
             "pow2-exponent", "enum-repeat", "no-kind", "pow2-overflow", "name", "duplicate"],
    )
    def test_malformed_param_exits_2_naming_the_key(self, tmp_path, capsys, param, named):
        from dsex.cli import main

        schema = tmp_path / "schema.yaml"
        schema.write_text("params:\n  - name: p\n    domain: {linear: [0, 3]}\n" + param)
        assert main(["space", "--schema", str(schema)]) == 2
        assert named in capsys.readouterr().err

    def test_unknown_schema_key_and_unreadable_schema_exit_2(self, tmp_path, capsys):
        from dsex.cli import main

        schema = tmp_path / "schema.yaml"
        schema.write_text("params:\n  - {name: p, domain: {enum: [1]}}\nparam: []\n")
        assert main(["space", "--schema", str(schema)]) == 2
        assert f"{schema}: unknown keys ['param']" in capsys.readouterr().err
        # a directory is no schema file
        assert main(["space", "--schema", str(tmp_path)]) == 2
        assert f"cannot read {tmp_path}" in capsys.readouterr().err


class TestRunCommand:
    def test_dsp_pipeline_top_row_is_exhaustive_minimum(self, tmp_path):
        out = tmp_path / "out"
        proc = dsex(
            "run", "--manifest", PIPELINES / "dsp-pipeline" / "manifest.yaml", "--out", out
        )
        assert proc.returncode == 0, proc.stderr
        rows = [
            json.loads(line) for line in (out / "frame.jsonl").read_text().splitlines()
        ]
        # independent exhaustive oracle over the whole dummy space
        best = None
        for p1 in range(17):
            for p2 in (2**e for e in range(9)):
                for p3 in (4, 6, 9):
                    estim = p1 * 8 + p2 / 2
                    if not estim < 128:
                        continue
                    synth = estim + p3
                    if best is None or synth < best[0]:
                        best = (synth, p1, p2, p3)
        top = rows[0]
        assert (top["param1"], top["param2"], top["param3"]) == (best[1], best[2], best[3])
        assert top["dsp_synth"] == best[0]
        assert set(rows[0]) >= {"param1", "param2", "param3", "dsp_estim", "dsp_synth"}
        assert (out / "manifest.yaml").is_file()
        assert (out / "provenance.json").is_file()

    def test_identity_pipeline_row_count(self, tmp_path):
        pipe = tmp_path / "pipeline.yaml"
        pipe.write_text("steps:\n  - {step: identity}\n")
        evs = tmp_path / "evaluators.yaml"
        evs.write_text("evaluators: []\n")
        out = tmp_path / "out"
        proc = dsex(
            "run",
            "--schema", PIPELINES / "schemas" / "dummy.yaml",
            "--pipeline", pipe,
            "--evaluators", evs,
            "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        lines = (out / "frame.csv").read_text().splitlines()
        assert len(lines) == 1 + 459
        assert lines[0] == "param1,param2,param3,degraded"

    def test_empty_final_space_exits_3(self, tmp_path):
        pipe = tmp_path / "pipeline.yaml"
        pipe.write_text("steps:\n  - {step: prune, keep: \"1 == 0\"}\n")
        evs = tmp_path / "evaluators.yaml"
        evs.write_text("evaluators: []\n")
        proc = dsex(
            "run",
            "--schema", PIPELINES / "schemas" / "dummy.yaml",
            "--pipeline", pipe,
            "--evaluators", evs,
            "--out", tmp_path / "out",
        )
        assert proc.returncode == 3

    @pytest.mark.parametrize("keep, code, rows", [("m >= 1", 0, ["1.0,0.0"]), ("m < 1", 3, [])])
    def test_schema_with_no_parameter_runs_quick_prune(self, tmp_path, keep, code, rows):
        # the one point of the grid is its own diagonal
        schema = tmp_path / "none.yaml"
        schema.write_text("params: []\n")
        evs = tmp_path / "evaluators.yaml"
        evs.write_text("evaluators:\n  - {name: e, kind: expr, produces: m, expr: \"1\"}\n")
        pipe = tmp_path / "pipeline.yaml"
        pipe.write_text(f"steps:\n  - {{step: quick_prune, evaluators: [e], keep: \"{keep}\"}}\n")
        proc = dsex(
            "run", "--schema", schema, "--pipeline", pipe, "--evaluators", evs,
            "--out", tmp_path / "out",
        )
        assert proc.returncode == code, proc.stderr
        assert (tmp_path / "out" / "frame.csv").read_text().splitlines() == ["m,degraded", *rows]

    def test_abort_failure_exits_1(self, tmp_path):
        evs = tmp_path / "evaluators.yaml"
        evs.write_text(
            "evaluators:\n"
            "  - name: broken\n"
            "    kind: command\n"
            f"    argv: [\"{sys.executable}\", \"-c\", \"import sys; sys.exit(4)\"]\n"
            "    produces: [m]\n"
        )
        pipe = tmp_path / "pipeline.yaml"
        pipe.write_text("steps:\n  - {step: map, evaluator: broken}\n")
        proc = dsex(
            "run",
            "--schema", PIPELINES / "schemas" / "dummy.yaml",
            "--pipeline", pipe,
            "--evaluators", evs,
            "--out", tmp_path / "out",
        )
        assert proc.returncode == 1
        assert (tmp_path / "out" / "provenance.json").is_file()

    def test_huge_metric_prints_in_the_top_table(self, tmp_path, capsys):
        from dsex.cli import main

        evs = tmp_path / "evaluators.yaml"
        evs.write_text(
            "evaluators:\n"
            "  - {name: huge, kind: expr, produces: h, expr: \"(param1 + 1) * 1e30\"}\n"
        )
        pipe = tmp_path / "pipeline.yaml"
        pipe.write_text("steps:\n  - {step: map, evaluator: huge}\n")
        code = main([
            "run",
            "--schema", str(PIPELINES / "schemas" / "dummy.yaml"),
            "--pipeline", str(pipe),
            "--evaluators", str(evs),
            "--out", str(tmp_path / "out"),
            "--top", "1",
        ])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[1]
        cells = [c.strip() for c in row.split("|")[2:]]
        assert cells == ["1000000000000000000000000000000.00", "0.00"]

    @pytest.mark.parametrize("policy, code", [("prune", 3), ("abort", 1)])
    def test_command_that_cannot_start_goes_through_the_fail_policy(
        self, tmp_path, capsys, policy, code
    ):
        from dsex.cli import main

        (tmp_path / "evaluators.yaml").write_text(
            "evaluators:\n"
            "  - {name: tool, kind: command, argv: [/nonexistent/tool], produces: [m]}\n"
        )
        (tmp_path / "pipeline.yaml").write_text(
            f"fail_policy: {policy}\nsteps:\n  - {{step: map, evaluator: tool}}\n"
        )
        out = tmp_path / "out"
        argv = ["run", "--schema", str(PIPELINES / "schemas" / "dummy.yaml"),
                "--pipeline", str(tmp_path / "pipeline.yaml"),
                "--evaluators", str(tmp_path / "evaluators.yaml"), "--out", str(out)]
        assert main(argv) == code
        step = json.loads((out / "provenance.json").read_text())["steps"][0]
        if policy == "prune":
            assert step["points_out"] == 0
        else:
            assert "'/nonexistent/tool' cannot start" in capsys.readouterr().err
            assert "'/nonexistent/tool' cannot start" in step["error"]

    @pytest.mark.parametrize("under", ["", "out"], ids=["out", "parent"])
    def test_output_that_cannot_be_written_exits_2(self, tmp_path, capsys, under):
        from dsex.cli import main

        # the output directory, or a directory above it, is a regular file
        (tmp_path / "out").write_text("")
        out = tmp_path / "out" / under if under else tmp_path / "out"
        argv = ["run", "--manifest", str(PIPELINES / "dsp-pipeline" / "manifest.yaml"),
                "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert len(err.splitlines()) == 1

    def test_export_that_cannot_be_written_exits_2(self, tmp_path, capsys):
        from dsex.cli import main

        out = tmp_path / "out"
        (out / "frame.csv").mkdir(parents=True)
        argv = ["run", "--manifest", str(PIPELINES / "dsp-pipeline" / "manifest.yaml"),
                "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: cannot write {out / 'frame.csv'}: Is a directory\n"

    def test_failed_run_whose_provenance_cannot_be_written_exits_2(self, tmp_path, capsys):
        from dsex.cli import main

        (tmp_path / "evaluators.yaml").write_text(
            "evaluators:\n"
            "  - {name: tool, kind: command, argv: [/nonexistent/tool], produces: [m]}\n"
        )
        (tmp_path / "pipeline.yaml").write_text("steps:\n  - {step: map, evaluator: tool}\n")
        out = tmp_path / "out"
        (out / "provenance.json").mkdir(parents=True)
        argv = ["run", "--schema", str(PIPELINES / "schemas" / "dummy.yaml"),
                "--pipeline", str(tmp_path / "pipeline.yaml"),
                "--evaluators", str(tmp_path / "evaluators.yaml"), "--out", str(out)]
        assert main(argv) == 2
        # the step's error, then the write's
        step_error, write_error = capsys.readouterr().err.splitlines()
        assert "'/nonexistent/tool' cannot start" in step_error
        assert write_error == f"error: cannot write {out / 'provenance.json'}: Is a directory"

    @pytest.mark.parametrize(
        "pipeline, named",
        [
            # the second map re-produces the first map's name
            ("steps:\n  - {step: map, evaluator: e}\n  - {step: map, evaluator: again}\n",
             "'m'"),
            # a failure under assign_worst with no worst value configured
            ("fail_policy: assign_worst\n"
             "steps:\n  - {step: identity}\n  - {step: map, evaluator: inverse}\n",
             "no worst value"),
        ],
        ids=["metric-collision", "missing-worst"],
    )
    def test_step_config_error_exits_2_with_provenance(self, tmp_path, capsys, pipeline, named):
        from dsex.cli import main

        (tmp_path / "pipeline.yaml").write_text(pipeline)
        (tmp_path / "evaluators.yaml").write_text(
            "evaluators:\n"
            "  - {name: e, kind: expr, produces: m, expr: \"param1 + 1\"}\n"
            "  - {name: again, kind: expr, produces: m, expr: \"param1 + 2\"}\n"
            "  - {name: inverse, kind: expr, produces: m, expr: \"1 / param1\"}\n"
        )
        out = tmp_path / "out"
        argv = ["run", "--schema", str(PIPELINES / "schemas" / "dummy.yaml"),
                "--pipeline", str(tmp_path / "pipeline.yaml"),
                "--evaluators", str(tmp_path / "evaluators.yaml"), "--out", str(out)]
        assert main(argv) == 2
        assert named in capsys.readouterr().err
        steps = json.loads((out / "provenance.json").read_text())["steps"]
        assert len(steps) == 2
        assert steps[0]["points_out"] == 459
        assert steps[1]["points_out"] is None
        assert named in steps[1]["error"]
        assert not (out / "frame.csv").exists()

    def test_missing_config_exits_2(self, tmp_path):
        proc = dsex(
            "run",
            "--schema", tmp_path / "ghost.yaml",
            "--pipeline", tmp_path / "ghost.yaml",
            "--evaluators", tmp_path / "ghost.yaml",
            "--out", tmp_path / "out",
        )
        assert proc.returncode == 2

    def test_malformed_worst_exits_2(self, tmp_path):
        pipe = tmp_path / "pipeline.yaml"
        pipe.write_text(
            "steps:\n  - {step: identity}\nfail_policy: assign_worst\nworst: {m: abc}\n"
        )
        evs = tmp_path / "evaluators.yaml"
        evs.write_text("evaluators: []\n")
        proc = dsex(
            "run",
            "--schema", PIPELINES / "schemas" / "dummy.yaml",
            "--pipeline", pipe,
            "--evaluators", evs,
            "--out", tmp_path / "out",
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_chain_producing_a_name_twice_exits_2(self, tmp_path):
        evs = tmp_path / "evaluators.yaml"
        evs.write_text(
            "evaluators:\n"
            "  - {name: e1, kind: expr, produces: x, expr: \"param1\"}\n"
            "  - {name: e2, kind: expr, produces: x, expr: \"param2\"}\n"
        )
        pipe = tmp_path / "pipeline.yaml"
        pipe.write_text("steps:\n  - {step: gradient, evaluators: [e1, e2], objective: x}\n")
        proc = dsex(
            "run",
            "--schema", PIPELINES / "schemas" / "dummy.yaml",
            "--pipeline", pipe,
            "--evaluators", evs,
            "--out", tmp_path / "out",
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "produces a name twice" in proc.stderr
        assert not (tmp_path / "out").exists()  # refused before the run starts

    def test_reproducible_bytes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            proc = dsex(
                "run", "--manifest", PIPELINES / "gradient-synth" / "manifest.yaml",
                "--out", out,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append((out / "frame.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("bundle", ["blackscholes", "dsp-pipeline", "gradient-synth"])
    def test_bundle_reproduces_golden_frames(self, bundle, tmp_path):
        from dsex.cli import main

        manifest = PIPELINES / bundle / "manifest.yaml"
        assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path)]) == 0
        for name in ("frame.csv", "frame.jsonl"):
            golden = ROOT / "runs" / bundle / name
            assert (tmp_path / name).read_bytes() == golden.read_bytes(), name

    @pytest.mark.parametrize(
        "in_manifest, flags, expected",
        [
            ("", [], 1),  # neither the manifest nor the command line sets it
            ("parallelism: 3\n", [], 3),
            ("parallelism: 3\n", ["--parallelism", "2"], 2),
        ],
        ids=["default", "manifest", "flag"],
    )
    def test_parallelism_precedence(self, tmp_path, in_manifest, flags, expected):
        from dsex.cli import main

        (tmp_path / "pipeline.yaml").write_text("steps:\n  - {step: identity}\n")
        (tmp_path / "evaluators.yaml").write_text("evaluators: []\n")
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(
            f"schema: {PIPELINES / 'schemas' / 'dummy.yaml'}\n"
            "pipeline: pipeline.yaml\nevaluators: evaluators.yaml\n" + in_manifest
        )
        out = tmp_path / "out"
        assert main(["run", "--manifest", str(manifest), "--out", str(out), *flags]) == 0
        provenance = json.loads((out / "provenance.json").read_text())
        assert provenance["parallelism"] == expected
        assert yaml.safe_load((out / "manifest.yaml").read_text())["parallelism"] == expected

    @pytest.mark.parametrize("top, code, lines", [(-457, 2, 0), (0, 0, 1)], ids=["negative", "zero"])
    def test_top_must_not_be_negative(self, tmp_path, capsys, top, code, lines):
        from dsex.cli import main

        (tmp_path / "pipeline.yaml").write_text("steps:\n  - {step: identity}\n")
        (tmp_path / "evaluators.yaml").write_text("evaluators: []\n")
        out = tmp_path / "out"
        argv = ["run", "--schema", str(PIPELINES / "schemas" / "dummy.yaml"),
                "--pipeline", str(tmp_path / "pipeline.yaml"),
                "--evaluators", str(tmp_path / "evaluators.yaml"),
                "--out", str(out), "--top", str(top)]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == lines  # 0 prints the header only
        assert out.exists() == (code == 0)
        if code:
            assert "'top'" in captured.err

    def test_fail_policy_flag_is_gone(self, tmp_path):
        # the pipeline file owns the fail policy
        proc = dsex(
            "run", "--manifest", PIPELINES / "dsp-pipeline" / "manifest.yaml",
            "--out", tmp_path / "out", "--fail-policy", "prune",
        )
        assert proc.returncode == 2
        assert "--fail-policy" in proc.stderr
        assert not (tmp_path / "out").exists()


class TestMalformedRunFiles:
    """A run file holding a value of the wrong type is a config error:
    exit 2 with a message naming the key or file, not a traceback."""

    @pytest.mark.parametrize(
        "manifest, pipeline, registry, named",
        [
            ("parallelism: abc\n", "", "", "'parallelism'"),
            ("seed: x\n", "", "", "'seed'"),
            ("top: [1]\n", "", "", "'top'"),
            # a bool is not an integer, as in schema files
            ("seed: true\n", "", "", "'seed'"),
            ("", "parallelism: two\n", "", "'parallelism'"),
            ("", "", "  - {name: m, kind: model, model: missing.json}\n", "missing.json"),
            # numeric registry values: strings, bools and non-finite numbers
            ("", "", "  - {name: c, kind: command, argv: [x], produces: [m], timeout_s: abc}\n",
             "'c': 'timeout_s'"),
            ("", "", "  - {name: lat, kind: latency, overhead: x}\n", "'lat': 'overhead'"),
            ("", "", "  - {name: q, kind: blackscholes_qos, model: {S0: .nan}}\n",
             "'q': 'model.S0'"),
            ("", "", "  - {name: q, kind: blackscholes_qos, model: {mu: '0.1'}}\n",
             "'q': 'model.mu'"),
            ("", "", "  - {name: q, kind: blackscholes_qos, model: {sigma: true}}\n",
             "'q': 'model.sigma'"),
            ("", "", "  - {name: q, kind: blackscholes_qos, model: {T: .inf}}\n",
             "'q': 'model.T'"),
            ("", "", "  - {name: c, kind: command, argv: [x], produces: [m], timeout_s: 1%s}\n"
             % ("0" * 400), "'c': 'timeout_s'"),
            # a misspelt model key would otherwise run with the default value
            ("", "", "  - {name: q, kind: blackscholes_qos, model: {S0: 100.0, sgima: 0.5}}\n",
             "'sgima'"),
            # a timeout no tool can meet
            ("", "", "  - {name: c, kind: command, argv: [x], produces: [m], timeout_s: 0}\n",
             "'c': 'timeout_s'"),
            ("", "", "  - {name: c, kind: command, argv: [x], produces: [m], timeout_s: -1}\n",
             "'c': 'timeout_s'"),
            ("top: -1\n", "", "", "manifest.yaml: 'top' must be at least 0, got -1"),
            ("parallelism: 0\n", "", "", "manifest.yaml: 'parallelism'"),
            # a choice among named options
            ("", "  - {step: reduce_dimension, concern: qos, to: mid}\n", "",
             "pipeline.yaml: steps[1]: 'to' must be one of ['min', 'max']"),
            ("", "  - {step: quick_prune, keep: 'param1 > 1', side: up}\n", "",
             "pipeline.yaml: steps[1]: 'side' must be one of ['upward', 'downward']"),
            ("", "fail_policy: skip\n", "", "pipeline.yaml: 'fail_policy' must be one of"),
            ("", "  - {step: identity, fail_policy: skip}\n", "",
             "pipeline.yaml: steps[1]: 'fail_policy' must be one of"),
            ("", "  - {step: map, evaluator: ghost}\n", "  - {name: e, kind: expr, produces: m, "
             "expr: '1'}\n", "pipeline.yaml: steps[1]: 'evaluator' must be one of ['e']"),
            # an expression of the wrong kind
            ("", "  - {step: prune, keep: 'param1 + 1'}\n", "",
             "pipeline.yaml: steps[1]: 'keep': expression must be boolean, got numeric"),
            ("", "", "  - {name: x, kind: expr, produces: m, expr: 'param1 > 1'}\n",
             "evaluators.yaml: evaluator 'x': 'expr': expression must be numeric"),
            ("", "", "  - {name: x, kind: model, produces: [m], formulas: {m: 'param1 > 1'}}\n",
             "evaluators.yaml: evaluator 'x': 'formulas.m': expression must be numeric"),
            ("", "", "  - {name: x, kind: model, produces: [m], formulas: {m: '1'}, "
             "fail_if: 'param1'}\n",
             "evaluators.yaml: evaluator 'x': 'fail_if': expression must be boolean"),
            # worst values: mistyped, and given where no assign_worst policy reads them
            ("", "fail_policy: assign_worst\nworst: {m: abc}\n", "",
             "pipeline.yaml: 'worst': worst values must map metric names to finite numbers"),
            ("", "  - {step: identity, worst: {m: -5}}\n"
             "fail_policy: assign_worst\nworst: {m: 1000}\n", "",
             "pipeline.yaml: steps[1]: 'worst' needs fail_policy"),
            ("", "fail_policy: prune\nworst: {m: 1}\n", "", "pipeline.yaml: 'worst' needs"),
            # values each constructor refuses, placed at the entry that gave them
            ("", "", "  - {name: 7x, kind: expr, produces: m, expr: '1'}\n",
             "evaluators.yaml: evaluator '7x': invalid identifier: '7x'"),
            ("", "", "  - {name: x, kind: model, produces: [a], formulas: {m: '1'}}\n",
             "evaluators.yaml: evaluator 'x': model 'x' lacks a formula for 'a'"),
            ("", "", "  - {name: c, kind: command, argv: [], produces: [m]}\n",
             "evaluators.yaml: evaluator 'c': command argv must not be empty"),
            ("", "", "  - {name: a, kind: expr, produces: m, expr: '1'}\n"
             "  - {name: a, kind: expr, produces: n, expr: '2'}\n",
             "evaluators.yaml: evaluators[1]: duplicate evaluator name 'a'"),
            ("", "  - {step: gradient, evaluators: [e1, e2], objective: x}\n",
             "  - {name: e1, kind: expr, produces: x, expr: param1}\n"
             "  - {name: e2, kind: expr, produces: x, expr: param2}\n",
             "pipeline.yaml: steps[1]: evaluator chain produces a name twice"),
        ],
        ids=["parallelism", "seed", "top", "bool", "pipeline-parallelism", "model-file",
             "timeout_s", "overhead", "S0", "mu", "sigma", "T", "huge-timeout_s",
             "model-key", "zero-timeout_s", "negative-timeout_s", "negative-top",
             "zero-parallelism", "to", "side", "fail_policy", "step-fail_policy",
             "unknown-evaluator", "numeric-keep", "boolean-expr", "boolean-formula",
             "numeric-fail_if", "worst", "step-worst-alone", "worst-without-assign_worst",
             "evaluator-name", "missing-formula", "empty-argv", "duplicate-evaluator", "chain"],
    )
    def test_exits_2_naming_the_key(self, tmp_path, capsys, manifest, pipeline, registry, named):
        # the pipeline's lines after its first step either add steps or set top-level keys
        err = run_refused(tmp_path, capsys, manifest, "steps:\n  - {step: identity}\n" + pipeline,
                          registry)
        assert named in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "manifest, pipeline, file, key",
        [
            # a key a run file no longer reads fails loudly
            ("", "parallelism: 2\n", "pipeline.yaml", "parallelism"),
            ("fail_policy: prune\n", "", "manifest.yaml", "fail_policy"),
            ("paralellism: 2\n", "", "manifest.yaml", "paralellism"),
            ("", "fail_polcy: prune\n", "pipeline.yaml", "fail_polcy"),
        ],
        ids=["pipeline-parallelism", "manifest-fail_policy", "manifest-typo", "pipeline-typo"],
    )
    def test_unknown_top_level_key(self, tmp_path, capsys, manifest, pipeline, file, key):
        err = run_refused(tmp_path, capsys, manifest, pipeline + "steps:\n  - {step: identity}\n")
        assert str(tmp_path / file) in err and repr(key) in err

    @pytest.mark.parametrize(
        "step, key",
        [
            ("{step: identity, evaluator: e}", "evaluator"),
            ("{step: map, evaluator: e, keep: 'm > 0'}", "keep"),
            ("{step: sort, key: param1, acending: false}", "acending"),
            ("{step: prune, keep: 'param1 > 0', ascending: true}", "ascending"),
            ("{step: reduce_dimension, concern: qos, to_min: true}", "to_min"),
            ("{step: gradient, evaluators: [e], objective: m, ascending: false}", "ascending"),
            ("{step: quick_prune, evaluators: [e], keep: 'm > 0', concerns: qos}", "concerns"),
        ],
        ids=["identity", "map", "sort", "prune", "reduce_dimension", "gradient", "quick_prune"],
    )
    def test_step_refuses_unknown_keys(self, tmp_path, capsys, step, key):
        err = run_refused(
            tmp_path, capsys, "", f"steps:\n  - {{step: identity}}\n  - {step}\n",
            "  - {name: e, kind: expr, produces: m, expr: \"param1\"}\n",
        )
        assert f"steps[1]: unknown keys [{key!r}]" in err

    @pytest.mark.parametrize(
        "entry, key",
        [
            ("{name: x, kind: expr, produces: m, expr: '1', formulas: {m: '1'}}", "formulas"),
            # with a model file, the inline keys are not read
            ("{name: x, kind: model, model: m.json, produces: [m]}", "produces"),
            ("{name: x, kind: model, produces: [m], formulas: {m: '1'}, fial_if: 'm > 0'}",
             "fial_if"),
            ("{name: x, kind: command, argv: [x], produces: [m], timeout: 5}", "timeout"),
            ("{name: x, kind: blackscholes_qos, seed: 3}", "seed"),
            ("{name: x, kind: latency, overhead: 0, cores: 4}", "cores"),
        ],
        ids=["expr", "model-file", "model-inline", "command", "blackscholes_qos", "latency"],
    )
    def test_evaluator_refuses_unknown_keys(self, tmp_path, capsys, entry, key):
        err = run_refused(
            tmp_path, capsys, "", "steps:\n  - {step: identity}\n", f"  - {entry}\n"
        )
        assert f"evaluator 'x': unknown keys [{key!r}]" in err


    @pytest.mark.parametrize(
        "step, registry, named",
        [
            ("", "  - 5\n", "evaluators[0] must be a mapping"),
            ("", "  - {name: x, kind: model, produces: [m], formulas: [1, 2]}\n",
             "'x': 'formulas' must be a mapping"),
            ("", "  - {name: x, kind: model, produces: 5, formulas: {m: '1'}}\n",
             "'x': 'produces' must be a list"),
            ("", "  - {name: x, kind: model, produces: [m], formulas: {m: [1]}}\n",
             "'x': 'formulas.m' must be text"),
            ("", "  - {name: x, kind: model, produces: [m], formulas: {m: '1'}, latency_s: abc}\n",
             "'x': 'latency_s' must be a finite number"),
            ("", "  - {name: x, kind: command, argv: 5, produces: [m]}\n",
             "'x': 'argv' must be a list"),
            ("", "  - {name: x, kind: command, argv: [x], produces: [m], env: [1]}\n",
             "'x': 'env' must be a mapping"),
            # a lone name is not read as the list of its letters
            ("  - {step: gradient, evaluators: e, objective: m}\n",
             "  - {name: e, kind: expr, produces: m, expr: param1}\n",
             "steps[1]: 'evaluators' must be a list"),
            ("  - {step: map}\n", "", "steps[1]: 'evaluator' is missing"),
        ],
        ids=["entry", "formulas", "produces", "formula", "latency_s", "argv", "env",
             "gradient-evaluators", "missing-evaluator"],
    )
    def test_mistyped_value_exits_2_naming_the_key(self, tmp_path, capsys, step, registry, named):
        err = run_refused(
            tmp_path, capsys, "", "steps:\n  - {step: identity}\n" + step, registry
        )
        assert named in err

    def test_registry_refuses_unknown_top_level_keys(self, tmp_path, capsys):
        err = run_refused(
            tmp_path, capsys, "", "steps:\n  - {step: identity}\n", "  []\nevaluator: [{name: x}]\n"
        )
        assert f"{tmp_path / 'evaluators.yaml'}: unknown keys ['evaluator']" in err

    def test_model_file_refuses_unknown_keys(self, tmp_path, capsys):
        (tmp_path / "m.json").write_text(
            '{"produces": ["m"], "formulas": {"m": "1"}, "fail_fi": "param1 > 1"}'
        )
        err = run_refused(
            tmp_path, capsys, "", "steps:\n  - {step: identity}\n",
            "  - {name: x, kind: model, model: m.json}\n",
        )
        assert f"model file {tmp_path / 'm.json'}: unknown keys ['fail_fi']" in err


    @pytest.mark.parametrize(
        "step, registry, named",
        [
            ("{step: prune, keep: 'param1 >'}", "", "pipeline.yaml: steps[1]: 'keep'"),
            ("{step: sort, key: 'param1 *'}", "", "pipeline.yaml: steps[1]: 'key'"),
            ("{step: gradient, evaluators: [e], objective: 'm -'}", "e",
             "pipeline.yaml: steps[1]: 'objective'"),
            ("{step: quick_prune, evaluators: [e], keep: 'm <'}", "e",
             "pipeline.yaml: steps[1]: 'keep'"),
            ("", "{name: x, kind: expr, produces: m, expr: 'param1 *'}",
             "evaluators.yaml: evaluator 'x': 'expr'"),
            ("", "{name: x, kind: model, produces: [m], formulas: {m: '2 *'}}",
             "evaluators.yaml: evaluator 'x': 'formulas.m'"),
            ("", "{name: x, kind: model, produces: [m], formulas: {m: '1'}, fail_if: 'm >'}",
             "evaluators.yaml: evaluator 'x': 'fail_if'"),
            ("", "{name: x, kind: model, model: m.json}", "m.json: 'formulas.m'"),
        ],
        ids=["prune-keep", "sort-key", "gradient-objective", "quick_prune-keep", "expr",
             "formulas", "fail_if", "model-file"],
    )
    def test_unparsable_expression_names_file_entry_and_key(
        self, tmp_path, capsys, step, registry, named
    ):
        (tmp_path / "m.json").write_text('{"produces": ["m"], "formulas": {"m": "2 *"}}')
        if registry == "e":
            registry = "{name: e, kind: expr, produces: m, expr: param1}"
        err = run_refused(
            tmp_path, capsys, "", "steps:\n  - {step: identity}\n" + (step and f"  - {step}\n"),
            registry and f"  - {registry}\n",
        )
        assert f"{tmp_path / named}: unexpected end (at position " in err

def run_refused(tmp_path, capsys, manifest, pipeline, registry=""):
    """Run the given files; assert exit 2 with no output directory, return stderr."""
    from dsex.cli import main

    (tmp_path / "pipeline.yaml").write_text(pipeline)
    (tmp_path / "evaluators.yaml").write_text("evaluators:\n" + (registry or "  []\n"))
    path = tmp_path / "manifest.yaml"
    path.write_text(
        f"schema: {PIPELINES / 'schemas' / 'dummy.yaml'}\n"
        "pipeline: pipeline.yaml\nevaluators: evaluators.yaml\n" + manifest
    )
    assert main(["run", "--manifest", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    return capsys.readouterr().err


@pytest.fixture(scope="module")
def saved_frame(tmp_path_factory):
    out = tmp_path_factory.mktemp("report") / "out"
    proc = dsex(
        "run", "--manifest", PIPELINES / "dsp-pipeline" / "manifest.yaml", "--out", out
    )
    assert proc.returncode == 0, proc.stderr
    return out / "frame.csv"


class TestReportCommand:
    def test_keep_filters_rows(self, saved_frame):
        proc = dsex("report", "--frame", saved_frame, "--keep", "dsp_synth <= 10")
        assert proc.returncode == 0
        data_rows = proc.stdout.strip().splitlines()[1:]
        assert 0 < len(data_rows) < 144

    def test_sort_descending_top(self, saved_frame):
        proc = dsex(
            "report", "--frame", saved_frame, "--sort", "dsp_synth", "--desc", "--top", "5"
        )
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 6
        header = [c.strip() for c in lines[0].split("|")]
        col = header.index("dsp_synth")
        values = [float(line.split("|")[col]) for line in lines[1:]]
        assert values == sorted(values, reverse=True)

    def test_sort_expression_matches_pipeline_sort(self, saved_frame, tmp_path):
        # offline efficiency ranking == running the pipeline with the same
        # final sort appended, row for row
        proc = dsex(
            "report", "--frame", saved_frame,
            "--sort", "freq_mhz / dsp_synth", "--desc",
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        header = [c.strip() for c in lines[0].split("|")]
        cols = [header.index(c) for c in ("param1", "param2", "param3")]
        offline_rows = [
            tuple(int(float(line.split("|")[c])) for c in cols) for line in lines[1:]
        ]

        pipe = tmp_path / "pipeline.yaml"
        pipe.write_text(
            "steps:\n"
            "  - {step: prune, evaluator: estim, keep: \"dsp_estim < 128\"}\n"
            "  - {step: sort, evaluator: synth, key: \"dsp_synth\"}\n"
            "  - {step: sort, key: \"freq_mhz / dsp_synth\", ascending: false}\n"
        )
        out = tmp_path / "out"
        proc2 = dsex(
            "run",
            "--schema", PIPELINES / "schemas" / "dummy.yaml",
            "--pipeline", pipe,
            "--evaluators", PIPELINES / "dsp-pipeline" / "evaluators.yaml",
            "--out", out,
        )
        assert proc2.returncode == 0, proc2.stderr
        inline_rows = [
            json.loads(line) for line in (out / "frame.jsonl").read_text().splitlines()
        ]
        pipeline_rows = [
            (int(r["param1"]), int(r["param2"]), int(r["param3"])) for r in inline_rows
        ]
        assert offline_rows == pipeline_rows

    def test_unknown_column_exits_2(self, saved_frame):
        proc = dsex("report", "--frame", saved_frame, "--sort", "nonexistent")
        assert proc.returncode == 2

    @pytest.mark.parametrize("top, code, lines", [(-1, 2, 0), (0, 0, 1)], ids=["negative", "zero"])
    def test_top_must_not_be_negative(self, saved_frame, capsys, top, code, lines):
        from dsex.cli import main

        assert main(["report", "--frame", str(saved_frame), "--top", str(top)]) == code
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == lines  # 0 prints the header only
        assert ("--top" in captured.err) == bool(code)

    def test_jsonl_frames_load_too(self, saved_frame):
        jsonl = Path(str(saved_frame).replace("frame.csv", "frame.jsonl"))
        proc = dsex("report", "--frame", jsonl, "--keep", "param1 == 0", "--top", "4")
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == 5

    def test_non_finite_cells_print(self, tmp_path, capsys):
        from dsex.cli import main

        path = tmp_path / "frame.csv"
        path.write_text("a,m\n1.0,inf\n2.0,nan\n3.0,1e+30\n")
        assert main(["report", "--frame", str(path)]) == 0
        cells = [line.split("|")[2].strip() for line in capsys.readouterr().out.splitlines()[1:]]
        assert cells == ["inf", "nan", "1000000000000000000000000000000.00"]

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("[1, 2]", "a row must be a JSON object, got [1, 2]"),
            ('{"a": 2.0, "m": null}', "'m' must be a number, got null"),
            ('{"a": 2.0, "m": true}', "'m' must be a number, got true"),
            ('{"a": 2.0, "m": "4"}', "'m' must be a number, got \"4\""),
            ('{"a": 2.0, "m": [4]}', "'m' must be a number, got [4]"),
            ('{"a": 2.0', "Expecting ',' delimiter at column 10"),
        ],
        ids=["array", "null", "bool", "text", "nested", "truncated"],
    )
    def test_bad_jsonl_row_exits_2_naming_file_and_line(self, tmp_path, capsys, line, reason):
        from dsex.cli import main

        path = tmp_path / "frame.jsonl"
        path.write_text('{"a": 1.0, "m": 3.5}\n\n' + line + "\n")
        assert main(["report", "--frame", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: line 3: {reason}\n"

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("1.0,2.0,3.0", "3 cells, the header has 2"),
            ("1.0", "1 cells, the header has 2"),
            ("1.0,x", "'m' must be a number, got 'x'"),
            ("y,2.0", "'a' must be a number, got 'y'"),
            ("1.0,2.0,", "3 cells, the header has 2"),
        ],
        ids=["extra_cell", "missing_cell", "text", "text_first", "trailing_comma"],
    )
    def test_bad_csv_row_exits_2_naming_file_and_line(self, tmp_path, capsys, line, reason):
        from dsex.cli import main

        path = tmp_path / "frame.csv"
        path.write_text("a,m\n1.0,3.5\n\n" + line + "\n")
        assert main(["report", "--frame", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: line 4: {reason}\n"

    @pytest.mark.parametrize(
        "flag, text",
        [("--keep", "m / a > 1"), ("--sort", "m / a"), ("--sort", "m / (a - 2)")],
        ids=["keep", "sort", "sort_later_row"],
    )
    def test_zero_divisor_row_reports_the_first_failing_row(self, tmp_path, capsys, flag, text):
        # the column fails; the error is the one the first failing row
        # raises on its own, and a row missing a name is never evaluated
        from dsex import parse_expr
        from dsex.cli import main
        from dsex.errors import EvalError

        path = tmp_path / "frame.csv"
        path.write_text("a,m\n1.0,3.0\n,2.0\n0.0,0.0\n2.0,1.0\n0.0,5.0\n")
        rows = [{"a": 1.0, "m": 3.0}, {"a": 0.0, "m": 0.0}, {"a": 2.0, "m": 1.0}]
        with pytest.raises(EvalError) as first:
            for row in rows:
                parse_expr(text)(row)
        assert main(["report", "--frame", str(path), flag, text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {first.value}\n"

    def test_guarded_zero_divisor_stays_a_column(self, tmp_path, capsys):
        from dsex.cli import main

        path = tmp_path / "frame.csv"
        path.write_text("a,m\n1.0,3.0\n,2.0\n0.0,0.0\n4.0,1.0\n0.0,5.0\n")
        assert main([
            "report", "--frame", str(path), "--keep", "a == 0 || m / a > 1", "--sort", "m",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("|")[1].strip() for line in lines[1:]] == ["0.00", "1.00", "0.00"]

    def test_empty_csv_cell_is_a_missing_value(self, tmp_path, capsys):
        from dsex.cli import main

        path = tmp_path / "frame.csv"
        path.write_text("a,m\n1.0,\n2.0,3.5\n")
        assert main(["report", "--frame", str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
