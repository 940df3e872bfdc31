import dataclasses
import json
import shutil

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from dsex import (
    Cache,
    ConfigError,
    DsexError,
    Enumerated,
    Linear,
    ParamSpec,
    Pow2,
    Schema,
    build_space,
)
from dsex.config import (
    echo_manifest,
    load_evaluators,
    load_manifest,
    load_pipeline,
    load_schema,
    schema_from_dict,
)
from dsex.metrics import FailMode
from dsex.surrogate import load_model
from dsex.strategy import run_pipeline

from conftest import PIPELINES, ROOT


class TestSchemaFormat:
    def test_shipped_dummy_schema(self):
        schema = load_schema(PIPELINES / "schemas" / "dummy.yaml")
        assert schema.names == ("param1", "param2", "param3")
        assert schema.cardinalities == (17, 9, 3)
        assert schema.params[0].concerns == ("resource", "qos")

    def test_enum_order_preserved(self):
        schema = schema_from_dict(
            {"params": [{"name": "p", "domain": {"enum": [9, 4, 6]}}]}
        )
        assert schema.params[0].domain == Enumerated([9, 4, 6])

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"params": [{"name": "p"}]},
            {"params": [{"name": "p", "domain": {"weird": [0, 1]}}]},
            {"params": [{"name": "p", "domain": {"linear": [0, 1], "pow2": [0, 1]}}]},
            {"params": [{"name": "p", "domain": {"enum": ["a", "b"]}}]},
            {"params": [{"name": "p", "domain": {"enum": [2.5, 3.7]}}]},
            {"params": [{"name": "p", "domain": {"enum": []}}]},
            {"params": [{"name": "p", "domain": {"enum": 5}}]},
            {"params": [{"name": "p", "domain": {"linear": [1]}}]},
            {"params": [{"name": "p", "domain": {"linear": 5}}]},
            {"params": [{"name": "p", "domain": {"linear": [1.9, 3]}}]},
            {"params": [{"name": "p", "domain": {"linear": [True, 3]}}]},
            {"params": [{"name": "p", "domain": {"linear": ["1", "3"]}}]},
            {"params": [{"name": "p", "domain": {"pow2": [0, "x"]}}]},
            {"params": [{"name": "p", "domain": {"pow2": [0, 1, 2]}}]},
            {"params": [{"name": "p", "domain": {"linear": [5, 2]}}]},
        ],
    )
    def test_invalid_schemas(self, data):
        with pytest.raises(ConfigError):
            schema_from_dict(data)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.integers(-3, 3), st.integers(0, 3)).map(
                    lambda t: Linear(t[0], t[0] + t[1])
                ),
                st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
                    lambda t: Pow2(t[0], t[0] + t[1])
                ),
                st.lists(st.integers(-9, 9), min_size=1, max_size=4, unique=True).map(
                    Enumerated
                ),
            ),
            min_size=3,
            max_size=6,
        ).filter(lambda domains: {d.kind for d in domains} == {"linear", "pow2", "enum"})
    )
    def test_round_trip_of_every_domain_kind(self, domains):
        params = [{"name": f"p{k}", "domain": {d.kind: list(d.args)}} for k, d in enumerate(domains)]
        schema = schema_from_dict(yaml.safe_load(yaml.safe_dump({"params": params})))
        assert schema == Schema([ParamSpec(f"p{k}", d) for k, d in enumerate(domains)])
        assert [p.domain.values() for p in schema.params] == [d.values() for d in domains]

    def test_yaml_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("params:\n  - name: p\n   domain: {linear: [0, 1]}\n")
        with pytest.raises(ConfigError) as err:
            load_schema(path)
        assert "line" in str(err.value)


class TestEvaluatorRegistry:
    def test_shipped_registries_build(self):
        for bundle in ("dsp-pipeline", "gradient-synth", "blackscholes"):
            registry = load_evaluators(PIPELINES / bundle / "evaluators.yaml", 0)
            assert registry

    def test_expr_kind(self, tmp_path):
        path = tmp_path / "ev.yaml"
        path.write_text(
            "evaluators:\n"
            "  - name: eff\n"
            "    kind: expr\n"
            "    produces: eff\n"
            "    expr: \"a / b\"\n"
        )
        registry = load_evaluators(path)
        assert registry["eff"].produces == ("eff",)

    def test_inline_model_kind(self, tmp_path):
        path = tmp_path / "ev.yaml"
        path.write_text(
            "evaluators:\n"
            "  - name: synth\n"
            "    kind: model\n"
            "    produces: [dsp]\n"
            "    formulas: {dsp: \"a * 2\"}\n"
        )
        assert load_evaluators(path)["synth"].produces == ("dsp",)

    @pytest.mark.parametrize(
        "body",
        [
            "evaluators:\n  - name: x\n    kind: mystery\n",
            "evaluators:\n  - name: x\n    kind: expr\n    produces: m\n",
            "evaluators:\n  - kind: expr\n",
            "not_evaluators: []\n",
        ],
    )
    def test_invalid_registries(self, tmp_path, body):
        path = tmp_path / "ev.yaml"
        path.write_text(body)
        with pytest.raises(ConfigError):
            load_evaluators(path)

    @pytest.mark.parametrize(
        "entry, named",
        [
            ("{name: q, kind: blackscholes_qos, model: {S0: 100.0, sgima: 0.5}}", "sgima"),
            ("{name: c, kind: command, argv: [x], produces: [m], timeout_s: 0}", "timeout_s"),
            ("{name: c, kind: command, argv: [x], produces: [m], timeout_s: -1.5}", "timeout_s"),
        ],
        ids=["model-key", "zero-timeout", "negative-timeout"],
    )
    def test_values_a_run_cannot_use_are_refused(self, tmp_path, entry, named):
        path = tmp_path / "ev.yaml"
        path.write_text(f"evaluators:\n  - {entry}\n")
        with pytest.raises(ConfigError, match=named):
            load_evaluators(path)

    def test_known_model_keys_load(self, tmp_path):
        path = tmp_path / "ev.yaml"
        path.write_text(
            "evaluators:\n"
            "  - {name: q, kind: blackscholes_qos, model: {S0: 90, mu: 0.1, sigma: 0.3, T: 2}}\n"
            "  - {name: c, kind: command, argv: [x], produces: [m], timeout_s: 0.25}\n"
        )
        assert set(load_evaluators(path)) == {"q", "c"}

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "ev.yaml"
        path.write_text(
            "evaluators:\n"
            "  - {name: x, kind: expr, produces: a, expr: \"1\"}\n"
            "  - {name: x, kind: expr, produces: b, expr: \"2\"}\n"
        )
        with pytest.raises(ConfigError):
            load_evaluators(path)


class TestPipelineFormat:
    def test_shipped_pipelines_build(self):
        for bundle in ("dsp-pipeline", "gradient-synth", "blackscholes"):
            registry = load_evaluators(PIPELINES / bundle / "evaluators.yaml", 0)
            pipeline = load_pipeline(PIPELINES / bundle / "pipeline.yaml", registry)
            assert pipeline.steps

    def test_all_step_kinds(self, tmp_path):
        evs = tmp_path / "ev.yaml"
        evs.write_text(
            "evaluators:\n"
            "  - {name: e, kind: expr, produces: m, expr: \"a + 1\"}\n"
        )
        registry = load_evaluators(evs)
        pipe = tmp_path / "pipe.yaml"
        pipe.write_text(
            "steps:\n"
            "  - {step: identity}\n"
            "  - {step: map, evaluator: e}\n"
            "  - {step: sort, key: \"m\", ascending: false}\n"
            "  - {step: prune, keep: \"m > 0\"}\n"
            "  - {step: quick_prune, keep: \"m > 0\", side: downward}\n"
            "  - {step: gradient, evaluators: [], objective: \"m\"}\n"
        )
        pipeline = load_pipeline(pipe, registry, parallelism=3)
        assert [s.kind for s in pipeline.steps] == [
            "identity", "map", "sort", "prune", "quick_prune", "gradient",
        ]
        assert pipeline.parallelism == 3
        assert load_pipeline(pipe, registry).parallelism == 1

    @pytest.mark.parametrize(
        "step", ["sort, key: a, ascending: 'false'", "gradient, objective: a, maximize: 0"]
    )
    def test_directions_must_be_booleans(self, tmp_path, step):
        pipe = tmp_path / "pipe.yaml"
        pipe.write_text(f"steps:\n  - {{step: {step}}}\n")
        with pytest.raises(ConfigError, match="must be true or false"):
            load_pipeline(pipe, {})

    def test_unknown_step_kind(self, tmp_path):
        pipe = tmp_path / "pipe.yaml"
        pipe.write_text("steps:\n  - {step: teleport}\n")
        with pytest.raises(ConfigError):
            load_pipeline(pipe, {})

    @pytest.mark.parametrize("step", ["gradient, objective: x", "quick_prune, keep: x > 0"])
    def test_chain_producing_a_name_twice(self, tmp_path, step):
        evs = tmp_path / "ev.yaml"
        evs.write_text(
            "evaluators:\n"
            "  - {name: e1, kind: expr, produces: x, expr: \"a\"}\n"
            "  - {name: e2, kind: expr, produces: x, expr: \"a + 1\"}\n"
        )
        pipe = tmp_path / "pipe.yaml"
        pipe.write_text(f"steps:\n  - {{step: {step}, evaluators: [e1, e2]}}\n")
        with pytest.raises(ConfigError, match="produces a name twice"):
            load_pipeline(pipe, load_evaluators(evs))

    def test_unknown_evaluator_reference(self, tmp_path):
        pipe = tmp_path / "pipe.yaml"
        pipe.write_text("steps:\n  - {step: map, evaluator: ghost}\n")
        with pytest.raises(ConfigError):
            load_pipeline(pipe, {})

    def test_per_step_policy(self, tmp_path):
        evs = tmp_path / "ev.yaml"
        evs.write_text(
            "evaluators:\n"
            "  - {name: e, kind: expr, produces: m, expr: \"1 / a\"}\n"
        )
        registry = load_evaluators(evs)
        pipe = tmp_path / "pipe.yaml"
        pipe.write_text(
            "steps:\n"
            "  - {step: map, evaluator: e, fail_policy: prune}\n"
            "fail_policy: abort\n"
        )
        pipeline = load_pipeline(pipe, registry)
        assert pipeline.steps[0].fail_policy.mode is FailMode.PRUNE
        assert pipeline.fail_policy.mode is FailMode.ABORT
        # a: 0..2 -> division by zero on the first point gets pruned
        space = build_space(Schema([ParamSpec("a", Linear(0, 2))]))
        frame = run_pipeline(pipeline, space, Cache())
        assert len(frame) == 2

    @pytest.mark.parametrize(
        "value", ['"abc"', ".inf", ".nan", pytest.param("1" + "0" * 400, id="huge")]
    )
    @pytest.mark.parametrize(
        "template",
        [
            "steps:\n  - {{step: identity}}\nfail_policy: assign_worst\nworst: {{m: {}}}\n",
            "steps:\n  - {{step: identity, fail_policy: assign_worst, worst: {{m: {}}}}}\n",
        ],
        ids=["pipeline", "step"],
    )
    def test_worst_must_be_finite_numbers(self, tmp_path, template, value):
        pipe = tmp_path / "pipe.yaml"
        pipe.write_text(template.format(value))
        with pytest.raises(ConfigError, match="finite numbers"):
            load_pipeline(pipe, {})

    def test_fail_policy_modes_are_read(self, tmp_path):
        pipe = tmp_path / "pipe.yaml"
        pipe.write_text("steps:\n  - {step: identity}\nfail_policy: assign_worst\nworst: {m: 0}\n")
        assert load_pipeline(pipe, {}).fail_policy.mode is FailMode.ASSIGN_WORST
        pipe.write_text("steps:\n  - {step: identity}\nfail_policy: explode\n")
        with pytest.raises(ConfigError):
            load_pipeline(pipe, {})


class TestManifest:
    def test_load_resolves_relative_paths(self):
        manifest = load_manifest(PIPELINES / "dsp-pipeline" / "manifest.yaml")
        assert manifest.schema.is_file()
        assert manifest.pipeline.is_file()
        assert manifest.evaluators.is_file()
        assert manifest.schema == (PIPELINES / "schemas" / "dummy.yaml").resolve()

    def test_missing_file_fails_validation(self, tmp_path):
        path = tmp_path / "manifest.yaml"
        path.write_text("schema: nope.yaml\npipeline: nope.yaml\nevaluators: nope.yaml\n")
        manifest = load_manifest(path)
        # the loaders name the file they cannot find
        with pytest.raises(ConfigError, match="file not found: .*nope.yaml"):
            load_schema(manifest.schema)
        with pytest.raises(ConfigError, match="file not found: .*ghost.yaml"):
            load_manifest(tmp_path / "ghost.yaml")

    def test_echo_round_trip(self, tmp_path):
        manifest = load_manifest(PIPELINES / "blackscholes" / "manifest.yaml")
        echo_manifest(manifest, tmp_path / "echo.yaml")
        data = yaml.safe_load((tmp_path / "echo.yaml").read_text())
        assert data["seed"] == 42
        assert data["parallelism"] == 1
        # the echo is itself a manifest, and loads back to the one that ran
        assert load_manifest(tmp_path / "echo.yaml") == manifest

    def test_echo_does_not_depend_on_the_checkout(self, tmp_path):
        # two copies of the bundles at different depths echo the same bytes,
        # which are the committed echo of a bundle run into runs/
        echoes = []
        for root in (tmp_path / "a", tmp_path / "b" / "deeper"):
            shutil.copytree(PIPELINES, root / "pipelines")
            out = root / "runs" / "blackscholes"
            out.mkdir(parents=True)
            manifest = load_manifest(root / "pipelines" / "blackscholes" / "manifest.yaml")
            manifest = dataclasses.replace(manifest, out=out)
            echo_manifest(manifest, out / "manifest.yaml")
            assert load_manifest(out / "manifest.yaml") == manifest
            echoes.append((out / "manifest.yaml").read_bytes())
        assert echoes[0] == echoes[1]
        assert echoes[0] == (ROOT / "runs" / "blackscholes" / "manifest.yaml").read_bytes()



def _paths(tree, path=()):
    """The path to every value in a parsed run file, the root's included."""
    yield path
    if isinstance(tree, (dict, list)):
        for key, child in tree.items() if isinstance(tree, dict) else enumerate(tree):
            yield from _paths(child, (*path, key))


def _at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def _load(path):
    """Load one run file with the loader a run uses for it."""
    if path.parent.name == "models":
        return load_model(path)
    if path.parent.name == "schemas":
        return load_schema(path)
    if path.name == "pipeline.yaml":
        return load_pipeline(path, load_evaluators(path.parent / "evaluators.yaml"))
    return {"manifest.yaml": load_manifest, "evaluators.yaml": load_evaluators}[path.name](path)


SHIPPED_RUN_FILES = sorted(
    str(path.relative_to(PIPELINES))
    for path in (*PIPELINES.glob("*/*.yaml"), *PIPELINES.glob("models/*.json"))
)
# a value of each type a run file can hold, or an unknown key
_MUTATIONS = [7, -3, 0, float("nan"), "x", True, None, [1, "a"], {"k": 1}, "add-key"]


class TestLoaderFuzz:
    """Every loader, given a shipped run file with one value swapped for
    another type or one unknown key added, loads it or raises a
    DsexError, never any other exception. The error names the file, or
    the file the mutated value points at."""

    @pytest.fixture(scope="class")
    def tree(self, tmp_path_factory):
        # a copy, so the references between files still resolve
        root = tmp_path_factory.mktemp("fuzz") / "pipelines"
        shutil.copytree(PIPELINES, root)
        return root

    def test_every_shipped_file_is_fuzzed(self):
        # three bundles of three files, four schemas and six models
        assert len(SHIPPED_RUN_FILES) == 19

    @pytest.mark.parametrize("name", SHIPPED_RUN_FILES)
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_loads_or_raises_a_dsex_error(self, tree, name, data):
        path = tree / name
        original = path.read_text()
        as_json = path.suffix == ".json"
        parsed = json.loads(original) if as_json else yaml.safe_load(original)
        mutation = data.draw(st.sampled_from(_MUTATIONS))
        if mutation == "add-key":
            mappings = [p for p in _paths(parsed) if isinstance(_at(parsed, p), dict)]
            _at(parsed, data.draw(st.sampled_from(mappings)))["not_a_key"] = 1
        else:
            target = data.draw(st.sampled_from(list(_paths(parsed))[1:]))
            _at(parsed, target[:-1])[target[-1]] = mutation
        path.write_text(json.dumps(parsed) if as_json else yaml.safe_dump(parsed))
        try:
            _load(path)
        except DsexError as err:
            named = (str(path), str(path.parent / str(mutation)))
            assert any(name in str(err) for name in named), str(err)
        finally:
            path.write_text(original)
