"""Declarative file formats: schemas, evaluator registries, pipelines,
and run manifests.

All files are YAML key-value trees. Paths inside a file resolve
relative to that file's directory, so pipeline bundles stay
relocatable.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Mapping

import yaml

from .blackscholes import DEFAULT_MODEL, BsModelParams, latency_evaluator, qos_evaluator
from .errors import (
    REQUIRED,
    ConfigError,
    Reader,
    boolean,
    choice,
    entries,
    integer,
    listed,
    mapping,
    number,
    placed,
    positive,
    text,
    texts,
)
from .expr import numeric, predicate
from .metrics import (
    CommandSpec,
    Evaluator,
    FailMode,
    FailPolicy,
    expr_evaluator,
    external_command,
)
from .space import Domain, KeepSide, ParamSpec, Schema
from .strategy import (
    Pipeline,
    Step,
    exhaustive_map,
    exhaustive_prune,
    exhaustive_sort,
    gradient_sort,
    identity,
    quick_prune,
    reduce_dimension,
)
from .surrogate import load_model, model_evaluator, model_from_dict


def _load_yaml(path: Path):
    try:
        data = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err.strerror}") from None
    except yaml.YAMLError as err:
        raise ConfigError(f"cannot parse {path}: {err}") from None
    return data


def schema_from_dict(data: Mapping, where: str = "schema") -> Schema:
    doc = Reader(data, where)
    params = doc.read("params", entries)
    doc.close()
    specs = [_param_spec(Reader(entry, f"{where}: params[{i}]")) for i, entry in enumerate(params)]
    return placed(where, Schema, specs)


def _domain(value) -> Domain:
    """A ``domain`` value: a mapping of its one kind to that kind's arguments."""
    if not isinstance(value, dict) or len(value) != 1:
        raise ValueError("a mapping of one domain kind to its arguments")
    (kind, args), = value.items()
    return Domain(kind, args)


def _param_spec(entry: Reader) -> ParamSpec:
    name, domain = entry.read("name", text), entry.read("domain", _domain)
    concerns = entry.read("concerns", texts, ())
    entry.close()
    return placed(entry.where, ParamSpec, name, domain, concerns)


def load_schema(path: str | Path) -> Schema:
    return schema_from_dict(_load_yaml(Path(path)), str(path))


def _evaluator_builder(entry: Reader, path: Path, global_seed: int) -> Callable[[], Evaluator]:
    """Read an evaluator entry; the evaluator is built by calling the result."""
    name = entry.read("name", text)
    entry.where = f"{path}: evaluator {name!r}"
    kind = entry.read("kind", text)
    if kind == "expr":
        produces, expr = entry.read("produces", text), entry.read("expr", numeric)
        return partial(expr_evaluator, name, produces, expr)
    if kind == "model":
        file = entry.read("model", text, None)
        if file is None:
            return partial(model_evaluator, model_from_dict(entry, name=name), name)
        entry.close()  # before opening the file it names
        model_path = path.parent / file
        try:
            return partial(model_evaluator, load_model(model_path), name)
        except OSError as err:
            raise ConfigError(f"cannot read model file {model_path}: {err.strerror}") from None
    if kind == "command":
        env = Reader(entry.read("env", mapping, {}), entry.where, "env")
        spec = partial(
            CommandSpec,
            argv=entry.read("argv", texts),
            produces=entry.read("produces", texts),
            env={str(key): env.read(key, text) for key in env.data},
            timeout_s=entry.read("timeout_s", positive, None),
        )
        return lambda: external_command(name, spec())
    if kind == "blackscholes_qos":
        params = Reader(entry.read("model", mapping, {}), entry.where, "model")
        values = {
            key: params.read(key, number, default)
            for key, default in asdict(DEFAULT_MODEL).items()
        }
        params.close()
        return lambda: qos_evaluator(BsModelParams(**values), global_seed, name=name)
    if kind == "latency":
        return partial(latency_evaluator, entry.read("overhead", integer, 0), name=name)
    raise ConfigError(f"{entry.where}: unknown evaluator kind {kind!r}")


def load_evaluators(path: str | Path, global_seed: int = 0) -> dict[str, Evaluator]:
    path = Path(path)
    doc = Reader(_load_yaml(path), str(path))
    evaluator_entries = doc.read("evaluators", entries)
    doc.close()
    registry: dict[str, Evaluator] = {}
    for i, data in enumerate(evaluator_entries):
        entry = Reader(data, f"{path}: evaluators[{i}]")
        build = _evaluator_builder(entry, path, global_seed)
        entry.close()
        ev = placed(entry.where, build)
        if ev.name in registry:
            raise ConfigError(f"{path}: evaluators[{i}]: duplicate evaluator name {ev.name!r}")
        registry[ev.name] = ev
    return registry


def _fail_policy(doc: Reader, default: FailMode | None) -> FailPolicy | None:
    """The fail policy a pipeline or step sets, None for a step that sets
    none. Only ``assign_worst`` reads ``worst``, so elsewhere it is refused."""
    mode = doc.read("fail_policy", choice(*FailMode), default)
    if mode is FailMode.ASSIGN_WORST:
        return doc.read("worst", partial(FailPolicy, mode), FailPolicy(mode))
    if "worst" in doc.data:
        raise ConfigError(f"{doc.at('worst')} needs fail_policy assign_worst beside it")
    return None if mode is None else FailPolicy(mode)


def _build_step(entry: Reader, registry: Mapping[str, Evaluator]) -> Step:
    kind = entry.read("step", text)
    label = entry.read("name", text, None)
    policy = _fail_policy(entry, None)
    evaluator = choice(*registry.values())
    if kind == "identity":
        build = partial(identity, label or "identity")
    elif kind == "map":
        build = partial(exhaustive_map, entry.read("evaluator", evaluator), label)
    elif kind == "sort":
        build = partial(
            exhaustive_sort,
            entry.read("key", numeric),
            evaluator=entry.read("evaluator", evaluator, None),
            ascending=entry.read("ascending", boolean, True),
            name=label or "sort",
        )
    elif kind == "prune":
        build = partial(
            exhaustive_prune,
            entry.read("keep", predicate),
            evaluator=entry.read("evaluator", evaluator, None),
            name=label or "prune",
        )
    elif kind == "reduce_dimension":
        concern, to = entry.read("concern", text), entry.read("to", choice("min", "max"), "min")
        build = partial(reduce_dimension, concern, to_min=(to == "min"), name=label)
    elif kind == "gradient":
        build = partial(
            gradient_sort,
            entry.read("evaluators", listed(evaluator), ()),
            entry.read("objective", numeric),
            maximize=entry.read("maximize", boolean, True),
            name=label or "gradient",
        )
    elif kind == "quick_prune":
        build = partial(
            quick_prune,
            entry.read("evaluators", listed(evaluator), ()),
            entry.read("keep", predicate),
            side=entry.read("side", choice(*KeepSide), KeepSide.UPWARD),
            concern=entry.read("concern", text, None),
            name=label or "quick_prune",
        )
    else:
        raise ConfigError(f"{entry.where}: unknown step kind {kind!r}")
    entry.close()
    step = placed(entry.where, build)
    return step if policy is None else replace(step, fail_policy=policy)


def load_pipeline(
    path: str | Path, registry: Mapping[str, Evaluator], parallelism: int = 1
) -> Pipeline:
    """Build a pipeline from a config file and an evaluator registry.

    The file holds the strategy: its steps and fail policies. How many
    evaluations run at once is a run setting, passed as ``parallelism``.
    """
    path = Path(path)
    doc = Reader(_load_yaml(path), str(path))
    step_entries = doc.read("steps", entries)
    fail_policy = _fail_policy(doc, FailMode.ABORT)
    doc.close()
    if not step_entries:
        raise ConfigError(f"{path} must have a non-empty 'steps' list")
    steps = tuple(
        _build_step(Reader(data, f"{path}: steps[{i}]"), registry)
        for i, data in enumerate(step_entries)
    )
    return Pipeline(steps, parallelism=parallelism, fail_policy=fail_policy)


@dataclass(frozen=True)
class RunManifest:
    """Everything one exploration run needs, with paths resolved."""

    schema: Path
    pipeline: Path
    evaluators: Path
    out: Path
    parallelism: int = 1
    seed: int = 0
    top: int = 5

    def __post_init__(self):
        if self.top < 0:
            raise ConfigError(f"'top' must be at least 0, got {self.top}")
        if self.parallelism < 1:
            raise ConfigError(f"'parallelism' must be at least 1, got {self.parallelism}")


def load_manifest(path: str | Path) -> RunManifest:
    path = Path(path)
    doc = Reader(_load_yaml(path), str(path))

    def resolve(key: str, default=REQUIRED) -> Path:
        return (path.parent / doc.read(key, text, default)).resolve()

    values = {key: resolve(key) for key in ("schema", "pipeline", "evaluators")}
    values["out"] = resolve("out", "out")
    for key in ("parallelism", "seed", "top"):  # defaulting as the dataclass does
        values[key] = doc.read(key, integer, getattr(RunManifest, key))
    doc.close()
    return placed(str(path), RunManifest, **values)


def echo_manifest(manifest: RunManifest, path: str | Path) -> None:
    """Write ``manifest`` to ``path`` as a manifest file, each path relative
    to the file's own directory, so an echo reads the same on any checkout."""
    home = Path(path).resolve().parent
    doc = {k: os.path.relpath(v, home) if isinstance(v, Path) else v
           for k, v in asdict(manifest).items()}
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False))
