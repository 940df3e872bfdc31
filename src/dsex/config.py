"""Declarative file formats: schemas, evaluator registries, pipelines,
and run manifests.

All files are YAML key-value trees. Paths inside a file resolve
relative to that file's directory, so pipeline bundles stay
relocatable. Schema files round-trip losslessly through
``schema_to_dict`` / ``schema_from_dict``; a schema with frozen params
or metric names, which only steps make, has no file form.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Mapping

import yaml

from .blackscholes import DEFAULT_MODEL, BsModelParams, latency_evaluator, qos_evaluator
from .errors import (
    REQUIRED,
    ConfigError,
    Reader,
    boolean,
    entries,
    integer,
    mapping,
    number,
    positive,
    text,
    texts,
)
from .expr import expression
from .metrics import (
    CommandSpec,
    Evaluator,
    FailMode,
    FailPolicy,
    expr_evaluator,
    external_command,
)
from .space import Enumerated, KeepSide, Linear, ParamSpec, Pow2, Schema
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
    return Schema([_param_spec(Reader(entry, f"params[{i}]")) for i, entry in enumerate(params)])


def _param_spec(entry: Reader) -> ParamSpec:
    where = entry.where
    name = entry.read("name", text)
    spec = Reader(entry.read("domain", mapping), where, "domain")
    concerns = entry.read("concerns", texts, ())
    entry.close()
    kinds = ("linear", "pow2", "enum")
    given = [(kind, a) for kind in kinds if (a := spec.read(kind, entries, None)) is not None]
    spec.close()
    if len(given) != 1:
        raise ConfigError(f"{where}: domain must be one of linear/pow2/enum")
    (kind, args), = given
    bounds = kind != "enum"
    if len(args) != 2 if bounds else not args:
        count = "two integers" if bounds else "a non-empty list of integers"
        raise ConfigError(f"{where}: {kind} domain takes {count}, got {args!r}")
    if not all(isinstance(a, int) and not isinstance(a, bool) for a in args):
        raise ConfigError(f"{where}: {kind} domain values must be integers, got {args!r}")
    if kind == "linear":
        domain = Linear(*args)
    elif kind == "pow2":
        domain = Pow2(*args)
    else:
        domain = Enumerated(args)
    return ParamSpec(name, domain, concerns)


def schema_to_dict(schema: Schema) -> dict:
    if schema.frozen or schema.metrics:
        names = [m.name for m in schema.frozen] + list(schema.metrics)
        raise ConfigError(f"a schema with frozen params or metrics {names} has no file form")
    params = []
    for p in schema.params:
        if isinstance(p.domain, Linear):
            domain = {"linear": [p.domain.lo, p.domain.hi]}
        elif isinstance(p.domain, Pow2):
            domain = {"pow2": [p.domain.lo_exp, p.domain.hi_exp]}
        else:
            domain = {"enum": list(p.domain.items)}
        entry: dict = {"name": p.name, "domain": domain}
        if p.concerns:
            entry["concerns"] = list(p.concerns)
        params.append(entry)
    return {"params": params}


def load_schema(path: str | Path) -> Schema:
    return schema_from_dict(_load_yaml(Path(path)), str(path))


def save_schema(schema: Schema, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(schema_to_dict(schema), sort_keys=False))


def _build_evaluator(entry: Reader, path: Path, global_seed: int) -> Evaluator:
    name = entry.read("name", text)
    entry.where = f"{path}: evaluator {name!r}"
    kind = entry.read("kind", text)
    if kind == "expr":
        return expr_evaluator(name, entry.read("produces", text), entry.read("expr", expression))
    if kind == "model":
        file = entry.read("model", text, None)
        if file is None:
            return model_evaluator(model_from_dict(entry, name=name), name=name)
        entry.close()  # before opening the file it names
        model_path = path.parent / file
        try:
            model = load_model(model_path)
        except OSError as err:
            raise ConfigError(f"cannot read model file {model_path}: {err.strerror}") from None
        return model_evaluator(model, name=name)
    if kind == "command":
        env = Reader(entry.read("env", mapping, {}), entry.where, "env")
        spec = CommandSpec(
            argv=entry.read("argv", texts),
            produces=entry.read("produces", texts),
            env={str(key): env.read(key, text) for key in env.data},
            timeout_s=entry.read("timeout_s", positive, None),
        )
        return external_command(name, spec)
    if kind == "blackscholes_qos":
        params = Reader(entry.read("model", mapping, {}), entry.where, "model")
        values = {
            key: params.read(key, number, default)
            for key, default in asdict(DEFAULT_MODEL).items()
        }
        params.close()
        try:
            model = BsModelParams(**values)
        except ConfigError as err:
            raise ConfigError(f"{entry.where}: {err}") from None
        return qos_evaluator(model, global_seed, name=name)
    if kind == "latency":
        return latency_evaluator(entry.read("overhead", integer, 0), name=name)
    raise ConfigError(f"{entry.where}: unknown evaluator kind {kind!r}")


def load_evaluators(path: str | Path, global_seed: int = 0) -> dict[str, Evaluator]:
    path = Path(path)
    doc = Reader(_load_yaml(path), str(path))
    listed = doc.read("evaluators", entries)
    doc.close()
    registry: dict[str, Evaluator] = {}
    for i, data in enumerate(listed):
        entry = Reader(data, f"{path}: evaluators[{i}]")
        ev = _build_evaluator(entry, path, global_seed)
        entry.close()
        if ev.name in registry:
            raise ConfigError(f"duplicate evaluator name {ev.name!r}")
        registry[ev.name] = ev
    return registry


def parse_fail_policy(mode: str, worst: Mapping[str, float] | None = None) -> FailPolicy:
    try:
        fail_mode = FailMode(mode)
    except ValueError:
        options = ", ".join(m.value for m in FailMode)
        raise ConfigError(f"unknown fail policy {mode!r} (expected one of: {options})") from None
    return FailPolicy(fail_mode, worst or {})


def _registry_get(registry: Mapping[str, Evaluator], name: str) -> Evaluator:
    if name not in registry:
        raise ConfigError(f"evaluator {name!r} is not defined in the registry")
    return registry[name]


def _build_step(entry: Reader, registry: Mapping[str, Evaluator]) -> Step:
    kind = entry.read("step", text)
    label = entry.read("name", text, None)
    mode = entry.read("fail_policy", text, None)
    worst = entry.read("worst", mapping, None)

    def optional_evaluator() -> Evaluator | None:
        name = entry.read("evaluator", text, None)
        return None if name is None else _registry_get(registry, name)

    def evaluators() -> list[Evaluator]:
        return [_registry_get(registry, name) for name in entry.read("evaluators", texts, ())]

    if kind == "identity":
        step = identity(label or "identity")
    elif kind == "map":
        step = exhaustive_map(_registry_get(registry, entry.read("evaluator", text)), label)
    elif kind == "sort":
        step = exhaustive_sort(
            entry.read("key", expression),
            evaluator=optional_evaluator(),
            ascending=entry.read("ascending", boolean, True),
            name=label or "sort",
        )
    elif kind == "prune":
        step = exhaustive_prune(
            entry.read("keep", expression), evaluator=optional_evaluator(), name=label or "prune"
        )
    elif kind == "reduce_dimension":
        concern = entry.read("concern", text)
        to = entry.read("to", text, "min")
        if to not in ("min", "max"):
            raise ConfigError(f"reduce_dimension 'to' must be min or max, got {to!r}")
        step = reduce_dimension(concern, to_min=(to == "min"), name=label)
    elif kind == "gradient":
        step = gradient_sort(
            evaluators(),
            entry.read("objective", expression),
            maximize=entry.read("maximize", boolean, True),
            name=label or "gradient",
        )
    elif kind == "quick_prune":
        chain, keep = evaluators(), entry.read("keep", expression)
        side = entry.read("side", text, "upward")
        try:
            keep_side = KeepSide(side)
        except ValueError:
            raise ConfigError(f"quick_prune side must be upward or downward, got {side!r}") from None
        step = quick_prune(
            chain,
            keep,
            side=keep_side,
            concern=entry.read("concern", text, None),
            name=label or "quick_prune",
        )
    else:
        raise ConfigError(f"{entry.where}: unknown step kind {kind!r}")
    entry.close()
    return step if mode is None else replace(step, fail_policy=parse_fail_policy(mode, worst))


def load_pipeline(
    path: str | Path, registry: Mapping[str, Evaluator], parallelism: int = 1
) -> Pipeline:
    """Build a pipeline from a config file and an evaluator registry.

    The file holds the strategy: its steps and fail policies. How many
    evaluations run at once is a run setting, passed as ``parallelism``.
    """
    path = Path(path)
    doc = Reader(_load_yaml(path), str(path))
    listed = doc.read("steps", entries)
    fail_policy = parse_fail_policy(
        doc.read("fail_policy", text, "abort"), doc.read("worst", mapping, None)
    )
    doc.close()
    if not listed:
        raise ConfigError(f"{path} must have a non-empty 'steps' list")
    steps = tuple(
        _build_step(Reader(data, f"{path}: steps[{i}]"), registry) for i, data in enumerate(listed)
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

    def to_dict(self) -> dict:
        return {k: str(v) if isinstance(v, Path) else v for k, v in asdict(self).items()}


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
    return RunManifest(**values)


def echo_manifest(manifest: RunManifest, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(manifest.to_dict(), sort_keys=False))
