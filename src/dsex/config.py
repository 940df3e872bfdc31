"""Declarative file formats: schemas, evaluator registries, pipelines,
and run manifests.

All files are YAML key-value trees. Paths inside a file resolve
relative to that file's directory, so pipeline bundles stay
relocatable. Schema files round-trip losslessly through
``schema_to_dict`` / ``schema_from_dict``; a schema with frozen params
or metric names, which only steps make, has no file form.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Mapping

import yaml

from .blackscholes import BsModelParams, latency_evaluator, qos_evaluator
from .errors import ConfigError
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


def _load_yaml(path: Path) -> dict:
    try:
        data = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except yaml.YAMLError as err:
        raise ConfigError(f"cannot parse {path}: {err}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a mapping at the top level")
    return data


_FLOAT_MAX = sys.float_info.max


def _integer(value, what: str) -> int:
    """``value`` when it is an integer; bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """``value`` as a float when it is a finite number; bools and strings are refused."""
    # False for NaN, inf and ints too large for a float
    if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= _FLOAT_MAX:
        return float(value)
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def _positive(value, what: str) -> float:
    number = _number(value, what)
    if number <= 0:
        raise ConfigError(f"{what} must be positive, got {value!r}")
    return number


def _boolean(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


def _refuse_unknown(data: Mapping, known: tuple[str, ...], where: str) -> None:
    """Refuse keys nothing reads, so a misspelt or retired one fails loudly."""
    unknown = [key for key in data if key not in known]
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown} (known: {list(known)})")


def schema_from_dict(data: Mapping) -> Schema:
    if "params" not in data or not isinstance(data["params"], list):
        raise ConfigError("schema must have a 'params' list")
    specs = []
    for i, entry in enumerate(data["params"]):
        where = f"params[{i}]"
        if not isinstance(entry, dict) or "name" not in entry or "domain" not in entry:
            raise ConfigError(f"{where}: each param needs 'name' and 'domain'")
        domain_spec = entry["domain"]
        if not isinstance(domain_spec, dict) or len(domain_spec) != 1:
            raise ConfigError(f"{where}: domain must be one of linear/pow2/enum")
        (kind, args), = domain_spec.items()
        if kind not in ("linear", "pow2", "enum"):
            raise ConfigError(f"{where}: unknown domain kind {kind!r}")
        bounds = kind != "enum"
        if not isinstance(args, list) or (len(args) != 2 if bounds else not args):
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
        specs.append(
            ParamSpec(str(entry["name"]), domain, tuple(entry.get("concerns", ())))
        )
    return Schema(specs)


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
    return schema_from_dict(_load_yaml(Path(path)))


def save_schema(schema: Schema, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(schema_to_dict(schema), sort_keys=False))


# the keys each evaluator kind reads, besides 'name' and 'kind'
_EVALUATOR_KEYS = {
    "expr": ("produces", "expr"),
    "model": ("model",),
    "command": ("argv", "produces", "env", "timeout_s"),
    "blackscholes_qos": ("model",),
    "latency": ("overhead",),
}
_INLINE_MODEL_KEYS = ("produces", "formulas", "latency_s", "fail_if")


def _build_evaluator(entry: Mapping, base_dir: Path, global_seed: int) -> Evaluator:
    if "name" not in entry or "kind" not in entry:
        raise ConfigError("each evaluator needs 'name' and 'kind'")
    name = str(entry["name"])
    kind = str(entry["kind"])
    where = f"evaluator {name!r}"
    if kind not in _EVALUATOR_KEYS:
        raise ConfigError(f"unknown evaluator kind {kind!r}")
    inline = kind == "model" and "model" not in entry
    keys = _INLINE_MODEL_KEYS if inline else _EVALUATOR_KEYS[kind]
    _refuse_unknown(entry, ("name", "kind", *keys), where)
    if kind == "expr":
        return expr_evaluator(name, str(entry["produces"]), str(entry["expr"]))
    if kind == "model":
        if not inline:
            path = base_dir / str(entry["model"])
            try:
                model = load_model(path)
            except OSError as err:
                raise ConfigError(f"cannot read model file {path}: {err.strerror}") from None
        else:
            model = model_from_dict(entry, name=name)
        return model_evaluator(model, name=name)
    if kind == "command":
        spec = CommandSpec(
            argv=tuple(str(a) for a in entry["argv"]),
            produces=tuple(entry["produces"]),
            env={str(k): str(v) for k, v in dict(entry.get("env", {})).items()},
            timeout_s=_positive(entry["timeout_s"], f"{where}: 'timeout_s'")
            if "timeout_s" in entry
            else None,
        )
        return external_command(name, spec)
    if kind == "blackscholes_qos":
        params = entry.get("model", {})
        if not isinstance(params, dict):
            raise ConfigError(f"{where}: 'model' must be a mapping, got {params!r}")
        defaults = {"S0": 100.0, "mu": 0.05, "sigma": 0.2, "T": 1.0}
        _refuse_unknown(params, tuple(defaults), f"{where}: 'model'")
        values = {
            key: _number(params.get(key, default), f"{where}: 'model.{key}'")
            for key, default in defaults.items()
        }
        try:
            model = BsModelParams(**values)
        except ConfigError as err:
            raise ConfigError(f"{where}: {err}") from None
        return qos_evaluator(model, global_seed, name=name)
    # latency, the last kind left
    overhead = _integer(entry.get("overhead", 0), f"{where}: 'overhead'")
    return latency_evaluator(overhead, name=name)


def load_evaluators(path: str | Path, global_seed: int = 0) -> dict[str, Evaluator]:
    path = Path(path)
    data = _load_yaml(path)
    entries = data.get("evaluators")
    if not isinstance(entries, list):
        raise ConfigError(f"{path} must have an 'evaluators' list")
    registry: dict[str, Evaluator] = {}
    for entry in entries:
        try:
            ev = _build_evaluator(entry, path.parent, global_seed)
        except KeyError as err:
            raise ConfigError(
                f"evaluator entry {entry.get('name', '?')!r} is missing key {err.args[0]!r}"
            ) from None
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


# the keys each step kind reads, besides 'step', 'name', 'fail_policy' and 'worst'
_STEP_KEYS = {
    "identity": (),
    "map": ("evaluator",),
    "sort": ("key", "ascending", "evaluator"),
    "prune": ("keep", "evaluator"),
    "reduce_dimension": ("concern", "to"),
    "gradient": ("evaluators", "objective", "maximize"),
    "quick_prune": ("evaluators", "keep", "side", "concern"),
}


def _build_step(entry: Mapping, registry: Mapping[str, Evaluator], where: str) -> Step:
    kind = str(entry.get("step", ""))
    if kind not in _STEP_KEYS:
        raise ConfigError(f"{where}: unknown step kind {kind!r}")
    _refuse_unknown(entry, ("step", "name", "fail_policy", "worst", *_STEP_KEYS[kind]), where)
    label = entry.get("name")
    policy = None
    if "fail_policy" in entry:
        policy = parse_fail_policy(str(entry["fail_policy"]), entry.get("worst"))

    def with_policy(step: Step) -> Step:
        return step if policy is None else replace(step, fail_policy=policy)

    if kind == "identity":
        return with_policy(identity(label or "identity"))
    if kind == "map":
        ev = _registry_get(registry, str(entry["evaluator"]))
        return with_policy(exhaustive_map(ev, label))
    if kind == "sort":
        ev = None
        if entry.get("evaluator"):
            ev = _registry_get(registry, str(entry["evaluator"]))
        return with_policy(
            exhaustive_sort(
                str(entry["key"]),
                evaluator=ev,
                ascending=_boolean(entry.get("ascending", True), "sort: 'ascending'"),
                name=label or "sort",
            )
        )
    if kind == "prune":
        ev = None
        if entry.get("evaluator"):
            ev = _registry_get(registry, str(entry["evaluator"]))
        return with_policy(
            exhaustive_prune(str(entry["keep"]), evaluator=ev, name=label or "prune")
        )
    if kind == "reduce_dimension":
        to = str(entry.get("to", "min"))
        if to not in ("min", "max"):
            raise ConfigError(f"reduce_dimension 'to' must be min or max, got {to!r}")
        return with_policy(
            reduce_dimension(str(entry["concern"]), to_min=(to == "min"), name=label)
        )
    if kind == "gradient":
        evs = [_registry_get(registry, str(n)) for n in entry.get("evaluators", [])]
        return with_policy(
            gradient_sort(
                evs,
                str(entry["objective"]),
                maximize=_boolean(entry.get("maximize", True), "gradient: 'maximize'"),
                name=label or "gradient",
            )
        )
    # quick_prune, the last kind left
    evs = [_registry_get(registry, str(n)) for n in entry.get("evaluators", [])]
    side = str(entry.get("side", "upward"))
    try:
        keep_side = KeepSide(side)
    except ValueError:
        raise ConfigError(f"quick_prune side must be upward or downward, got {side!r}") from None
    concern = entry.get("concern")
    return with_policy(
        quick_prune(
            evs,
            str(entry["keep"]),
            side=keep_side,
            concern=str(concern) if concern is not None else None,
            name=label or "quick_prune",
        )
    )


def load_pipeline(
    path: str | Path, registry: Mapping[str, Evaluator], parallelism: int = 1
) -> Pipeline:
    """Build a pipeline from a config file and an evaluator registry.

    The file holds the strategy: its steps and fail policies. How many
    evaluations run at once is a run setting, passed as ``parallelism``.
    """
    path = Path(path)
    data = _load_yaml(path)
    _refuse_unknown(data, ("steps", "fail_policy", "worst"), str(path))
    entries = data.get("steps")
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{path} must have a non-empty 'steps' list")
    steps = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"steps[{i}] must be a mapping")
        try:
            steps.append(_build_step(entry, registry, f"steps[{i}]"))
        except KeyError as err:
            raise ConfigError(f"steps[{i}] is missing key {err.args[0]!r}") from None
    fail_policy = parse_fail_policy(str(data.get("fail_policy", "abort")), data.get("worst"))
    return Pipeline(tuple(steps), parallelism=parallelism, fail_policy=fail_policy)


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
    data = _load_yaml(path)
    _refuse_unknown(data, tuple(f.name for f in fields(RunManifest)), str(path))
    base = path.parent

    def resolve(key: str) -> Path:
        if key not in data:
            raise ConfigError(f"manifest {path} is missing {key!r}")
        return (base / str(data[key])).resolve()

    return RunManifest(
        schema=resolve("schema"),
        pipeline=resolve("pipeline"),
        evaluators=resolve("evaluators"),
        out=(base / str(data.get("out", "out"))).resolve(),
        **{k: _integer(data[k], f"{path}: {k!r}") for k in ("parallelism", "seed", "top") if k in data},
    )


def echo_manifest(manifest: RunManifest, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(manifest.to_dict(), sort_keys=False))
