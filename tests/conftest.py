import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PIPELINES = ROOT / "pipelines"

sys.path.insert(0, str(SRC))

from dsex import Evaluator  # noqa: E402


def subprocess_env(extra=None):
    """Environment for CLI/tool subprocesses with the package importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if extra:
        env.update(extra)
    return env


def counting(evaluator: Evaluator):
    """Wrap an evaluator so actual invocations are observable. The wrapper
    has no column form, so a batch it misses points of runs point by
    point; a batch it holds every result of resolves by lookup."""
    calls = []

    def func(view):
        calls.append(view.point.coords)
        return evaluator.func(view)

    return Evaluator(evaluator.name, evaluator.produces, func), calls


def chebyshev_ring(coords, grid):
    """The coords of ``grid`` within one step of ``coords`` on every axis,
    less ``coords`` itself, in ``grid``'s order: a Chebyshev ring by brute
    force, the reference for ``Grid.ring``."""
    return [c for c in grid if c != coords and all(abs(a - b) <= 1 for a, b in zip(coords, c))]


@pytest.fixture
def dummy_schema():
    from dsex import Enumerated, Linear, ParamSpec, Pow2, Schema

    return Schema(
        [
            ParamSpec("param1", Linear(0, 16), ("resource", "qos")),
            ParamSpec("param2", Pow2(0, 8), ("resource",)),
            ParamSpec("param3", Enumerated([4, 6, 9]), ("qos",)),
        ]
    )


_ACCEPTANCE_RESULTS: dict[str, str] = {}


def record_acceptance(item_name: str, outcome: str) -> None:
    _ACCEPTANCE_RESULTS[item_name] = outcome


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    if item.module.__name__ == "test_acceptance" and item.name.startswith("test_criterion"):
        record_acceptance(item.name, "PASS" if report.passed else "FAIL")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{name}: {_ACCEPTANCE_RESULTS[name]}")
