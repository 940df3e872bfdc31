#!/usr/bin/env python3
"""dsex benchmark: cold and warm exploration time and evaluator counts.

Usage (from the repository root):

    python3 perfbench/run.py --workload {bs-qos,sweep,tool-frontier}
                             --seed N --seconds S --trace {0,1}

Every run happens in a fresh interpreter (perfbench/worker.py), one at
a time. With --trace 0 the benchmark times set-up in eight fresh
interpreters, four before and four after the explorations. It
repeats cold+warm explorations while the next one still fits in S
seconds (always at least one), and reports the medians of the
end-to-end metrics. With --trace 1 it makes one untraced
run and one traced run, and reports the per-layer metrics of the
traced run plus the tracing overhead. Every exploration is checked
against its workload's reference; next to every sample it records the
load average, a calibration loop's time, nproc and the Python version.

Outputs go to .perfbench_out/<workload>/ under the repository root,
which is emptied first. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 8
DEADLINE_S = 170  # a run must end within 180 s
END_TO_END = {
    "run_s": "s", "rerun_s": "s", "setup_s": "s",
    "cpu_s": "s", "evals": "count", "peak_rss_mb": "MB",
}


class WorkerFailed(Exception):
    pass


def calibrate_ms() -> float:
    """A fixed pure-Python loop: a slow host shows as a slow calibration."""
    t0 = time.perf_counter()
    x = 0
    for i in range(300_000):
        x += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def host_record() -> dict:
    return {"load": os.getloadavg()[0], "calibration_ms": calibrate_ms()}


def run_worker(root: Path, args: list[str], deadline: float) -> str:
    """Run worker.py in a fresh interpreter; kill its whole group on timeout."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed("worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {err.strip()[-400:]}")
    return out


def explore_once(root, workload, manifest, out: Path, deadline, trace=False) -> dict:
    """One checked cold+warm exploration with its host-noise record."""
    before = host_record()
    args = ["run", str(manifest), str(out)]
    if trace:
        args.append("--trace")
    args += workload.worker_args(manifest)
    run_worker(root, args, deadline)
    result = json.loads((out / "result.json").read_text())
    problems = workload.check(out / "cold", out / "warm", result.get("checks"))
    if result["rerun_evals"] != 0:
        problems.append(f"warm rerun invoked {result['rerun_evals']} evaluators")
    result["problems"] = problems
    result["host"] = {
        "load_before": before["load"], "load_after": os.getloadavg()[0],
        "calibration_ms": before["calibration_ms"],
    }
    return result


def measure_setup(root: Path, manifest: Path, deadline: float, samples: int) -> list[float]:
    """setup_s in fresh interpreters."""
    return [
        json.loads(run_worker(root, ["setup", str(manifest)], deadline))["setup_s"]
        for _ in range(samples)
    ]


def describe(sample: dict) -> str:
    h = sample["host"]
    return (
        f"run_s {sample['run_s']:.3f} rerun_s {sample['rerun_s']:.3f} ({sample['reruns']}x) "
        f"cpu_s {sample['cpu_s']:.3f} evals {sample['evals']} rows {sample['rows']} "
        f"peak_rss_mb {sample['peak_rss_mb']:.1f} | load {h['load_before']:.2f}->"
        f"{h['load_after']:.2f} calibration_ms {h['calibration_ms']:.1f} | "
        + ("ok" if not sample["problems"] else "WRONG: " + "; ".join(sample["problems"]))
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    deadline = started + DEADLINE_S
    root = Path.cwd()
    needed = [root / "src" / "dsex" / "__init__.py", root / "pipelines"]
    missing = [str(p.relative_to(root)) for p in needed if not p.exists()]
    if missing:
        print(f"error: run from the dsex repository root; missing {missing}", file=sys.stderr)
        return 2

    work = root / ".perfbench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    workload = WORKLOADS[args.workload](root, args.seed)
    manifest = workload.write_inputs(inputs)

    host = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    print(f"workload {args.workload} seed {args.seed}: nproc {host['nproc']}, "
          f"python {host['python']}, trace {args.trace}")

    samples: list[dict] = []
    failures: list[str] = []
    attempts = 0

    def explore(label, out, trace=False):
        """One exploration; it fails if it raises or its output is wrong."""
        nonlocal attempts
        attempts += 1
        try:
            sample = explore_once(root, workload, manifest, work / out, deadline, trace)
        except (WorkerFailed, OSError, ValueError, KeyError) as err:
            failures.append(f"{label}: {err}")
            print(f"{label}: FAILED {err}")
            return None
        samples.append(sample)
        if sample["problems"]:
            failures.append(f"{label}: {'; '.join(sample['problems'])}")
        print(f"{label}: {describe(sample)}")
        return sample

    setups: list[float] = []
    if args.trace:
        plain = explore("untraced", "untraced")
        traced = explore("traced", "traced", trace=True)
    else:
        # set-up is sampled before and after the explorations, so that its
        # median spans the run's whole window of host speed; a first,
        # discarded set-up compiles bytecode and warms the file cache
        attempts += 1  # the set-up phase
        try:
            measure_setup(root, manifest, deadline, 1)
            setups = measure_setup(root, manifest, deadline, SETUP_SAMPLES // 2)
        except (WorkerFailed, ValueError) as err:
            failures.append(f"setup: {err}")
        stop = min(time.monotonic() + args.seconds, deadline)
        longest = 0.0
        while True:
            t0 = time.monotonic()
            sample = explore(f"run {len(samples) + 1}", f"run{attempts}")
            longest = max(longest, time.monotonic() - t0)
            if sample is None or time.monotonic() + longest > stop:
                break
        if setups:
            try:
                setups += measure_setup(root, manifest, deadline, SETUP_SAMPLES - len(setups))
            except (WorkerFailed, ValueError) as err:
                failures.append(f"setup: {err}")
                setups = []
        print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))

    attempted, failed = attempts, len(failures)
    print(f"attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.3f}")
    for f in failures:
        print(f"failure: {f}")
    (work / "samples.jsonl").write_text("".join(
        json.dumps({k: v for k, v in s.items() if k not in ("layers", "checks")} | host) + "\n"
        for s in samples
    ))
    if not samples or (not args.trace and not setups):
        print("error: no measurement completed", file=sys.stderr)
        return 1

    if args.trace:
        if traced is None or plain is None:
            print("error: the traced or the untraced run failed", file=sys.stderr)
            return 1
        layers = traced["layers"]
        print("largest self times: " + ", ".join(f"{k} {v:.3f}s" for k, v in traced["ranking"]))
        overhead = (traced["run_s"] + traced["rerun_s"]) / (plain["run_s"] + plain["rerun_s"])
        layers["tracing_overhead"] = (overhead, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        values = {k: statistics.median(s[k] for s in samples) for k in END_TO_END if k != "setup_s"}
        values["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"wall {time.monotonic() - started:.1f} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
