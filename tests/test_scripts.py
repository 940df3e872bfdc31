import json
import os
import re
import shutil
import subprocess
import sys

from conftest import ROOT


def test_compare_strategies_matches_the_readme():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_strategies.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # per fixture, strategy -> (best throughput, synthesis evaluations)
    found: dict[str, dict[str, tuple[str, int]]] = {}
    for line in proc.stdout.splitlines():
        if header := re.match(r"(\w+) \(\d+ candidates\)$", line):
            rows = found[header.group(1)] = {}
        elif row := re.match(r"\s+(exhaustive|gradient)\s+(\S+)\s+(\d+)\s", line):
            rows[row.group(1)] = (row.group(2), int(row.group(3)))
    assert {name: {s: n for s, (_, n) in rows.items()} for name, rows in found.items()} == {
        "fft_like": {"exhaustive": 7, "gradient": 3},
        "gemm_like": {"exhaustive": 41, "gradient": 11},
    }
    for rows in found.values():
        assert rows["exhaustive"][0] == rows["gradient"][0]


def _provenance_check(repo, *ignored, summary=None):
    env = {k: v for k, v in os.environ.items() if k != "GITHUB_STEP_SUMMARY"}
    if summary is not None:
        env["GITHUB_STEP_SUMMARY"] = str(summary)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_provenance.py"), *ignored],
        cwd=repo,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_provenance_check_ignores_only_wall_times_and_named_keys(tmp_path):
    git = ["git", "-c", "user.name=dsex", "-c", "user.email=dsex@example.com"]
    git += ["-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q"], cwd=tmp_path, check=True)
    for golden in sorted((ROOT / "runs").glob("*/provenance.json")):
        copy = tmp_path / "runs" / golden.parent.name / "provenance.json"
        copy.parent.mkdir(parents=True)
        shutil.copyfile(golden, copy)
    subprocess.run([*git, "add", "-f", "runs"], cwd=tmp_path, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "goldens"], cwd=tmp_path, check=True)
    path = tmp_path / "runs" / "blackscholes" / "provenance.json"
    golden = json.loads(path.read_text())

    def write(**changes):
        path.write_text(json.dumps({**golden, **changes}, indent=2) + "\n")

    summary = tmp_path / "summary.md"
    assert _provenance_check(tmp_path, summary=summary).returncode == 0
    rows = summary.read_text().splitlines()
    total = golden["total_evaluator_invocations"]
    assert f"| blackscholes | {golden['parallelism']} | {total} | {total} |" in rows
    write(total_wall_time_s=golden["total_wall_time_s"] + 1.0)
    assert _provenance_check(tmp_path).returncode == 0
    write(parallelism=golden["parallelism"] + 1)
    assert _provenance_check(tmp_path).returncode == 1
    assert _provenance_check(tmp_path, "parallelism").returncode == 0
    write(total_evaluator_invocations=total + 1)
    drifted = _provenance_check(tmp_path, "parallelism")
    assert drifted.returncode == 1
    assert "drifted: ['runs/blackscholes/provenance.json']" in drifted.stdout
    path.write_text(json.dumps(golden) + "\n")  # the counts of the golden, laid out on one line
    misformatted = _provenance_check(tmp_path)
    assert misformatted.returncode == 1
    assert "misformatted: ['runs/blackscholes/provenance.json']" in misformatted.stdout
