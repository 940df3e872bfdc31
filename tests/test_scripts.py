import re
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
