#!/usr/bin/env python3
"""Check each bundle's written provenance against its committed golden.

Usage: python scripts/check_provenance.py [KEY ...]

Run it from the repository root, after scripts/run_examples.py. Every
runs/*/provenance.json must equal the one committed at HEAD once each
key ending in ``wall_time_s`` and each KEY are set aside, so evaluation
counts, frontier sizes and points in and out do not drift. Each written
file must also be laid out as json.dumps(indent=2) lays it out. A table
of each bundle's evaluator invocations, written and committed, goes to
$GITHUB_STEP_SUMMARY when that names a file. Exits 1 on any drifted or
misformatted file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path


def timeless(node, ignored):
    if isinstance(node, dict):
        return {
            k: timeless(v, ignored)
            for k, v in node.items()
            if not k.endswith("wall_time_s") and k not in ignored
        }
    if isinstance(node, list):
        return [timeless(v, ignored) for v in node]
    return node


def main(ignored: set[str]) -> int:
    summary = ["| bundle | parallelism | evaluator invocations | committed |", "|---|---|---|---|"]
    drifted, misformatted = [], []
    for path in sorted(Path("runs").glob("*/provenance.json")):
        committed = json.loads(
            subprocess.run(
                ["git", "show", f"HEAD:{path.as_posix()}"],
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        )
        text = path.read_text()
        written = json.loads(text)
        if timeless(committed, ignored) != timeless(written, ignored):
            drifted.append(str(path))
        if text != json.dumps(written, indent=2) + "\n":
            misformatted.append(str(path))
        summary.append(
            f"| {path.parent.name} | {written['parallelism']} "
            f"| {written['total_evaluator_invocations']} "
            f"| {committed['total_evaluator_invocations']} |"
        )
    if "GITHUB_STEP_SUMMARY" in os.environ:
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as out:
            out.write("\n".join(summary) + "\n\n")
    print("provenance drifted:", drifted or "none")
    print("provenance misformatted:", misformatted or "none")
    return 1 if drifted or misformatted else 0


if __name__ == "__main__":
    raise SystemExit(main(set(sys.argv[1:])))
