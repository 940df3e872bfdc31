#!/usr/bin/env python3
"""Run every shipped pipeline bundle and collect outputs under runs/.

Usage: python scripts/run_examples.py [--parallelism N]
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--parallelism", type=int, default=1)
    args = parser.parse_args()
    # the child imports dsex from this checkout, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    for bundle in ("dsp-pipeline", "gradient-synth", "blackscholes"):
        manifest = ROOT / "pipelines" / bundle / "manifest.yaml"
        out = ROOT / "runs" / bundle
        print(f"== {bundle} ==")
        proc = subprocess.run(
            [
                sys.executable, "-m", "dsex", "run",
                "--manifest", str(manifest),
                "--out", str(out),
                "--parallelism", str(args.parallelism),
            ],
            cwd=ROOT,
            env=env,
        )
        if proc.returncode != 0:
            return proc.returncode
        print(f"wrote {out}/frame.csv\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
