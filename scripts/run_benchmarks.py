#!/usr/bin/env python3
"""Run all four benchmark scenarios and collect their outputs.

Writes one JSON document and one CSV of bench records per scenario into
the output directory (default: ./out). Imports ``conzopt`` from the
``src/`` of the checkout this script sits in, so it runs without an
install:

    python3 scripts/run_benchmarks.py --out DIR
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conzopt.cli import main as cli_main  # noqa: E402


def run(out_dir):
    out = str(out_dir)
    jobs = [
        ["reach", "--sweep", "20"],
        ["mpc", "--norm", "inf"],
        ["mhe", "--seed", "0"],
        ["verify"],
    ]
    worst = 0
    for job in jobs:
        print(f"== conzopt {' '.join(job)}", file=sys.stderr)
        code = cli_main(job + ["--out", out, "--format", "both"])
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out"))
    args = parser.parse_args()
    sys.exit(run(args.out))
