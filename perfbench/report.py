"""Run every workload once and print each metric by name, with its unit.

    python3 perfbench/report.py [--seed 0] [--seconds 30] [--trace 0]

Each workload runs in its own process (perfbench/run.py), one after another,
so one workload's peak memory does not show up in the next one's.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    print(f"{'workload':<12} {'metric':<36} {'value':>14} unit")
    for name in workloads.WORKLOADS:
        run = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False, timeout=600,
        )
        if run.returncode != 0:
            print(f"{name:<12} run failed with exit code {run.returncode}: {run.stderr.strip()}")
            status = 1
            continue
        result = json.loads(run.stdout.strip().splitlines()[-1])
        for metric, entry in result["metrics"].items():
            print(f"{name:<12} {metric:<36} {entry['value']:>14.6g} {entry['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"{name:<12} {'failed_frac':<36} {frac:>14.6g} ratio "
              f"({result['failed']}/{result['attempted']}, correct={result['correct']})")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
