"""Assert that the traced counts of a seed repeat across two processes.

    python3 perfbench/check_counts.py --workload sweep-verify --seed 3

Runs ``run.py --trace 1`` twice for the same workload and seed, compares
every count metric exactly, and asserts that ``models.check_weight`` is
called ``EXPECTED_PER_NV`` times per ``core.normalized_volume`` call.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracer import count_metrics

HERE = Path(__file__).resolve().parent
# five weight validations per normalized_volume, as the ROADMAP reports; a
# change that validates each weight once updates this constant
EXPECTED_PER_NV = 5


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1"]
    out = subprocess.run(cmd, cwd=HERE.parent, check=True, capture_output=True, text=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: traced run reports wrong answers")
    return count_metrics({k: v["value"] for k, v in result["metrics"].items()})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    first = traced_counts(args.workload, args.seed)
    second = traced_counts(args.workload, args.seed)
    for name, value in first.items():
        print(f"{name} {value} {second[name]}")
    if first != second:
        print("FAIL: counts differ between two traced runs", file=sys.stderr)
        return 1
    per_nv = first["models.check_weight.per_nv"]
    if per_nv != EXPECTED_PER_NV:
        print(f"FAIL: models.check_weight.per_nv is {per_nv}, expected {EXPECTED_PER_NV}", file=sys.stderr)
        return 1
    print(f"OK: counts repeat exactly; models.check_weight.per_nv = {per_nv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
