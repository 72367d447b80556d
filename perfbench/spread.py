"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads ade-minimize,...] [--tag first]

Runs ``run.py --trace 0`` once per (workload, seed), then prints for each
end-to-end metric its median and its quartile spread, (Q3 - Q1) / median
with ``statistics.quantiles(values, n=4)``, against a third of the bound
in ``BENCHMARK.json``.  Raw results go to ``perfbench/out/spread-<tag>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--tag", default="latest")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = raw.setdefault(workload, [])
        for seed in _seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True, timeout=180)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            ok = ok and result["correct"]
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {workload} {name}: median={median:.6g} spread={spread:.4f} "
                  f"bound={bound} {flag}", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"spread-{args.tag}.json").write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
