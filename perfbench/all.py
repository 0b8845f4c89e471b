"""Run every workload of BENCHMARK.json once, one after another.

    python3 perfbench/all.py [--seed N] [--trace 0|1]

Each workload runs as its own ``run.py`` process (so each pays its own
import and set-up), for the ``run_seconds`` in BENCHMARK.json. The output
of every run is passed through, then a table of every metric with its unit
per workload. With ``--trace 1`` each workload's traced run is made twice
and the counts (units count, bits and ratio) must repeat exactly; the exit
code is 1 if they do not or if any run reported incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from spans import EXACT_UNITS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"{workload}: run.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    results = {}
    ok = True
    for name in names:
        result = run_once(name, args.seed, spec["run_seconds"], args.trace)
        ok &= result["correct"]
        if args.trace:
            again = run_once(name, args.seed, spec["run_seconds"], args.trace)
            ok &= again["correct"]
            differ = [
                k for k, m in result["metrics"].items()
                if m["unit"] in EXACT_UNITS and m["value"] != again["metrics"][k]["value"]
            ]
            print(f"{name}: counts repeat exactly across two traced runs: {not differ} {differ}")
            ok &= not differ
        results[name] = result

    metrics = list(results[names[0]]["metrics"])
    print("\n" + "\t".join(["metric", "unit"] + names))
    for key in metrics + ["failed_frac"]:
        if key == "failed_frac":
            unit = "ratio"
            cells = [str(r["failed"] / r["attempted"]) for r in results.values()]
        else:
            unit = results[names[0]]["metrics"][key]["unit"]
            cells = [str(round(r["metrics"][key]["value"], 6)) for r in results.values()]
        print("\t".join([key, unit] + cells))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
