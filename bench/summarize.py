"""Run workloads over several seeds and report medians and spreads.

    python3 bench/summarize.py --seeds 1 2 3 4 5 [--workloads ...] \\
        [--seconds 35] [--out summary.json]

Each (workload, seed) is one untraced ``bench/run.py`` process, run one
after another.  For every metric it prints the median over seeds, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread, i.e.
the interquartile distance as a share of the median, next to the metric's
bound from ``BENCHMARK.json`` (a spread must stay below the bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    details, result = map(json.loads, done.stdout.strip().splitlines()[-2:])
    result["details"] = details
    return result


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {}
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        metrics = {}
        for name in results[0]["metrics"]:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in results])
            metrics[name]["unit"] = results[0]["metrics"][name]["unit"]
        report[workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
            "runs": [r["details"] for r in results],
        }
        print(f"{workload}: correct={report[workload]['correct']} "
              f"attempted={report[workload]['attempted']} failed={report[workload]['failed']}")
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + (
                "  OVER" if m["spread"] > bound else "  over 1/3" if m["spread"] > bound / 3
                else "")
            print(f"  {name:34s} {m['median']:14.6g} {m['unit']:6s} "
                  f"spread {m['spread']:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
