"""Steadiness check: run each workload repeatedly and report every metric's spread.

    python3 bench/steady.py [--runs 10] [--workloads sweep,serve,distill]
                            [--first-seed 1] [--out FILE] [--against FILE]

Runs bench/run.py once per seed (first-seed, first-seed + 1, ...) in
sequence, with BENCHMARK.json's run length, and prints for each workload and
end-to-end metric the median, the quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median and the metric's bound; a spread at or above a
third of its bound is marked. It also prints the share of failed operations,
which must be the same in every run. --against compares the medians with an
earlier output of this command: a change in the worse direction beyond the
bound is marked. This is how the bounds in BENCHMARK.json were set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarise(results: list[dict], bounds: dict[str, float]) -> dict:
    shares = {str(Fraction(r["failed"], r["attempted"])) for r in results}
    out = {
        "runs": len(results),
        "correct": all(r["correct"] for r in results),
        "failed_shares": sorted(shares),
        "wall_s": max(r["wall_s"] for r in results),
        "metrics": {},
    }
    for name in bounds:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["metrics"][name] = {
            "values": values,
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="JSON file for the summary")
    parser.add_argument("--against", default=None, help="an earlier summary to compare with")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}

    summary = {}
    for workload in names:
        results = []
        for k in range(args.runs):
            results.append(one_run(workload, args.first_seed + k, spec["run_seconds"]))
        s = summary[workload] = summarise(results, bounds)
        print(f"\n{workload}: {s['runs']} runs, correct {s['correct']}, "
              f"failed shares {s['failed_shares']}, longest run {s['wall_s']:.1f} s")
        print(f"  {'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, m in s["metrics"].items():
            flag = "" if m["spread"] < bounds[name] / 3 else "  WIDE"
            old = earlier.get(workload, {}).get("metrics", {}).get(name)
            if old:
                change = (m["median"] - old["median"]) / old["median"]
                worse = change if better[name] == "lower" else -change
                flag += f"  vs earlier {change:+.1%}" + ("  WORSE" if worse > bounds[name] else "")
            print(f"  {name:<18}{m['median']:>12.5g}{m['q1']:>12.5g}{m['q3']:>12.5g}"
                  f"{m['spread']:>9.3f}{bounds[name]:>7.2f}{flag}")

    out = Path(args.out) if args.out else ROOT / "bench" / "out" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"\nsummary written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
