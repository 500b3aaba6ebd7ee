"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep|serve|distill --seed N --seconds S --trace 0|1

Run from the repository root: the program is imported from ./src. With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run instead, and the spans go to bench/out/trace-<workload>-<seed>.json.
Lines before it give each metric by name and unit, the operation counts and
any failed checks. Scratch files live in bench/out/ and are removed at exit.

The set-up runs in a child process started with --set-up-into, which writes
the set-up's files and prints its times and file digests: once before the
timed phase, writing the files it reads, and once after it, so that set-up
time is sampled at both ends of the run. This process waits for each child
to end, so its own peak memory is that of the timed phase and of reading
the set-up's files.

Both processes fix glibc's mmap threshold at its initial 128 KiB before they
import numpy, so that every block above it is fresh memory. By default glibc
raises the threshold as large blocks are freed, and whether a 16.8 MB buffer
then reuses freed heap or faults in new pages depends on the order of
earlier frees: load_s on sweep moved between 23 and 45 ms from process to
process, and peak_rss_mb between values 16 MB apart (see bench/README.md).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"


def fix_mmap_threshold(size: int = 128 * 1024) -> None:
    """mallopt(M_MMAP_THRESHOLD, size), which also stops glibc adjusting it."""
    m_mmap_threshold = -3
    if ctypes.CDLL(None).mallopt(m_mmap_threshold, size) != 1:
        raise OSError("mallopt(M_MMAP_THRESHOLD) failed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "serve", "distill"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--set-up-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "deskfit" / "__init__.py").is_file():
        print(f"bench: no deskfit sources under {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    fix_mmap_threshold()

    import tracing
    import workloads

    if args.set_up_into:
        times, digests = workloads.set_up(args.workload, args.seed, args.set_up_into)
        print(json.dumps({"times": times, "digests": sorted(digests)}))
        return 0

    def set_up_in_child(workdir: Path) -> tuple[list[float], set[tuple[str, ...]]]:
        child = subprocess.run(
            [sys.executable, __file__, *sys.argv[1:], "--set-up-into", str(workdir)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up exited {child.returncode}:\n{child.stderr}")
        out = json.loads(child.stdout.splitlines()[-1])
        return out["times"], {tuple(d) for d in out["digests"]}

    tracer = tracing.Tracer() if args.trace else None
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run(
            args.workload, args.seed, args.seconds, workdir, tracer, set_up_in_child
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end = {k: (v, workloads.END_TO_END_UNITS[k]) for k, v in result["metrics"].items()}
    metrics = end_to_end
    if tracer:
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
        metrics = {k: (v, tracing.LAYER_UNITS[k]) for k, v in result["layers"].items()}
    for problem in dict.fromkeys(result["problems"]):
        print(f"FAILED CHECK: {problem.strip()}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    for name, value in result["info"].items():
        print(f"  ({name} {value:.6g})")
    if tracer:  # the traced run's end-to-end figures, for the tracing overhead
        for name, (value, unit) in end_to_end.items():
            print(f"  ({name} {value:.6g} {unit})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
