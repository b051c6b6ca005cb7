"""Run one workload over several seeds and summarize the spread.

    python3 perfbench/repeat.py --workload fit-py --seeds 1-10 --out runs.jsonl
    python3 perfbench/repeat.py --summarize runs.jsonl [more.jsonl ...]

Each run appends one line {"seed", "run_wall_s", "report", "result"} to
--out.  The summary gives, per workload and metric, the median, the
quartiles from statistics.quantiles(values, n=4) and the spread
(Q3 - Q1) / median, and for untraced runs the same spread of the wall
times that the metrics rescale.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_seeds(args):
    with open(args.out, "a") as fh:
        for seed in seed_list(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=HERE.parent, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"seed {seed} exited {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            entry = {
                "seed": seed,
                "run_wall_s": time.perf_counter() - start,
                "report": json.loads(lines[-2])["report"],
                "result": json.loads(lines[-1]),
            }
            fh.write(json.dumps(entry) + "\n")
            fh.flush()
            print(seed, json.dumps(entry["result"]), flush=True)


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(paths):
    groups = {}
    for path in paths:
        for line in Path(path).read_text().splitlines():
            entry = json.loads(line)
            key = (entry["report"]["workload"], entry["report"]["trace"])
            groups.setdefault(key, []).append(entry)
    summary = {}
    for (workload, trace), entries in sorted(groups.items()):
        metrics = {}
        for name in entries[0]["result"]["metrics"]:
            values = [e["result"]["metrics"][name]["value"] for e in entries]
            median = statistics.median(values)
            row = {"unit": entries[0]["result"]["metrics"][name]["unit"],
                   "runs": len(values), "median": median}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
            metrics[name] = row
        spins = [e["report"]["host_spin_s"] for e in entries]
        if trace == 0:
            walls = {
                "ops_per_s": [e["report"]["wall"]["ops_per_s"] for e in entries],
                "op_ms.p50": [e["report"]["wall"]["op_ms"]["p50"] for e in entries],
                "setup_s": [e["report"]["wall"]["setup_s"] for e in entries],
            }
        summary[f"{workload} trace={trace}"] = {
            "all_correct": all(e["result"]["correct"] for e in entries),
            "seeds": [e["seed"] for e in entries],
            "host_spin_s": {"min": min(spins), "median": statistics.median(spins),
                            "max": max(spins)},
            "metrics": metrics,
        }
        if trace == 0 and len(entries) >= 2:
            summary[f"{workload} trace={trace}"]["wall_spread"] = {
                name: _spread(values) for name, values in walls.items()
            }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--summarize", nargs="+", metavar="JSONL")
    args = parser.parse_args(argv)
    if args.summarize:
        print(json.dumps(summarize(args.summarize), indent=2))
        return 0
    if not (args.workload and args.out):
        parser.error("--workload and --out are required to run")
    run_seeds(args)
    print(json.dumps(summarize([args.out]), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
