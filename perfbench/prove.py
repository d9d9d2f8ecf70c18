"""Run the benchmark over several seeds and report medians and spreads.

    python3 perfbench/prove.py [--workloads W ...] [--seeds 10] [--first-seed 1]
                               [--seconds S] [--repeat-trace] [--write FILE]

For each workload, runs ``run.py --trace 0`` once per seed and gives every
end-to-end metric's median, quartiles (``statistics.quantiles(n=4)``) and
spread, the quartile distance as a share of the median, against the bound in
BENCHMARK.json; a spread above a third of its bound is flagged. The spread
of the same metric before scaling to reference speed is shown beside it. With
``--repeat-trace`` it also makes two traced runs on the first seed and
checks that the exact counts repeat. ``--write`` saves everything, with the
environment of each run, as JSON (``baseline.json`` holds one such record).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, EXACT_LAYER_METRICS, OUT, ROOT


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line and the full result file of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )  # fmt: skip
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    full_path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    full = json.loads(full_path.read_text(encoding="utf-8"))
    return result, full


def spread_row(values: list[float], bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med
    return {
        "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
        "steady": spread < bound / 3, "values": values,
    }  # fmt: skip


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--repeat-trace", action="store_true")
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    record: dict = {"seconds": args.seconds, "workloads": {}}
    all_ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        wall: dict[str, list[float]] = {name: [] for name in bounds}
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, full = run_once(workload, seed, args.seconds, 0)
            all_ok &= result["correct"]
            runs.append(
                {
                    "seed": seed,
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "env": full["env"],
                }
            )
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
                wall[name].append(full["details"][f"wall.{name}"]["value"])
            shown = " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items())
            print(f"{workload} seed {seed} correct {result['correct']} {shown}", flush=True)
        rows = {name: spread_row(v, bounds[name]) for name, v in values.items()}
        wall_rows = {name: spread_row(v, bounds[name]) for name, v in wall.items()}
        entry = {"metrics": rows, "wall": wall_rows, "runs": runs}
        for name, row in rows.items():
            flag = "" if row["steady"] or name == "setup_s" else "  <-- above bound/3"
            print(
                f"  {name:18s} median {row['median']:.6g} spread {row['spread']:.4f} "
                f"(bound {row['bound']}; unscaled spread {wall_rows[name]['spread']:.4f}){flag}"
            )
        if args.repeat_trace:
            traced = [run_once(workload, args.first_seed, args.seconds, 1)[0] for _ in range(2)]
            first, second = (
                {n: r["metrics"][n]["value"] for n in EXACT_LAYER_METRICS} for r in traced
            )
            entry["trace_counts"] = first
            entry["trace_counts_repeat"] = first == second
            all_ok &= first == second and all(r["correct"] for r in traced)
            print(f"  exact trace counts repeat: {first == second}")
        record["workloads"][workload] = entry
    if args.write:
        args.write.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
