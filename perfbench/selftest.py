"""Self-test of the benchmark itself (not of quasicut).

    python3 perfbench/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks that:

* each run exits 0, passes every correctness check, and prints every metric
  that BENCHMARK.json names, with its unit, both as a ``metric`` line and in
  the final JSON line; end-to-end values are positive;
* two traced runs with the same seed give identical exact counts;
* the workload generator refuses a cut that names no gate of its layer and
  builds exactly the cuts a spec names;
* the tracer reports a call site that no longer exists as absent, and one
  that is never called as zero, without stopping.

Exits 0 when all of that holds and 1 otherwise, listing each failure.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

from run import BENCH_DIR, EXACT_LAYER_METRICS, ROOT, SRC, layer_metrics
from tracing import Tracer
from workloads import CUT_SPECS, WORKLOADS, cut_documents

SEED = 3


def run_tiny(workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    return proc.returncode, proc.stdout.splitlines()


def check_run(workload: str, trace: int, expected: dict[str, str], failures: list[str]) -> dict:
    """Run once and check its output; returns the result's metric values."""
    where = f"{workload} trace {trace}"
    code, lines = run_tiny(workload, trace)
    if code != 0 or not lines:
        failures.append(f"{where}: exit {code}")
        return {}
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        failures.append(f"{where}: correct {result.get('correct')}, failed {result.get('failed')}")
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, _value, unit = line.split(" ")
            printed[name] = unit
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        if printed.get(name) != unit:
            failures.append(
                f"{where}: metric line for {name} has unit {printed.get(name)}, expected {unit}"
            )
        entry = metrics.get(name)
        if entry is None or entry.get("unit") != unit:
            failures.append(f"{where}: result entry for {name} is {entry}, expected unit {unit}")
        elif trace == 0 and not entry["value"] > 0:
            failures.append(f"{where}: {name} is {entry['value']}, expected a positive value")
    extra = set(metrics) - set(expected)
    if extra:
        failures.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return {name: entry["value"] for name, entry in metrics.items()}


def check_generator(failures: list[str]) -> None:
    spec = CUT_SPECS["cut6q_exact"]
    # layer 1 of a 6-qubit brickwork pairs (1, 2) and (3, 4), not (2, 3)
    odd = dataclasses.replace(spec, cuts=((1, (2, 3)),))
    try:
        cut_documents(odd, SEED)
        failures.append("generator accepted a cut on a pair its layer does not have")
    except ValueError:
        pass
    for spec in CUT_SPECS.values():
        documents = cut_documents(spec, SEED)
        cuts = sum(1 for gate in documents[0]["gates"] if gate.get("cut"))
        if cuts != len(spec.cuts):
            failures.append(f"{spec.name}: {cuts} cuts built, spec names {len(spec.cuts)}")
        if cut_documents(spec, SEED) != documents:
            failures.append(f"{spec.name}: the same seed built different documents")


def check_tracer(failures: list[str]) -> None:
    sys.path.insert(0, str(SRC))
    import quasicut

    sites = (
        ("quasicut", "no_such_function", "gone.no_such_function"),
        ("quasicut.no_such_module", "f", "gone.f"),
        ("quasicut.sampler", "run_shot", "sampler.run_shot"),
        ("quasicut", "plan_shots", "sampler.plan_shots"),
    )
    tracer = Tracer(sites)
    original = quasicut.sampler.run_shot
    with tracer:
        quasicut.plan_shots(0.1, 0.05, 1.0, 3.0)
    if quasicut.sampler.run_shot is not original:
        failures.append("tracer did not restore a wrapped name")
    if sorted(tracer.absent) != ["quasicut.no_such_function", "quasicut.no_such_module.f"]:
        failures.append(f"tracer absent sites {tracer.absent}")
    summary = tracer.summary()
    if summary.get("sampler.plan_shots", {}).get("calls") != 1 or "sampler.run_shot" in summary:
        failures.append(f"tracer summary {summary}")
    context = {"shots": 0, "width": 0, "w_total": 0.0, "terms_per_cut": 0.0, "import_s": 0.0,
               "overhead_ratio": 1.0, "section_s": 1.0}  # fmt: skip
    if layer_metrics(summary, context)["sampler.run_shot.calls"] != 0:
        failures.append("a never-called site does not read zero")


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in config["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in config["per_layer"]}
    failures: list[str] = []
    if [w["name"] for w in config["workloads"]] != list(WORKLOADS):
        failures.append(f"BENCHMARK.json workloads differ from {WORKLOADS}")
    check_generator(failures)
    check_tracer(failures)
    for workload in WORKLOADS:
        check_run(workload, 0, e2e, failures)
        first = check_run(workload, 1, layers, failures)
        second = check_run(workload, 1, layers, failures)
        for name in EXACT_LAYER_METRICS:
            if first.get(name) != second.get(name):
                failures.append(f"{workload}: {name} is {first.get(name)}, then {second.get(name)}")
        print(f"{workload}: checked", flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
