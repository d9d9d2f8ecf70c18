"""quasicut benchmark: shot throughput, time to accuracy and CLI latency.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from anywhere; the package is imported from the ``src`` directory next
to this one. Load model: closed loop, one client, one process pinned to one
processor (the CLI and set-up processes it starts inherit that), every
``estimate`` call at its default ``threads=1``.

Workloads (see ``workloads.py`` for their shapes):

* ``cut2q_exact``, ``cut6q_exact``, ``cut10q_sample``: seeded brickwork
  circuits with 1, 1 and 2 cut gates, estimated through the public API and
  the ``quasicut estimate`` CLI.
* ``verify_survey``: decomposition checks against dense PTMs on seeded Weyl
  tetrahedron points, ``realize`` on all 16 channels and 6 cardinal states,
  and the ``sweep`` + ``find_max_w`` cost survey. No ``estimate`` calls.

End-to-end metrics (``--trace 0``), each defined on every workload:

================  ============================  ==============================
metric            cut* workloads                verify_survey
================  ============================  ==============================
throughput_per_s  shots/s of one fixed-shot     verification points/s (direct
                  estimate call                 and legacy decomposition)
call_ms_p50       one fixed-shot estimate call  one realize round (16 channels
                                                x 6 cardinal states)
answer_ms         one estimate at (epsilon,     one sweep + find_max_w survey
                  delta): time to accuracy
cli_ms            one ``quasicut estimate``     one ``quasicut verify``
                  process                       process
setup_s           a fresh process: import, document parse and one small call
                  that fills the decomposition and table caches
================  ============================  ==============================

Each is the median of the run's samples at reference speed (below). The
report lines before the result repeat them under the names shots_per_s and
time_to_eps_ms (verify_points_per_s, realize_per_s and survey_s on
verify_survey), and add the p90 of the fixed-shot calls (a run of 25 s makes
about 100, so 10 lie beyond it), the sample counts and the failed_ratio of
the correctness checks.

Reference speed. On a shared 2-core virtual machine the processor runs up to
about 1.7x slower for spells of seconds to minutes, set by other tenants of
the host and not by the code. So that a run made in a slow spell reads like
one made on a quiet host, every timing sample is scaled to reference speed:
just before and just after it, a fixed loop of numpy calls on tiny arrays
that uses no quasicut code (``reference_work``) is timed, and the sample is
multiplied by ``REF_MS`` over the mean of the two times. A change to quasicut
moves the samples and not the loop. On in-process calls this cuts the
spread of run medians across seeds from up to 0.5 to about 0.05; the CLI
and set-up processes, mostly imports, follow the loop less closely, so
their bounds are wider. The report lines give every value unscaled too
(``wall.*``), with the loop's median time (``host_ref_ms``).

``--trace 1`` runs a fixed amount of work, alternating each unit of it
untraced and under ``tracing.Tracer``, and reports per-layer counts and
times (the names in ``LAYER_METRICS``), unscaled. Counts come from fixed
work, so they repeat exactly for a seed. Every run writes its full result
(environment and timing samples included) to ``.perfbench_out/``; traced
runs also write their spans there.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics. Every run checks the program's outputs; a failed check or
an exception is counted, never fatal.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from math import pi, prod
from pathlib import Path
from time import perf_counter

# the script's own directory is first on sys.path
from tracing import Tracer
from workloads import CUT_SPECS, DELTA, VERIFY_SPEC, WORKLOADS, cut_documents, tetrahedron_points

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# fixed-shot estimates must lie within this many std_errors of the exact value
K_SIGMA = 8.0
VERIFY_TOL = 1e-9
W_MAX, W_MAX_TOL = 8.8738, 1e-3
# Per round of a cut workload: fixed-shot calls and time-to-accuracy calls;
# per round of verify_survey: verification points and realize rounds, and one
# survey. Every round also runs CLI processes and one set-up probe. A run
# lasts its --seconds and at least MIN_ROUNDS rounds; at about 2.5 s a round,
# that is some 120 fixed-shot calls and 30 CLI processes in 25 s.
ROUND_CALLS = 12
ROUND_ANSWERS = 4
ROUND_CLI = 3
VERIFY_ROUND_UNITS = 20
MIN_ROUNDS = {"cut": 5, "verify": 3}
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 120
# reference_work() time in milliseconds on a quiet host (2 cores, Python
# 3.11, numpy 2.4): the speed that timing samples are scaled to
REF_MS = 2.5

E2E_METRICS = {
    "throughput_per_s": "1/s",
    "call_ms_p50": "ms",
    "answer_ms": "ms",
    "cli_ms": "ms",
    "setup_s": "s",
}

LAYER_METRICS = {
    "sampler.run_shot.calls": "count",
    "sampler.run_shot.self_us": "us/shot",
    "sampler.ShotStream.draws_per_shot": "draws/shot",
    "sampler.ShotStream.busy_us": "us/shot",
    "sampler.estimate.self_ms": "ms/call",
    "circuit.apply_gate.calls_per_shot": "calls/shot",
    "circuit.apply_gate.busy_us": "us/shot",
    "circuit.apply_gate.bytes_per_shot": "computed_B/shot",
    "circuit.apply_1q.calls_per_shot": "calls/shot",
    "circuit.apply_1q.busy_us": "us/shot",
    "circuit.observable.busy_us": "us/shot",
    "circuit.exact_expectation.busy_ms": "ms/call",
    "decomposition.decompose.busy_us": "us/call",
    "canonical.pauli_coefficients.busy_us": "us/call",
    "decomposition.w_total": "1",
    "decomposition.terms_per_cut": "terms",
    "decomposition.reconstruct_ptm.busy_us": "us/call",
    "local_basis.realize.calls": "count",
    "local_basis.realize.busy_us": "us/call",
    "algebra.ptm_of_unitary.busy_us": "us/call",
    "analysis.weight_formula.calls": "count",
    "analysis.sweep.busy_s": "s/call",
    "analysis.find_max_w.busy_s": "s/call",
    "cli.import_ms": "ms",
    "cli.main.busy_ms": "ms/call",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}

# per-layer values that count work, not time: they repeat bit for bit for a seed
EXACT_LAYER_METRICS = (
    "sampler.run_shot.calls",
    "sampler.ShotStream.draws_per_shot",
    "circuit.apply_gate.calls_per_shot",
    "circuit.apply_1q.calls_per_shot",
    "decomposition.w_total",
    "decomposition.terms_per_cut",
    "local_basis.realize.calls",
    "analysis.weight_formula.calls",
)

CARDINAL_STATES = (
    (1.0, 0.0),
    (0.0, 1.0),
    (2**-0.5, 2**-0.5),
    (2**-0.5, -(2**-0.5)),
    (2**-0.5, 1j * 2**-0.5),
    (2**-0.5, -1j * 2**-0.5),
)


class Checks:
    """Counts correctness checks; a failure is recorded and the run goes on."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def timed(self, what: str, fn, *args, **kwargs):
        """(result or None, seconds) of one call; an exception is a failed check."""
        self.attempted += 1
        start = perf_counter()
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a counted failure
            self.fail(f"{what} raised {type(exc).__name__}: {exc}")
            return None, perf_counter() - start
        return value, perf_counter() - start


def run_child(args: list[str]) -> tuple[float, int, bytes]:
    """(wall seconds, exit code, stdout) of ``python3 ARGS`` against ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        return perf_counter() - start, -1, b""
    return perf_counter() - start, proc.returncode, proc.stdout


def probe_seconds(checks: Checks, args: list[str], repeats: int) -> list[float]:
    """Elapsed seconds that ``probe.py ARGS`` reports, once per fresh process."""
    out = []
    for _ in range(repeats):
        _, code, stdout = run_child([str(BENCH_DIR / "probe.py"), *args])
        checks.check(code == 0, f"probe {args[0]} exited {code}")
        if code == 0:
            out.append(float(stdout.decode().strip().splitlines()[-1]))
    return out


def reference_work() -> float:
    """Fixed host-speed probe: many numpy calls on tiny arrays, the kind of work
    that dominates quasicut's calls, and no quasicut code."""
    import numpy as np

    a = np.ones((4, 4))
    for _ in range(120):
        b = np.kron(a[:2, :2], a[:2, :2])
        c = np.einsum("ij,jk->ik", a, b)
        a = c / np.abs(c).max()
    return float(a[0, 0])


def reference_seconds() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


class Samples:
    """A run's timing samples by kind, each paired with the mean time that
    ``reference_work`` took just before and just after it."""

    def __init__(self, checks: Checks) -> None:
        self.checks = checks
        self.pairs: dict[str, list[tuple[float, float]]] = defaultdict(list)

    def timed(self, kind: str, what: str, fn, *args):
        """The result of ``fn(*args)`` (None if it raised); its time is kept under ``kind``."""
        before = reference_seconds()
        result, elapsed = self.checks.timed(what, fn, *args)
        if result is not None:
            self.add(kind, elapsed, (before + reference_seconds()) / 2)
        return result

    def add(self, kind: str, seconds: float, ref: float) -> None:
        self.pairs[kind].append((seconds, ref))

    def wall(self, kind: str) -> list[float]:
        return [seconds for seconds, _ in self.pairs[kind]]

    def scaled(self, kind: str) -> list[float]:
        """The samples in seconds at reference speed."""
        return [seconds * REF_MS / (ref * 1e3) for seconds, ref in self.pairs[kind]]


def cli_sample(checks: Checks, case, samples: Samples, reference: bytes | None) -> bytes | None:
    """Time one ``quasicut`` process on ``case.cli_args()``; returns the reference output.

    The first output is checked for correctness; every later one must equal
    it byte for byte.
    """
    command = case.cli_args()[0]
    before = reference_seconds()
    elapsed, code, stdout = run_child(["-m", "quasicut.cli", *case.cli_args()])
    checks.check(code == 0, f"quasicut {command} exited {code}")
    if code != 0:
        return reference
    samples.add("cli", elapsed, (before + reference_seconds()) / 2)
    if reference is None:
        case.check_cli_doc(stdout.decode(), f"quasicut {command}")
        return stdout
    checks.check(stdout == reference, f"quasicut {command} rerun output differs")
    return reference


def setup_sample(checks: Checks, args: list[str], samples: Samples) -> None:
    before = reference_seconds()
    for seconds in probe_seconds(checks, args, 1):
        samples.add("setup", seconds, (before + reference_seconds()) / 2)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between order statistics (numpy's default method)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = p / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def e2e_metrics(samples: Samples, throughput_kind: str, units: int) -> tuple[dict, dict]:
    """The gated metrics of a run, and report lines of the same samples unscaled.

    ``throughput_kind`` names the samples that each do ``units`` of work.
    """
    kinds = ("call", "answer", "cli", "setup", throughput_kind)
    scaled = {kind: median(samples.scaled(kind)) for kind in kinds}
    wall = {kind: median(samples.wall(kind)) for kind in kinds}
    unit_s, wall_unit_s = scaled[throughput_kind], wall[throughput_kind]
    refs = [ref for pairs in samples.pairs.values() for _, ref in pairs]
    metrics = {
        "throughput_per_s": units / unit_s if unit_s else 0.0,
        "call_ms_p50": scaled["call"] * 1e3,
        "answer_ms": scaled["answer"] * 1e3,
        "cli_ms": scaled["cli"] * 1e3,
        "setup_s": scaled["setup"],
    }
    details = {
        "call_ms_p90": (percentile(samples.scaled("call"), 90) * 1e3, "ms"),
        "wall.throughput_per_s": (units / wall_unit_s if wall_unit_s else 0.0, "1/s"),
        "wall.call_ms_p50": (wall["call"] * 1e3, "ms"),
        "wall.call_ms_p90": (percentile(samples.wall("call"), 90) * 1e3, "ms"),
        "wall.answer_ms": (wall["answer"] * 1e3, "ms"),
        "wall.cli_ms": (wall["cli"] * 1e3, "ms"),
        "wall.setup_s": (wall["setup"], "s"),
        "host_ref_ms": (median(refs) * 1e3, "ms"),
    }
    details |= {f"samples.{kind}": (len(samples.pairs[kind]), "count") for kind in kinds}
    return metrics, details


def loop_until(budget_s: float, min_count: int):
    """Indices 0, 1, ... until ``budget_s`` has passed and ``min_count`` are done."""
    start = perf_counter()
    i = 0
    while i < min_count or perf_counter() - start < budget_s:
        yield i
        i += 1


def call_seed(seed: int, i: int) -> int:
    return seed * 100_000 + i


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def alternate(checks: Checks, tracer: Tracer, units) -> tuple[float, float]:
    """Run each (what, fn) of ``units`` untraced, then traced.

    Returns the median traced/untraced time ratio of the pairs, and the
    seconds spent in the traced calls. Pairing each unit with itself keeps
    the host's slow spells out of the ratio.
    """
    ratios = []
    traced_s = 0.0
    for what, fn in units:
        _, untraced = checks.timed(what, fn)
        with tracer:
            _, traced = checks.timed(what, fn)
        traced_s += traced
        ratios.append(traced / untraced)
    return median(ratios), traced_s


# --- cut workloads ----------------------------------------------------------


class CutCase:
    """A cut workload's generated documents, parsed objects and exact answers."""

    def __init__(self, qc, spec, seed: int, checks: Checks) -> None:
        circuit_doc, observable_doc = cut_documents(spec, seed)
        doc_dir = OUT / "docs" / f"{spec.name}-seed{seed}"
        self.circuit_path = doc_dir / "circuit.json"
        self.observable_path = doc_dir / "observable.json"
        write_json(self.circuit_path, circuit_doc)
        write_json(self.observable_path, observable_doc)
        self.qc = qc
        self.spec = spec
        self.seed = seed
        self.checks = checks
        self.mode = qc.MeasureMode(spec.mode)
        # the API reads the same files that the CLI runs are given
        with open(self.circuit_path, encoding="utf-8") as handle:
            self.circuit = qc.circuit_from_doc(json.load(handle))
        with open(self.observable_path, encoding="utf-8") as handle:
            self.observable = qc.observable_from_doc(json.load(handle))
        cut_thetas = [self.circuit.gates[i].theta for i in self.circuit.cut_indices()]
        checks.check(
            len(cut_thetas) == len(spec.cuts),
            f"parsed circuit has {len(cut_thetas)} cuts, spec names {len(spec.cuts)}",
        )
        self.exact = qc.exact_expectation(self.circuit, self.observable)
        self.w_expected = prod(qc.weight_formula(qc.pauli_coefficients(t)) for t in cut_thetas)
        self.terms_per_cut = statistics.mean(
            qc.decompose(qc.pauli_coefficients(t)).num_terms for t in cut_thetas
        )
        self.eps_shots = qc.plan_shots(spec.epsilon, DELTA, self.observable.o_max, self.w_expected)

    def fixed_call(self, i: int):
        """A fixed-shot ``estimate`` call as a thunk, for ``Checks.timed``."""
        qc = self.qc
        config = qc.EstimatorConfig(
            shots=self.spec.shots_per_call, seed=call_seed(self.seed, i), mode=self.mode
        )
        return lambda: qc.estimate(self.circuit, self.observable, config)

    def eps_call(self, i: int):
        """An accuracy-targeted ``estimate`` call: its shots come from plan_shots."""
        qc = self.qc
        config = qc.EstimatorConfig(
            epsilon=self.spec.epsilon,
            delta=DELTA,
            seed=call_seed(self.seed, 50_000 + i),
            mode=self.mode,
        )
        return lambda: qc.estimate(self.circuit, self.observable, config)

    def check_estimate(self, result, shots: int, tolerance: float, what: str) -> None:
        checks = self.checks
        checks.check(result.shots == shots, f"{what}: {result.shots} shots, expected {shots}")
        checks.check(
            abs(result.w_total - self.w_expected) <= 1e-12 * self.w_expected,
            f"{what}: W_total {result.w_total} != prod weight_formula {self.w_expected}",
        )
        checks.check(
            abs(result.mean - self.exact) <= tolerance,
            f"{what}: mean {result.mean} vs exact {self.exact}, tolerance {tolerance}",
        )

    def check_fixed(self, result, what: str) -> None:
        self.check_estimate(result, self.spec.shots_per_call, K_SIGMA * result.std_error, what)

    def check_eps(self, result, what: str) -> None:
        self.check_estimate(result, self.eps_shots, self.spec.epsilon, what)

    def cli_args(self) -> list[str]:
        return [
            "estimate",
            "--circuit", str(self.circuit_path),
            "--observable", str(self.observable_path),
            "--shots", str(self.spec.cli_shots),
            "--seed", str(self.seed),
            "--mode", self.spec.mode,
        ]  # fmt: skip

    def check_cli_doc(self, text: str, what: str) -> None:
        try:
            doc = json.loads(text)
            mean, std_error, w_total, exact, shots = (
                doc["mean"], doc["std_error"], doc["W_total"], doc["exact"], doc["shots"]
            )  # fmt: skip
        except (ValueError, KeyError, TypeError) as exc:
            self.checks.fail(f"{what}: unreadable output ({exc})")
            return
        self.checks.check(shots == self.spec.cli_shots, f"{what}: {shots} shots")
        self.checks.check(
            abs(exact - self.exact) <= 1e-12, f"{what}: exact {exact} != {self.exact}"
        )
        self.checks.check(
            abs(w_total - self.w_expected) <= 1e-12 * self.w_expected,
            f"{what}: W_total {w_total} != {self.w_expected}",
        )
        self.checks.check(
            abs(mean - self.exact) <= K_SIGMA * std_error,
            f"{what}: mean {mean} vs exact {self.exact} beyond {K_SIGMA} std_error {std_error}",
        )


def cut_e2e(
    qc, spec, seed: int, seconds: float, tiny: bool, checks: Checks
) -> tuple[dict, dict, Samples]:
    case = CutCase(qc, spec, seed, checks)
    setup_args = ["setup-cut", str(case.circuit_path), str(case.observable_path), spec.mode]
    checks.timed("warm-up estimate", case.fixed_call(-1))

    samples = Samples(checks)
    pooled: list[tuple[float, float, int]] = []
    reference = None
    # Rounds interleave every kind of sample, so each metric spans the whole run.
    for r in loop_until(seconds, 1 if tiny else MIN_ROUNDS["cut"]):
        for i in range(r * ROUND_CALLS, (r + 1) * ROUND_CALLS):
            result = samples.timed("call", "estimate", case.fixed_call(i))
            if result is not None:
                pooled.append((result.mean, result.std_error, result.shots))
                case.check_fixed(result, f"estimate #{i}")
        for i in range(r * ROUND_ANSWERS, (r + 1) * ROUND_ANSWERS):
            result = samples.timed("answer", "estimate(epsilon)", case.eps_call(i))
            if result is not None:
                case.check_eps(result, f"estimate(epsilon) #{i}")
        for _ in range(ROUND_CLI):
            reference = cli_sample(checks, case, samples, reference)
        setup_sample(checks, setup_args, samples)

    # all fixed-shot calls together: a bias too small for one call shows here
    total_shots = sum(n for _, _, n in pooled)
    if pooled:
        pooled_mean = sum(m * n for m, _, n in pooled) / total_shots
        pooled_se = sum((s * n) ** 2 for _, s, n in pooled) ** 0.5 / total_shots
        checks.check(
            abs(pooled_mean - case.exact) <= K_SIGMA * pooled_se,
            f"pooled mean {pooled_mean} vs exact {case.exact} beyond {K_SIGMA} x {pooled_se}",
        )
    metrics, details = e2e_metrics(samples, "call", spec.shots_per_call)
    # the same samples under the names the workload's users know them by
    details |= {
        "shots_per_s": (metrics["throughput_per_s"], "1/s"),
        "time_to_eps_ms": (metrics["answer_ms"], "ms"),
        "shots_per_call": (spec.shots_per_call, "count"),
        "eps_shots": (case.eps_shots, "count"),
        "w_total": (case.w_expected, "1"),
        "exact": (case.exact, "1"),
    }
    return metrics, details, samples


def cut_trace(qc, cli, spec, seed: int, tiny: bool, checks: Checks):
    case = CutCase(qc, spec, seed, checks)
    import_s = probe_seconds(checks, ["import-cli"], 1 if tiny else IMPORT_REPEATS)
    calls = 2 if tiny else spec.trace_calls
    checks.timed("warm-up estimate", case.fixed_call(-1))

    results: list = []

    def unit(i: int):
        def run():
            result = case.fixed_call(i)()
            results.append(result)
            return result

        return f"estimate #{i}", run

    tracer = Tracer()
    overhead, section_s = alternate(checks, tracer, [unit(i) for i in range(calls)])
    for i, result in enumerate(results):
        case.check_fixed(result, f"estimate #{i // 2} ({'traced' if i % 2 else 'untraced'})")
    for i in range(0, len(results) - 1, 2):
        checks.check(
            results[i] == results[i + 1], f"traced estimate #{i // 2} differs from untraced"
        )

    with tracer:
        start = perf_counter()
        exact, _ = checks.timed(
            "exact_expectation", qc.exact_expectation, case.circuit, case.observable
        )
        checks.check(exact == case.exact, f"traced exact_expectation {exact} != {case.exact}")
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code, _ = checks.timed("cli.main estimate", cli.main, case.cli_args())
        checks.check(code == 0, f"cli.main estimate returned {code}")
        case.check_cli_doc(buffer.getvalue(), "cli.main estimate")
        section_s += perf_counter() - start

    context = {
        "shots": calls * spec.shots_per_call + spec.cli_shots,
        "width": spec.width,
        "w_total": case.w_expected,
        "terms_per_cut": case.terms_per_cut,
        "import_s": median(import_s),
        "overhead_ratio": overhead,
        "section_s": section_s,
    }
    return tracer, context


# --- verification workload --------------------------------------------------


class VerifyCase:
    """Seeded tetrahedron points and the realize inputs of verify_survey."""

    def __init__(self, qc, spec, seed: int, count: int, checks: Checks) -> None:
        self.points_path = OUT / "docs" / f"{spec.name}-seed{seed}" / "points.json"
        write_json(self.points_path, tetrahedron_points(spec.points, seed))
        with open(self.points_path, encoding="utf-8") as handle:
            self.points = json.load(handle)[:count]
        self.qc = qc
        self.spec = spec
        self.checks = checks
        self.pairs = [
            (channel, qc.QuantumState.pure(vec))
            for channel in qc.ALL_CHANNELS
            for vec in CARDINAL_STATES
        ]

    def verify_point(self, theta) -> tuple[float, float, float, object]:
        """Direct and legacy reconstruction deviations, legacy cost, decomposition."""
        qc = self.qc
        u = qc.pauli_coefficients(theta)
        direct = qc.decompose(u)
        target = qc.ptm_of_unitary(qc.canonical_unitary(theta), 2)
        dev = float(abs(qc.reconstruct_ptm(direct) - target).max())
        legacy, cost = qc.legacy_decompose(theta)
        dev_legacy = float(abs(qc.reconstruct_ptm(legacy) - target).max())
        return dev, dev_legacy, cost, direct

    def check_point(self, theta, outcome) -> None:
        dev, dev_legacy, cost, direct = outcome
        checks = self.checks
        checks.check(dev < VERIFY_TOL, f"theta {theta}: direct deviation {dev}")
        checks.check(dev_legacy < VERIFY_TOL, f"theta {theta}: legacy deviation {dev_legacy}")
        checks.check(
            cost >= direct.weight - 1e-12, f"theta {theta}: legacy {cost} < W {direct.weight}"
        )
        w = self.qc.weight_formula(self.qc.pauli_coefficients(theta))
        checks.check(
            abs(direct.weight - w) <= 1e-12 * w, f"theta {theta}: W {direct.weight} != {w}"
        )

    def realize_round(self, rng) -> list:
        return [self.qc.realize(channel, state, rng) for channel, state in self.pairs]

    def check_realize_means(self, rounds: list) -> None:
        """Per (channel, state), the mean of weight x |v><v| matches the exact action."""
        import numpy as np

        if len(rounds) < 2:
            return
        vectors = np.array([[o.state.vector for o in outs] for outs in rounds])
        weights = np.array([[o.weight for o in outs] for outs in rounds])
        samples = weights[:, :, None, None] * vectors[:, :, :, None] * vectors.conj()[:, :, None, :]
        mean = samples.mean(axis=0)
        n = samples.shape[0]
        for k, (channel, state) in enumerate(self.pairs):
            target = self.qc.local_basis.channel_action(channel, state.density_matrix())
            for part in (np.real, np.imag):
                sem = part(samples[:, k]).std(axis=0, ddof=1) / np.sqrt(n)
                dev = np.abs(part(mean[k]) - part(target))
                self.checks.check(
                    bool(np.all(dev <= K_SIGMA * sem + 1e-12)),
                    f"realize {channel} mean deviates by {dev.max()} ({n} rounds)",
                )

    def survey(self):
        rows = self.qc.sweep(self.spec.sweep_points)
        theta_max, w_max = self.qc.find_max_w()
        return rows, theta_max, w_max

    def check_survey(self, rows, theta_max, w_max) -> None:
        checks = self.checks
        landmarks = {(0.0, 0.0, 0.0): 1.0, (pi / 4, 0.0, 0.0): 3.0, (pi / 4, pi / 4, pi / 4): 7.0}
        found = {}
        for row in rows:
            key = (row.theta1, row.theta2, row.theta3)
            if key in landmarks:
                found[key] = row.w
            checks.check(
                row.g <= row.w + 1e-12 and row.w <= row.legacy + 1e-12,
                f"sweep row {key}: G {row.g}, W {row.w}, legacy {row.legacy} out of order",
            )
        for key, w in landmarks.items():
            checks.check(
                abs(found.get(key, -1.0) - w) < 1e-12,
                f"landmark {key}: W {found.get(key)}, expected {w}",
            )
        checks.check(
            abs(w_max - W_MAX) < W_MAX_TOL, f"find_max_w: W {w_max}, expected about {W_MAX}"
        )
        checks.check(
            abs(theta_max.theta1 - pi / 4) < 1e-3, f"find_max_w: theta1 {theta_max.theta1}"
        )

    def cli_args(self) -> list[str]:
        return ["verify", *(repr(t) for t in self.points[0])]

    def check_cli_doc(self, text: str, what: str) -> None:
        try:
            doc = json.loads(text)
            ok, dev = doc["ok"], doc["max_abs_deviation"]
        except (ValueError, KeyError, TypeError) as exc:
            self.checks.fail(f"{what}: unreadable output ({exc})")
            return
        self.checks.check(ok is True and dev < VERIFY_TOL, f"{what}: ok {ok}, deviation {dev}")


def verify_e2e(
    qc, spec, seed: int, seconds: float, tiny: bool, checks: Checks
) -> tuple[dict, dict, Samples]:
    import numpy as np

    case = VerifyCase(qc, spec, seed, spec.points, checks)
    setup_args = ["setup-verify", str(case.points_path)]
    checks.timed("warm-up verify", case.verify_point, case.points[0])
    rng = np.random.default_rng([seed, 11])
    checks.timed("warm-up realize", case.realize_round, rng)

    samples = Samples(checks)
    rounds: list = []
    reference = None
    # Rounds interleave every kind of sample, so each metric spans the whole run.
    for r in loop_until(seconds, 1 if tiny else MIN_ROUNDS["verify"]):
        for i in range(r * VERIFY_ROUND_UNITS, (r + 1) * VERIFY_ROUND_UNITS):
            theta = case.points[i % len(case.points)]
            outcome = samples.timed("point", "verify point", case.verify_point, theta)
            if outcome is not None:
                case.check_point(theta, outcome)
            outs = samples.timed("call", "realize round", case.realize_round, rng)
            if outs is not None:
                rounds.append(outs)
        outcome = samples.timed("answer", "survey", case.survey)
        if outcome is not None:
            case.check_survey(*outcome)
        for _ in range(ROUND_CLI):
            reference = cli_sample(checks, case, samples, reference)
        setup_sample(checks, setup_args, samples)
    case.check_realize_means(rounds)

    metrics, details = e2e_metrics(samples, "point", 1)
    realize_s = metrics["call_ms_p50"] / 1e3
    # the same samples under the names the workload's users know them by
    details |= {
        "verify_points_per_s": (metrics["throughput_per_s"], "1/s"),
        "realize_per_s": (len(case.pairs) / realize_s if realize_s else 0.0, "1/s"),
        "survey_s": (metrics["answer_ms"] / 1e3, "s"),
    }
    return metrics, details, samples


def verify_trace(qc, cli, spec, seed: int, tiny: bool, checks: Checks):
    import numpy as np

    points = 5 if tiny else spec.trace_points
    rounds = 10 if tiny else spec.trace_rounds
    case = VerifyCase(qc, spec, seed, points, checks)
    import_s = probe_seconds(checks, ["import-cli"], 1 if tiny else IMPORT_REPEATS)
    checks.timed("warm-up verify", case.verify_point, case.points[0])

    outcomes: list = []
    rng = np.random.default_rng([seed, 11])

    def point(theta):
        def run():
            outcome = case.verify_point(theta)
            outcomes.append((theta, outcome))
            return outcome

        return "verify point", run

    tracer = Tracer()
    realize = ("realize round", lambda: case.realize_round(rng))
    units = [point(theta) for theta in case.points] + [realize] * rounds
    overhead, section_s = alternate(checks, tracer, units)
    for theta, outcome in outcomes:
        case.check_point(theta, outcome)

    with tracer:
        start = perf_counter()
        outcome, _ = checks.timed("survey", case.survey)
        if outcome is not None:
            case.check_survey(*outcome)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code, _ = checks.timed("cli.main verify", cli.main, case.cli_args())
        checks.check(code == 0, f"cli.main verify returned {code}")
        case.check_cli_doc(buffer.getvalue(), "cli.main verify")
        section_s += perf_counter() - start

    context = {
        "shots": 0,
        "width": 0,
        "w_total": 0.0,
        "terms_per_cut": 0.0,
        "import_s": median(import_s),
        "overhead_ratio": overhead,
        "section_s": section_s,
    }
    return tracer, context


# --- per-layer metrics --------------------------------------------------------


def layer_metrics(summary: dict, context: dict) -> dict[str, float]:
    """The LAYER_METRICS values from a tracer summary; absent layers read 0."""
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def row(name: str) -> dict:
        return summary.get(name, empty)

    shots = context["shots"]

    def per_shot(value: float) -> float:
        return value / shots if shots else 0.0

    def per_call(name: str, field: str, scale: float) -> float:
        r = row(name)
        return r[field] / r["calls"] * scale if r["calls"] else 0.0

    gate_calls = row("circuit.apply_gate")["calls"]
    stream_busy = (
        row("sampler.ShotStream.__init__")["busy_s"] + row("sampler.ShotStream.random")["busy_s"]
    )
    return {
        "sampler.run_shot.calls": row("sampler.run_shot")["calls"],
        "sampler.run_shot.self_us": per_shot(row("sampler.run_shot")["self_s"] * 1e6),
        "sampler.ShotStream.draws_per_shot": per_shot(row("sampler.ShotStream.random")["calls"]),
        "sampler.ShotStream.busy_us": per_shot(stream_busy * 1e6),
        "sampler.estimate.self_ms": per_call("sampler.estimate", "self_s", 1e3),
        "circuit.apply_gate.calls_per_shot": per_shot(gate_calls),
        "circuit.apply_gate.busy_us": per_shot(row("circuit.apply_gate")["busy_s"] * 1e6),
        # computed, not measured: one read and one write of the complex128 state
        "circuit.apply_gate.bytes_per_shot": per_shot(gate_calls * 2 * 16 * 2 ** context["width"]),
        "circuit.apply_1q.calls_per_shot": per_shot(row("circuit.apply_1q")["calls"]),
        "circuit.apply_1q.busy_us": per_shot(row("circuit.apply_1q")["busy_s"] * 1e6),
        "circuit.observable.busy_us": per_shot(row("circuit.observable")["busy_s"] * 1e6),
        "circuit.exact_expectation.busy_ms": per_call("circuit.exact_expectation", "busy_s", 1e3),
        "decomposition.decompose.busy_us": per_call("decomposition.decompose", "busy_s", 1e6),
        "canonical.pauli_coefficients.busy_us": per_call(
            "canonical.pauli_coefficients", "busy_s", 1e6
        ),
        "decomposition.w_total": context["w_total"],
        "decomposition.terms_per_cut": context["terms_per_cut"],
        "decomposition.reconstruct_ptm.busy_us": per_call(
            "decomposition.reconstruct_ptm", "busy_s", 1e6
        ),
        "local_basis.realize.calls": row("local_basis.realize")["calls"],
        "local_basis.realize.busy_us": per_call("local_basis.realize", "busy_s", 1e6),
        "algebra.ptm_of_unitary.busy_us": per_call("algebra.ptm_of_unitary", "busy_s", 1e6),
        "analysis.weight_formula.calls": row("analysis.weight_formula")["calls"],
        "analysis.sweep.busy_s": per_call("analysis.sweep", "busy_s", 1.0),
        "analysis.find_max_w.busy_s": per_call("analysis.find_max_w", "busy_s", 1.0),
        "cli.import_ms": context["import_s"] * 1e3,
        "cli.main.busy_ms": per_call("cli.main", "busy_s", 1e3),
        # traced over untraced time of the same calls, that is untraced over
        # traced shots_per_s
        "trace.overhead_ratio": context["overhead_ratio"],
        # share of the traced wall time that the spans' self times cover
        "trace.accounted_ratio": sum(r["self_s"] for r in summary.values()) / context["section_s"],
    }


# --- environment and entry point ---------------------------------------------


def commit_id() -> str | None:
    """HEAD of a git checkout, read from files (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, naming the code when there is no commit."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        "commit": commit_id(),
        "src_sha256": source_digest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="minimal sizes, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "quasicut" / "__init__.py").is_file():
        print(f"error: no quasicut package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    # One processor for this process and every process it starts, so that the
    # reference loop times the processor the CLI and set-up processes run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    sys.path.insert(0, str(SRC))
    import quasicut as qc
    import quasicut.cli as cli

    env = environment()
    checks = Checks()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    cut_spec = CUT_SPECS.get(args.workload)
    layer_summary = samples = None
    if args.trace == 0:
        if cut_spec is not None:
            metrics, details, samples = cut_e2e(
                qc, cut_spec, args.seed, args.seconds, args.tiny, checks
            )
        else:
            metrics, details, samples = verify_e2e(
                qc, VERIFY_SPEC, args.seed, args.seconds, args.tiny, checks
            )
        units = E2E_METRICS
    else:
        if cut_spec is not None:
            tracer, context = cut_trace(qc, cli, cut_spec, args.seed, args.tiny, checks)
        else:
            tracer, context = verify_trace(qc, cli, VERIFY_SPEC, args.seed, args.tiny, checks)
        layer_summary = tracer.summary()
        metrics = layer_metrics(layer_summary, context)
        details = {"absent_call_sites": (len(tracer.absent), "count")}
        units = LAYER_METRICS
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
        for site in tracer.absent:
            print(f"absent call site {site}")
        for name, r in sorted(layer_summary.items(), key=lambda item: -item[1]["self_s"]):
            print(
                f"span {name:38s} calls {r['calls']:>9} "
                f"busy_s {r['busy_s']:.6f} self_s {r['self_s']:.6f}"
            )
    env["loadavg_end"] = list(os.getloadavg())
    failed_ratio = checks.failed / checks.attempted if checks.attempted else 1.0
    details["failed_ratio"] = (failed_ratio, "ratio")

    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]!r} {unit}")
    for name, (value, unit) in details.items():
        print(f"detail {name} {value!r} {unit}")
    for message in checks.messages:
        print(f"FAILED {message}")
    result_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    write_json(
        OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {
            "args": vars(args),
            "env": env,
            "metrics": result_metrics,
            "details": {name: {"value": v, "unit": u} for name, (v, u) in details.items()},
            "spans": layer_summary,
            # (seconds, reference seconds) of every timing sample
            "samples": samples and dict(samples.pairs),
            "checks": {
                "attempted": checks.attempted,
                "failed": checks.failed,
                "messages": checks.messages,
            },
        },
    )
    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": result_metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
