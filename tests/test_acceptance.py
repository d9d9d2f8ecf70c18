"""Acceptance checks, one per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion. Several checks are statistical; their shot counts and bands
are chosen so a correct implementation fails with negligible probability.
"""

import json
import subprocess
import sys
import time

import numpy as np

from quasicut.algebra import QuantumState, ptm_of_unitary
from quasicut.analysis import compare_costs, find_max_w
from quasicut.canonical import ThetaVector, canonical_unitary, pauli_coefficients
from quasicut.circuit import CanonicalGate, Circuit, Observable, SingleGate
from quasicut.decomposition import compose, decompose, legacy_decompose, reconstruct_ptm
from quasicut.local_basis import (
    ALL_CHANNELS,
    EFFECT,
    EFFECTS,
    KRAUS,
    OUTCOMES,
    WEIGHTS,
    channel_action,
)
from quasicut.sampler import EstimatorConfig, MeasureMode, estimate

PI = np.pi
ZZ = Observable(((1.0, "ZZ"),))


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def random_tetrahedron_angles(rng):
    t = np.sort(rng.uniform(0.0, PI / 4.0, size=3))[::-1]
    return ThetaVector(*t)


def test_criterion_1_reconstruction_identity():
    """Reconstructed PTMs match the exact gate PTM for 100 random angles."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        theta = random_tetrahedron_angles(rng)
        target = ptm_of_unitary(canonical_unitary(theta), 2)
        rebuilt = reconstruct_ptm(decompose(pauli_coefficients(theta)))
        worst = max(worst, float(np.max(np.abs(rebuilt - target))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    report(
        1,
        "PTM identity",
        ok,
        f"max deviation {worst:.3e} over 100 random gates in {elapsed:.2f}s",
    )


def test_criterion_2_landmark_weights():
    """Weights at the identity, CNOT-class, and swap-class points."""
    w_id = decompose(pauli_coefficients(ThetaVector(0, 0, 0))).weight
    w_cnot = decompose(pauli_coefficients(ThetaVector(PI / 4, 0, 0))).weight
    w_swap = decompose(pauli_coefficients(ThetaVector(PI / 4, PI / 4, PI / 4))).weight
    _, legacy_swap = legacy_decompose(ThetaVector(PI / 4, PI / 4, PI / 4))
    ok = (
        w_id == 1.0
        and abs(w_cnot - 3.0) < 1e-12
        and abs(w_swap - 7.0) < 1e-12
        and abs(legacy_swap - 27.0) < 1e-12
    )
    report(
        2,
        "landmark weights",
        ok,
        f"W(identity)={w_id}, W(cnot)={w_cnot:.12f}, "
        f"W(swap)={w_swap:.12f}, legacy(swap)={legacy_swap:.12f}",
    )


def test_criterion_3_weight_maximum():
    """The interior weight maximum and its location."""
    start = time.perf_counter()
    theta, w = find_max_w()
    elapsed = time.perf_counter() - start
    ok = (
        8.85 <= w <= 8.89
        and abs(theta.theta1 - PI / 4) < 1e-3
        and abs(theta.theta2 - 0.2017 * PI) < 0.01 * PI
        and abs(theta.theta3 - 0.1363 * PI) < 0.01 * PI
        and elapsed < 60.0
    )
    report(
        3,
        "weight maximum",
        ok,
        f"W*={w:.4f} at ({theta.theta1 / PI:.4f}, {theta.theta2 / PI:.4f}, "
        f"{theta.theta3 / PI:.4f}) pi in {elapsed:.1f}s",
    )


def test_criterion_4_unbiased_cut_estimates():
    """Cut Bell-pair estimates stay within 0.05 of truth for 19/20 seeds."""
    circuit = Circuit(2, (CanonicalGate((0, 1), ThetaVector(PI / 4, 0, 0), cut=True),))
    hits = 0
    worst = 0.0
    for seed in range(20):
        result = estimate(circuit, ZZ, EstimatorConfig(shots=100_000, seed=seed))
        err = abs(result.mean - 1.0)
        worst = max(worst, err)
        hits += err < 0.05
    ok = hits >= 19
    report(
        4,
        "unbiased estimates",
        ok,
        f"{hits}/20 seeds within 0.05 at 1e5 shots (worst error {worst:.4f})",
    )


def test_criterion_5_sampling_overhead():
    """Cutting multiplies the sampling variance by about W^2 = 9."""
    prelude = SingleGate(0, (0.0, 1.0, 0.0), PI / 4)  # makes <ZZ> = 0
    gate = ThetaVector(PI / 4, 0, 0)
    cut = Circuit(2, (prelude, CanonicalGate((0, 1), gate, cut=True)))
    uncut = Circuit(2, (prelude, CanonicalGate((0, 1), gate, cut=False)))
    shots = 1_000_000
    results = {}
    for label, circuit in (("cut", cut), ("uncut", uncut)):
        r = estimate(
            circuit,
            ZZ,
            EstimatorConfig(shots=shots, seed=17, mode=MeasureMode.EIGENVALUE_SAMPLE),
        )
        results[label] = (r.std_error * np.sqrt(shots)) ** 2  # per-shot variance
    ratio = results["cut"] / results["uncut"]
    ok = 4.5 <= ratio <= 13.5
    report(
        5,
        "sampling overhead",
        ok,
        f"per-shot variance {results['cut']:.3f} cut vs {results['uncut']:.3f} uncut, "
        f"ratio {ratio:.2f} (W^2 = 9)",
    )


def test_criterion_6_cost_ordering():
    """G <= W <= legacy across the tetrahedron, strict where it must be."""
    vals = np.linspace(0.0, PI / 4.0, 20)
    checked = 0
    ok = True
    for i1 in range(20):
        for i2 in range(i1 + 1):
            for i3 in range(i2 + 1):
                t = (vals[i1], vals[i2], vals[i3])
                row = compare_costs(t)
                checked += 1
                if not (row.g <= row.w + 1e-10 and row.w <= row.legacy + 1e-10):
                    ok = False
                nonzero = sum(1 for x in t if x > 0.0)
                if nonzero <= 1 and abs(row.w - row.legacy) > 1e-10:
                    ok = False  # single-axis points must agree exactly
                if nonzero >= 2 and row.legacy - row.w < 1e-6:
                    ok = False  # multi-axis points must be strictly cheaper
    report(6, "cost ordering", ok, f"G <= W <= legacy on {checked} lattice points")


def test_criterion_7_composition():
    """Composed decompositions: exact weight product, exact channel product."""
    rng = np.random.default_rng(107)
    worst = 0.0
    exact_products = True
    for _ in range(20):
        d1 = decompose(pauli_coefficients(random_tetrahedron_angles(rng)))
        d2 = decompose(pauli_coefficients(random_tetrahedron_angles(rng)))
        combined = compose(d2, d1)
        if combined.weight != d2.weight * d1.weight:
            exact_products = False
        dev = float(
            np.max(np.abs(reconstruct_ptm(combined) - reconstruct_ptm(d2) @ reconstruct_ptm(d1)))
        )
        worst = max(worst, dev)
    ok = exact_products and worst < 1e-9
    report(
        7,
        "composition",
        ok,
        f"20 random pairs: weights exact={exact_products}, max PTM deviation {worst:.3e}",
    )


CARDINAL_STATES = {
    "z+": np.array([1.0, 0.0], dtype=complex),
    "z-": np.array([0.0, 1.0], dtype=complex),
    "x+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "x-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    "y+": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    "y-": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
}


def test_criterion_8_channel_realizations():
    """Sampled weight x density means reproduce every channel on every axis state.

    Each cell runs its 1e5 samples through the channel's outcome table, its
    row of the ``local_basis`` arrays. A table of two outcomes takes one
    draw, so drawing all of a cell's uniforms at once takes the generator's
    values in the order ``realize`` called in a loop would, and picks the
    same outcomes: outcome 1 iff the draw is >= t_0 / (t_0 + t_1), where
    t_o = <v|E_o|v> for the effect E_o of outcome o (exactly 1/2 for a
    coin), with the post state K_o v / sqrt(t_o).
    """
    shots = 100_000
    rng = np.random.default_rng(108)
    worst_sigma = 0.0
    ok = True
    for channel in ALL_CHANNELS:
        c = channel.value
        k = OUTCOMES[c] - 1
        kraus, effects = KRAUS[c, : k + 1], EFFECTS[EFFECT[c, : k + 1]]
        for name, vec in CARDINAL_STATES.items():
            state = QuantumState.pure(vec)
            target = channel_action(channel, state.density_matrix())
            u = rng.random((shots, k)) if k else np.empty((shots, 0))
            t = np.array([np.vdot(vec, e @ vec).real for e in effects])
            outcome = np.zeros(shots, dtype=int)
            if k:
                outcome = (u[:, 0] >= t[0] / (t[0] + t[1])).astype(int)
            posts = np.einsum("oij,j->oi", kraus, vec)
            # only reached outcomes: an eigenstate's other outcome has trace 0
            reached = np.unique(outcome)
            posts[reached] /= np.sqrt(t[reached])[:, None]
            vectors = posts[outcome]
            weights = WEIGHTS[c, outcome]
            samples = weights[:, None, None] * (
                vectors[:, :, None] * vectors.conj()[:, None, :]
            )
            mean = samples.mean(axis=0)
            for part in (np.real, np.imag):
                dev = np.abs(part(mean) - part(target))
                sem = part(samples).std(axis=0, ddof=1) / np.sqrt(shots)
                if not np.all(dev <= 5.0 * sem + 1e-12):
                    ok = False
                # deterministic entries have sem ~ 0; skip them in the report
                noisy = sem > 1e-9
                if np.any(noisy):
                    worst_sigma = max(worst_sigma, float(np.max(dev[noisy] / sem[noisy])))
    report(
        8,
        "channel realizations",
        ok,
        f"16 channels x 6 states x 1e5 samples, worst deviation {worst_sigma:.2f} sigma",
    )


def test_criterion_9_reproducible_cli(tmp_path):
    """Identical bytes from repeated runs and across worker counts."""
    circuit_doc = {
        "format": 1,
        "qubits": 2,
        "gates": [
            {"type": "single", "q": 0, "axis": [0.0, 1.0, 0.0], "theta": 0.3},
            {
                "type": "canonical",
                "qs": [0, 1],
                "theta": [PI / 4, 0.0, 0.0],
                "cut": True,
            },
        ],
    }
    observable_doc = {"format": 1, "terms": [{"coeff": 1.0, "pauli": "ZZ"}]}
    circuit_path = tmp_path / "circuit.json"
    observable_path = tmp_path / "observable.json"
    circuit_path.write_text(json.dumps(circuit_doc), encoding="utf-8")
    observable_path.write_text(json.dumps(observable_doc), encoding="utf-8")

    def run():
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "quasicut.cli",
                "estimate",
                "--circuit",
                str(circuit_path),
                "--observable",
                str(observable_path),
                "--shots",
                "5000",
                "--seed",
                "0",
                "--mode",
                "sample",
            ],
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    outputs = [run(), run(), run()]
    identical = all(o == outputs[0] for o in outputs[1:])
    doc = json.loads(outputs[0])
    sane = doc["seed"] == 0 and doc["shots"] == 5000
    ok = identical and sane
    report(
        9,
        "reproducible CLI",
        ok,
        f"3 runs byte-identical={identical}, mean={doc['mean']:.4f}",
    )
