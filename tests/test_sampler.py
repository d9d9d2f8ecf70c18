"""Shot streams, shot planning, and the Monte-Carlo estimator."""

import dataclasses
import hashlib
import importlib.util
import math
import sys
import threading
import tracemalloc
import warnings
from bisect import bisect_right
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from programs import Coin, Unitary, realization_program, run_program
from quasicut import sampler as sampler_module
from quasicut.canonical import ThetaVector, pauli_coefficients
from quasicut.circuit import (
    CanonicalGate,
    Circuit,
    Observable,
    Raw1QGate,
    Raw2QGate,
    SingleGate,
    apply_1q,
    apply_gate,
    exact_expectation,
    initial_state,
    observable_expectation,
    pauli_string_expectation,
    statevector,
)
from quasicut.documents import circuit_from_doc, observable_from_doc
from quasicut.decomposition import QPDecomposition, QPTerm, decompose, weight_formula
from quasicut.local_basis import EFFECT, KRAUS, OUTCOMES, WEIGHTS
from quasicut.sampler import (
    MAX_SHOTS,
    EstimatorConfig,
    EstimatorResult,
    MeasureMode,
    ShotStream,
    estimate,
    plan_shots,
    run_shot,
)

PI = np.pi
Y_AXIS = (0.0, 1.0, 0.0)
ZZ = Observable(((1.0, "ZZ"),))


def bell_cut():
    return Circuit(2, (CanonicalGate((0, 1), ThetaVector(PI / 4, 0, 0), cut=True),))


def cut_decomps(circuit):
    return {
        i: decompose(pauli_coefficients(circuit.gates[i].theta))
        for i in circuit.cut_indices()
    }


# --- the per-shot uniform stream -------------------------------------------


STREAM_VECTORS = {
    (0, 0): [0.9842662630054383, 0.4810675235469609, 0.27087378597346307],
    (0, 1): [0.673402130022449, 0.9189719182774073, 0.0492830359755241],
    (1, 0): [0.7973592622286348, 0.3821553565057847, 0.18725774823101382],
    (12345, 678910): [0.6884496423020805, 0.4560483262680289, 0.0790196289822626],
}


def test_stream_regression_vectors():
    """First draws for fixed keys; any change here breaks reproducibility."""
    for (seed, shot), draws in STREAM_VECTORS.items():
        stream = ShotStream(seed, shot)
        assert [stream.random() for _ in range(3)] == draws


def test_stream_is_reproducible_and_distinct():
    a = [ShotStream(3, 17).random() for _ in range(5)]
    b = [ShotStream(3, 17).random() for _ in range(5)]
    assert a == b
    c = [ShotStream(3, 18).random() for _ in range(5)]
    assert a != c


def test_adjacent_shots_do_not_share_a_stream():
    # shot s+1 must not replay shot s shifted by one draw
    first = [ShotStream(0, 100).random() for _ in range(6)]
    second = [ShotStream(0, 101).random() for _ in range(6)]
    assert first[1:] != second[:-1]


NOT_STREAM_KEYS = [("1", 0), (1.5, 0), (True, 0), (0, "1"), (0, 1.5), (0, True)]


@pytest.mark.parametrize("seed, shot_index", NOT_STREAM_KEYS)
def test_stream_rejects_a_key_that_is_not_an_integer(seed, shot_index):
    """A string, a float or a bool is no stream key, as in ``run_shot``."""
    with pytest.raises(ValueError, match="must be an integer"):
        ShotStream(seed, shot_index)


def test_stream_is_roughly_uniform():
    stream = ShotStream(2, 0)
    draws = np.array([stream.random() for _ in range(20000)])
    assert draws.min() >= 0.0 and draws.max() < 1.0
    assert abs(draws.mean() - 0.5) < 0.02
    assert abs(np.mean(draws < 0.25) - 0.25) < 0.02


def _unshift_right(y: int, k: int) -> int:
    """Invert y = x ^ (x >> k) on 64-bit words."""
    x = y
    for _ in range(64 // k + 1):
        x = y ^ (x >> k)
    return x


def state_before_the_largest_output():
    """The stream state whose next draw outputs 2**64 - 1.

    Walks the SplitMix64 finalizer back from that output, whose quotient by
    2**64 rounds to 1.0 in double precision.
    """
    mask = (1 << 64) - 1
    z = _unshift_right(mask, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & mask
    z = _unshift_right(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & mask
    z = _unshift_right(z, 30)
    return (z - sampler_module._GAMMA) & mask


def test_stream_random_stays_below_one():
    stream = ShotStream(0, 0)
    stream._z = state_before_the_largest_output()
    assert stream.random() < 1.0


# --- the numpy port of the stream, one draw per stream start state --------


def stream_starts(seed, first, count):
    """The start states of the streams of shots ``first`` .. ``first + count - 1``."""
    return sampler_module._stream_start(seed, np.arange(first, first + count, dtype=np.uint64))


def test_stream_array_matches_the_pinned_vectors():
    for (seed, shot), draws in STREAM_VECTORS.items():
        start = stream_starts(seed, shot, 1)
        assert [sampler_module._draw(start, j).item() for j in range(3)] == draws
        assert sampler_module._draw(np.repeat(start, 3), np.arange(3)).tolist() == draws


def test_stream_array_clamps_the_largest_output_like_shot_stream():
    """Column 0 of one stream and column 1 of the other read the output 2**64 - 1."""
    stream = ShotStream(0, 0)
    stream._z = z = state_before_the_largest_output()
    start = np.array([z, (z - sampler_module._GAMMA) % 2**64], dtype=np.uint64)
    got = sampler_module._draw(start, np.array([0, 1])).tolist()
    assert got == [stream.random()] * 2
    assert got[0] == 1.0 - 2.0**-53


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(-(2**70), 2**70),
    last=st.integers(0, MAX_SHOTS - 1),
    count=st.integers(1, 6),
    columns=st.lists(st.integers(0, 6), min_size=6, max_size=6),
    column=st.integers(0, 6),
)
def test_stream_array_equals_shot_stream_draw_for_draw(seed, last, count, columns, column):
    """Any seed reduces mod 2**64 as the int arithmetic does.

    Each stream reads its own column in one call, and all read one column in
    another; neither call warns of a uint64 overflow.
    """
    first = max(0, last - count + 1)
    start = stream_starts(seed, first, last - first + 1)
    mixed = np.array(columns[: len(start)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        per_entry = sampler_module._draw(start, mixed).tolist()
        one_column = sampler_module._draw(start, column).tolist()
    for i in range(len(start)):
        ref = ShotStream(seed, first + i)
        draws = [ref.random() for _ in range(7)]
        assert per_entry[i] == draws[mixed[i]]
        assert one_column[i] == draws[column]


# --- shot planning ----------------------------------------------------------


def test_plan_shots_frozen_values():
    # 2 (W o/eps)^2 ln(2/delta) with delta = 2 e^-2 gives exactly 4
    assert plan_shots(1.0, 0.2706705664732254, 1.0, 1.0) == 4
    assert plan_shots(0.01, 0.05, 1.0, 7.0) == 3615102


def test_plan_shots_monotonicity():
    base = plan_shots(0.1, 0.05, 1.0, 3.0)
    assert plan_shots(0.05, 0.05, 1.0, 3.0) > base
    assert plan_shots(0.1, 0.05, 1.0, 7.0) > base
    assert plan_shots(0.1, 0.01, 1.0, 3.0) > base
    assert plan_shots(100.0, 0.5, 0.01, 1.0) == 1  # floor at one shot


def test_plan_shots_validation():
    with pytest.raises(ValueError):
        plan_shots(0.0, 0.05, 1.0, 1.0)
    with pytest.raises(ValueError):
        plan_shots(0.1, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        plan_shots(0.1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        plan_shots(0.1, 0.05, 0.0, 1.0)
    with pytest.raises(ValueError):
        plan_shots(0.1, 0.05, 1.0, 0.5)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="epsilon"):
            plan_shots(bad, 0.05, 1.0, 1.0)
        with pytest.raises(ValueError, match="o_max"):
            plan_shots(0.1, 0.05, bad, 1.0)
        with pytest.raises(ValueError, match="w_total"):
            plan_shots(0.1, 0.05, 1.0, bad)



def test_plan_shots_reads_finite_reals():
    """A bool or a numeric string is no number: ValueError naming the argument.

    A real number of another type is read as its float, so the pinned
    value stays.
    """
    names = ("epsilon", "delta", "o_max", "w_total")
    for position, name in enumerate(names):
        for bad in (True, "0.1"):
            args = [0.1, 0.05, 1.0, 1.0]
            args[position] = bad
            with pytest.raises(ValueError, match=name):
                plan_shots(*args)
    assert plan_shots(np.float64(0.01), 0.05, 1, np.float32(7.0)) == 3615102

def test_config_requires_exactly_one_target():
    with pytest.raises(ValueError):
        EstimatorConfig()
    with pytest.raises(ValueError):
        EstimatorConfig(shots=100, epsilon=0.1, delta=0.1)
    with pytest.raises(ValueError):
        EstimatorConfig(epsilon=0.1)
    with pytest.raises(ValueError):
        EstimatorConfig(shots=0)
    assert EstimatorConfig(shots=5).shots == 5
    assert EstimatorConfig(epsilon=0.1, delta=0.1).shots is None


def test_config_rejects_mistyped_shots_and_seed():
    for kwargs in (
        {"shots": 2.5},
        {"shots": True},
        {"shots": 10, "seed": 1.5},
        {"shots": 10, "seed": True},
        {"epsilon": True, "delta": 0.5},
        {"epsilon": "0.5", "delta": 0.5},
        {"epsilon": 0.5, "delta": False},
        {"epsilon": 0.5, "delta": 0.5j},
        {"epsilon": float("inf"), "delta": 0.5},
        {"epsilon": 0.5, "delta": float("nan")},
    ):
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)
    # any finite real number passes; its range is checked where shots are planned
    assert EstimatorConfig(epsilon=np.float64(0.5), delta=1).delta == 1


def test_config_reads_numpy_integers_as_ints():
    circuit = bell_cut()
    numpy_config = EstimatorConfig(shots=np.int64(40), seed=np.uint8(3))
    assert type(numpy_config.shots) is int and type(numpy_config.seed) is int
    result = estimate(circuit, ZZ, numpy_config)
    assert result.to_doc() == estimate(circuit, ZZ, EstimatorConfig(shots=40, seed=3)).to_doc()
    assert run_shot(circuit, ZZ, np.int32(3), np.int64(5)) == run_shot(circuit, ZZ, 3, 5)


def test_mode_must_be_a_measure_mode():
    # a string is not the enum member, and no estimator should guess which
    with pytest.raises(ValueError):
        EstimatorConfig(shots=200, seed=1, mode="exact")
    with pytest.raises(ValueError):
        run_shot(bell_cut(), ZZ, 0, 0, "exact")
    assert EstimatorConfig(shots=5, mode=MeasureMode("sample")).mode is MeasureMode.EIGENVALUE_SAMPLE


# --- single shots -----------------------------------------------------------


def test_run_shot_is_reproducible():
    circuit = bell_cut()
    assert run_shot(circuit, ZZ, 7, 5) == run_shot(circuit, ZZ, 7, 5)


@pytest.mark.parametrize("mode", list(MeasureMode))
def test_run_shot_is_the_estimate_shot_bit_for_bit(mode):
    shots = 40
    # 3 qubits pads stacks to an even row count; 6 and 8 pad nothing
    for n in (3, 6, 8):
        circuit, observable = oracle_instance(n, LAYOUTS["two cuts"], 2)
        plan = sampler_module._compile(circuit, observable, mode)
        x = sampler_module._walk(plan, sampler_module._Tree(plan), stream_starts(8, 0, shots))[2]
        for s in range(shots):
            assert run_shot(circuit, observable, 8, s, mode).value == x[s]


def test_run_shot_rejects_a_bad_stream_key():
    """An int seed, and a shot index that names one of the shots an estimate can run."""
    circuit = Circuit(2, ())
    for seed, shot_index in ((True, 0), (1.5, 0), (0, False), (0, 1.0), (0, -1), (0, MAX_SHOTS)):
        with pytest.raises(ValueError):
            run_shot(circuit, ZZ, seed, shot_index)
    assert run_shot(circuit, ZZ, -(2**70), MAX_SHOTS - 1).value == 1.0


def test_shot_signs_are_float_plus_or_minus_one():
    # real coefficients and +-1 program weights multiply into a +-1 sign
    circuit, observable = oracle_instance(3, LAYOUTS["two cuts"], 2)
    for mode in MeasureMode:
        plan = sampler_module._compile(circuit, observable, mode)
        sign = sampler_module._walk(plan, sampler_module._Tree(plan), stream_starts(11, 0, 200))[0]
        assert sign.dtype == np.float64
        assert sorted(set(sign.tolist())) == [-1.0, 1.0]
        assert type(run_shot(circuit, observable, 11, 0, mode).sign) is float


def test_shot_values_respect_the_bound():
    circuit = bell_cut()
    w = 3.0  # the weight of the CNOT-class cut
    for s in range(200):
        record = run_shot(circuit, ZZ, 13, s, MeasureMode.EIGENVALUE_SAMPLE)
        assert abs(record.value) <= w * ZZ.o_max + 1e-9
        # eigenvalue mode only ever produces +-W o_max
        assert record.value in (w, -w)


def scaled_identity_instance():
    """A measured cut under 1e6 * II: every exact-mode shot sits on the bound W * o_max."""
    circuit = Circuit(
        2,
        (
            SingleGate(0, Y_AXIS, 0.3),
            CanonicalGate((0, 1), ThetaVector(0.5, 0.3, 0.1), cut=True),
        ),
    )
    return circuit, Observable(((1e6, "II"),))


def test_the_bound_check_allows_the_rounding_of_renormalized_states():
    """Shots on the bound pass at any observable scale; an absolute slack would reject them."""
    circuit, observable = scaled_identity_instance()
    result = estimate(circuit, observable, EstimatorConfig(shots=50, seed=0))
    assert abs(result.mean - exact_expectation(circuit, observable)) <= 8 * result.std_error


def test_the_bound_check_fires(monkeypatch):
    """Leaf values 0.1% over o_max make shots over the bound, and the walk raises."""
    circuit, observable = scaled_identity_instance()
    monkeypatch.setattr(
        sampler_module,
        "observable_expectation",
        lambda *args: 1.001 * observable_expectation(*args),
    )
    with pytest.raises(AssertionError, match="exceeds bound"):
        estimate(circuit, observable, EstimatorConfig(shots=50, seed=0))


def test_identity_cut_is_exact_every_shot():
    circuit = Circuit(
        2,
        (
            SingleGate(0, Y_AXIS, 0.3),
            CanonicalGate((0, 1), ThetaVector(0.0, 0.0, 0.0), cut=True),
        ),
    )
    exact = exact_expectation(circuit, ZZ)
    for s in range(20):
        record = run_shot(circuit, ZZ, 1, s)
        assert abs(record.value - exact) < 1e-12


# --- full estimates ----------------------------------------------------------


def test_uncut_exact_trace_has_zero_variance():
    circuit = Circuit(2, (CanonicalGate((0, 1), ThetaVector(PI / 4, 0, 0)),))
    result = estimate(circuit, ZZ, EstimatorConfig(shots=50, seed=0))
    assert result.std_error == 0.0
    assert abs(result.mean - exact_expectation(circuit, ZZ)) < 1e-14
    assert result.w_total == 1.0


def test_cut_bell_estimate_converges():
    circuit = bell_cut()
    result = estimate(circuit, ZZ, EstimatorConfig(shots=20000, seed=0))
    assert result.w_total == 3.0
    assert abs(result.mean - 1.0) < 5.0 * max(result.std_error, 1e-4)


def test_estimate_is_deterministic_in_the_seed():
    circuit = bell_cut()
    cfg = EstimatorConfig(shots=500, seed=9)
    assert estimate(circuit, ZZ, cfg).to_doc() == estimate(circuit, ZZ, cfg).to_doc()
    other = estimate(circuit, ZZ, EstimatorConfig(shots=500, seed=10))
    assert other.mean != estimate(circuit, ZZ, cfg).mean


def test_estimate_plans_shots_from_accuracy_target():
    circuit = bell_cut()
    result = estimate(circuit, ZZ, EstimatorConfig(epsilon=0.5, delta=0.5, seed=0))
    # ceil(2 (3/0.5)^2 ln 4) = 100
    assert result.shots == 100


def test_estimate_checks_widths():
    with pytest.raises(ValueError):
        estimate(Circuit(1, ()), ZZ, EstimatorConfig(shots=10))
    # a narrower observable is not read as padded with identities
    with pytest.raises(ValueError, match="width"):
        run_shot(Circuit(2, ()), Observable(((1.0, "Z"),)), 0, 0)


def test_single_shot_standard_error_is_zero():
    result = estimate(bell_cut(), ZZ, EstimatorConfig(shots=1, seed=0))
    assert result.shots == 1 and result.std_error == 0.0


def test_result_document_shape():
    result = EstimatorResult(
        mean=0.5, std_error=0.01, shots=10, w_total=3.0, o_max=1.0, seed=2
    )
    assert result.to_doc() == {
        "mean": 0.5,
        "std_error": 0.01,
        "shots": 10,
        "W_total": 3.0,
        "o_max": 1.0,
        "seed": 2,
    }


def random_cut_instance(rng):
    """Small random circuit with one cut gate, plus a random observable."""
    theta = np.sort(rng.uniform(0.0, PI / 4, size=3))[::-1]
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    gates = (
        SingleGate(0, tuple(axis), rng.uniform(0, PI)),
        SingleGate(1, Y_AXIS, rng.uniform(0, PI)),
        CanonicalGate((0, 1), ThetaVector(*theta), cut=True),
        SingleGate(rng.integers(0, 2), Y_AXIS, rng.uniform(0, PI)),
    )
    strings = ["ZZ", "XI", "YX", "IZ", "XY"]
    picks = rng.choice(len(strings), size=2, replace=False)
    terms = tuple(
        (float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)), strings[p])
        for p in picks
    )
    return Circuit(2, gates), Observable(terms)


@pytest.mark.parametrize("mode", [MeasureMode.EXACT_TRACE, MeasureMode.EIGENVALUE_SAMPLE])
def test_estimator_is_unbiased_on_random_circuits(mode):
    rng = np.random.default_rng(60 if mode is MeasureMode.EXACT_TRACE else 61)
    for case in range(5):
        circuit, obs = random_cut_instance(rng)
        exact = exact_expectation(circuit, obs)
        result = estimate(
            circuit, obs, EstimatorConfig(shots=30000, seed=case, mode=mode)
        )
        tol = 5.0 * max(result.std_error, 1e-4)
        assert abs(result.mean - exact) < tol, (
            f"case {case}: {result.mean} vs {exact} (tol {tol})"
        )


# --- the expected shot value, enumerated exactly ------------------------------


def step_outcomes(states, qubit, step, n):
    """Every outcome of one realization step on each row: (states, probabilities, weight)."""
    if isinstance(step, Unitary):
        return [(apply_1q(states, step.matrix, qubit, n), np.ones(len(states)), 1.0)]
    if isinstance(step, Coin):
        half = np.full(len(states), 0.5)
        return [
            (apply_1q(states, step.plus.matrix, qubit, n), half, 1.0),
            (apply_1q(states, step.minus.matrix, qubit, n), half, -1.0),
        ]
    projected = apply_1q(states, step.projector_matrix, qubit, n)
    p_plus = np.einsum("ij,ij->i", projected.conj(), projected).real
    # an outcome a row cannot reach has probability 0: its state is left unscaled
    return [
        (post / np.sqrt(np.where(p > 0.0, p, 1.0))[:, None], p, w)
        for post, p, w in ((projected, p_plus, 1.0), (states - projected, 1.0 - p_plus, -1.0))
    ]


def expected_shot_value(circuit, observable, mode):
    """sum p * W * s * o' over every path a shot can take, with sum p checked to be 1.

    A path picks a term of each cut (probability |c|/W), a side of each
    coin (1/2) and an outcome of each signed measurement (||Pi psi||^2); s
    is the product of its terms' signs and its outcomes' weights, +-1. o'
    is the expected observable sample on the path's final state: its
    trace, or in sample mode sum_k c_k (2 p_k - 1), where p_k is the
    probability that term k's Pauli string measures +1.
    """
    n = circuit.num_qubits
    states, probs, signs, w_total = initial_state(n)[None, :], np.ones(1), np.ones(1), 1.0
    for gate in circuit.gates:
        if not (isinstance(gate, CanonicalGate) and gate.cut):
            states = apply_gate(states, gate, n)
            continue
        decomp = decompose(pauli_coefficients(gate.theta))
        w_total *= decomp.weight
        paths = []
        for term in decomp.terms:
            c = term.coefficient
            branches = [(states, probs * abs(c) / decomp.weight, signs * np.sign(c))]
            for qubit, channels in zip(gate.qubits, (term.left, term.right)):
                for step in [step for cid in channels for step in realization_program(cid)]:
                    branches = [
                        (post, p * p_step, s * w)
                        for st, p, s in branches
                        for post, p_step, w in step_outcomes(st, qubit, step, n)
                    ]
            paths += branches
        states, probs, signs = (np.concatenate(column) for column in zip(*paths))
    assert abs(probs.sum() - 1.0) < 1e-12
    assert set(signs.tolist()) <= {1.0, -1.0}
    if mode is MeasureMode.EXACT_TRACE:
        o_value = observable_expectation(states, observable, n)
    else:
        p_plus = [
            np.clip(0.5 * (1.0 + pauli_string_expectation(states, pauli, n)), 0.0, 1.0)
            for _, pauli in observable.terms
        ]
        o_value = sum(c * (2.0 * p - 1.0) for (c, _), p in zip(observable.terms, p_plus))
    return float(np.sum(probs * w_total * signs * o_value))


@pytest.mark.parametrize("mode", list(MeasureMode))
@pytest.mark.parametrize(
    "num_qubits, layout, seed",
    [(3, "one cut", 1), (4, "one cut", 2), (3, "two cuts", 2), (4, "adjacent cuts", 3)],
)
def test_expected_shot_value_is_the_exact_expectation(num_qubits, layout, seed, mode):
    """Unbiasedness at machine precision: the shots' expected value, summed over their paths."""
    circuit, observable = oracle_instance(num_qubits, LAYOUTS[layout], seed)
    expected = expected_shot_value(circuit, observable, mode)
    assert abs(expected - exact_expectation(circuit, observable)) < 1e-10


def side_chances(draws, zero, one):
    """The probabilities of outcomes 0 and 1 of one term side: see ``sampler._route``.

    A side that draws (``draws`` 1) has outcome 0 with probability
    zero / (zero + one), from its outcomes' traces, one per row; a row that
    cannot reach the side (both traces 0) gets no chances. A side that
    draws nothing has outcome 0.
    """
    if not draws:
        return np.ones_like(zero), np.zeros_like(zero)
    reached = zero + one > 0
    p0 = np.divide(zero, zero + one, out=np.zeros_like(zero), where=reached)
    return p0, np.where(reached, 1.0 - p0, 0.0)


def plan_expected_shot_value(circuit, observable, mode, sides=None):
    """sum p * W * s * o' over every child the engine's own node builder makes from the plan.

    Per cut and parent node, every term t (probability |c|/W from the
    plan's cut points) and every left and right outcome (a, b) of its two
    channels, with the probabilities the router draws them by, from the
    traces of the outcomes' effects (``sampler._traces`` of each node's
    pair state, given the left outcome a on the right), not from the
    chances the node keeps: 1/2 per side of a coin, Tr(Pi rho) and 1 minus
    it for a measurement. Each child of positive probability is built by
    ``sampler._children`` and ``sampler._rows``, as a walk builds it, with
    its sign and exact-mode o'. In sample mode o' is the expected sample:
    per live term (probability |c|/o_max from the plan's cut points) its
    sign times o_max times 2 p_+ - 1, with p_+ from the <P> the leaf holds.
    Asserts that the probabilities sum to 1.

    If ``sides`` is a list, it gets one entry per term and drawing side of
    every cut level: (the nodes' kept chances of its outcome 0, the traces
    of its outcomes 0 and 1, which nodes reach it).
    """
    plan = sampler_module._compile(circuit, observable, mode)
    n = plan.num_qubits
    origin = np.zeros(1, dtype=np.intp)
    rows = sampler_module._rows(plan, 0, plan.root, np.ones(1), origin)
    probs = np.ones(1)
    for k, cut in enumerate(plan.cuts):
        terms = cut.terms
        traces, width = sampler_module._traces(rows["phi"])[: len(probs)], len(terms.cums)
        chance = rows["chance"][: len(probs)]
        shares = np.diff(terms.cums, prepend=0.0) / terms.cums[-1]
        keys, weights = [], []
        for t, share in enumerate(shares):
            (left_draws, right_draws), (left_effects, right_effects) = terms.draws[t], terms.effect[t]
            left_traces = [traces[:, e, 0] for e in left_effects]
            left = side_chances(left_draws, *left_traces)
            if sides is not None and left_draws:
                sides.append((chance[:, t, 0], *left_traces, probs > 0))
            for a in range(2):
                given = left_effects[a]
                right_traces = [traces[:, given, e] for e in right_effects]
                right = side_chances(right_draws, *right_traces)
                if sides is not None and right_draws:
                    sides.append((chance[:, t, 1 + a], *right_traces, left[a] > 0))
                for b in range(2):
                    p = share * left[a] * right[b]
                    parents = np.flatnonzero(p)
                    keys.append(((parents * width + t) * 2 + a) * 2 + b)
                    weights.append(probs[parents] * p[parents])
        keys, probs = np.concatenate(keys), np.concatenate(weights)
        children = sampler_module._children(cut, rows, keys, n)
        rows = sampler_module._rows(plan, k + 1, *children)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert set(rows["sign"].tolist()) <= {1.0, -1.0}
    if mode is MeasureMode.EXACT_TRACE:
        o_value = rows["value"]
    else:
        shares = np.diff(plan.term_cums, prepend=0.0) / plan.term_cums[-1]
        o_value = (2.0 * rows["chance"] - 1.0) @ (shares * plan.readout)
    return float(np.sum(probs * plan.w_total * rows["sign"] * o_value))


UNBIASED_INSTANCES = [
    (3, "one cut", 1), (4, "one cut", 2), (3, "two cuts", 2), (4, "adjacent cuts", 3),
]  # fmt: skip


@pytest.mark.parametrize("num_qubits, layout, seed", UNBIASED_INSTANCES)
def test_plan_tables_are_unbiased(num_qubits, layout, seed):
    """The engine's own tables, routing chances and node builder, enumerated: no bias, to 1e-10."""
    circuit, observable = oracle_instance(num_qubits, LAYOUTS[layout], seed)
    expected = plan_expected_shot_value(circuit, observable, MeasureMode.EXACT_TRACE)
    assert abs(expected - exact_expectation(circuit, observable)) < 1e-10


@pytest.mark.parametrize("num_qubits, layout, seed", UNBIASED_INSTANCES)
def test_sample_plan_tables_are_unbiased(num_qubits, layout, seed):
    """The same enumeration over the sample plan's term table and eigenvalue chances."""
    circuit, observable = oracle_instance(num_qubits, LAYOUTS[layout], seed)
    expected = plan_expected_shot_value(circuit, observable, MeasureMode.EIGENVALUE_SAMPLE)
    assert abs(expected - exact_expectation(circuit, observable)) < 1e-10


@pytest.mark.parametrize("mode", list(MeasureMode))
@pytest.mark.parametrize("num_qubits, layout, seed", UNBIASED_INSTANCES)
def test_kept_chances_are_the_trace_ratios_bit_for_bit(num_qubits, layout, seed, mode):
    """Every reachable node, term and drawing side keeps zero / (zero + one) of its traces."""
    circuit, observable = oracle_instance(num_qubits, LAYOUTS[layout], seed)
    sides = []
    plan_expected_shot_value(circuit, observable, mode, sides)
    assert sum(reached.sum() for *_, reached in sides) >= 50
    for kept, zero, one, reached in sides:
        ratio = zero[reached] / (zero[reached] + one[reached])
        assert kept[reached].tobytes() == ratio.tobytes()


# --- fused uncut segments ----------------------------------------------------


@st.composite
def uncut_segments(draw):
    """(num_qubits, gates, seed): a random segment of uncut gates on 2-6 qubits.

    Canonical gates act only on the first ``paired`` qubits, so the others
    see 1-qubit gates alone; their pairs come in either order. The segment
    may be empty, and ``tail`` 1-qubit gates end it.
    """
    n = draw(st.integers(2, 6))
    paired = draw(st.integers(2, n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kinds = draw(st.lists(st.sampled_from("srcc"), max_size=12))
    tail = draw(st.integers(0, 3))
    gates = []
    for kind in kinds + ["s"] * tail:
        if kind == "c":
            pair = tuple(draw(st.permutations(range(paired)))[:2])
            gates.append(CanonicalGate(pair, ThetaVector(*rng.uniform(-PI / 2, PI / 2, 3))))
            continue
        q = draw(st.integers(0, n - 1))
        if kind == "s":
            axis = rng.normal(size=3)
            gates.append(SingleGate(q, tuple(axis / np.linalg.norm(axis)), rng.uniform(0, PI)))
        else:
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            gates.append(Raw1QGate(q, np.linalg.qr(z)[0]))
    return n, gates, seed


@settings(max_examples=150, deadline=None)
@given(uncut_segments())
def test_fused_segment_applies_its_gates(case):
    """The fused steps act as the gates do.

    There is one step per 2-qubit gate, plus one per 1-qubit gate on a qubit
    that no 2-qubit gate touches.
    """
    n, gates, seed = case
    rng = np.random.default_rng([seed, 1])
    states = rng.normal(size=(3, 2**n)) + 1j * rng.normal(size=(3, 2**n))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    expected = states
    for gate in gates:
        expected = apply_gate(expected, gate, n)
    steps = sampler_module._fuse(gates)
    assert np.abs(sampler_module._apply_steps(states, steps, n) - expected).max(initial=0.0) < 1e-12
    paired = {q for g in gates if isinstance(g, CanonicalGate) for q in g.qubits}
    lone = [g for g in gates if not isinstance(g, CanonicalGate) and g.qubit not in paired]
    assert len(steps) == sum(isinstance(g, CanonicalGate) for g in gates) + len(lone)


@pytest.mark.parametrize("mode", list(MeasureMode))
@pytest.mark.parametrize("paired", [False, True], ids=["lone qubit", "paired qubit"])
def test_fused_products_of_rounded_gates_are_accepted(paired, mode):
    """Gates that each pass the 1e-10 unitarity check may multiply to one that misses it.

    A Hadamard written to 10 digits is c H with c - 1 = 1.9e-11; three of
    them after a cut multiply to a deviation of c^6 - 1 = 1.1e-10. Fusing
    must accept such a circuit, as gate-by-gate simulation does. On a qubit
    that no 2-qubit gate touches the gates stay as they are.
    """
    rounded = np.round(np.array([[1, 1], [1, -1]]) / np.sqrt(2), 10)
    gates = [CanonicalGate((0, 1), ThetaVector(0.3, 0.2, 0.1), cut=True)]
    gates += [Raw1QGate(1, rounded) for _ in range(3)]
    if paired:
        gates.append(CanonicalGate((2, 1), ThetaVector(0.4, -0.1, 0.2)))
    circuit = Circuit(3, tuple(gates))
    observable = Observable(((0.6, "XZX"), (-0.3, "ZXI")))
    after = sampler_module._compile(circuit, observable, mode).cuts[0].after
    if paired:
        (step,) = after
        assert np.abs(step.matrix @ step.matrix.conj().T - np.eye(4)).max() > 1e-10
    else:
        assert after == tuple(gates[1:])
    shot_against_reference(circuit, observable, mode)


# --- light-cone segments -----------------------------------------------------


def workload_instances():
    """(name, circuit, observable) of the benchmark's three cut workloads, seed 1."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)  # its dataclasses look their module up by name
    for name in ("cut2q_exact", "cut6q_exact", "cut10q_sample"):
        circuit_doc, observable_doc = workloads.cut_documents(workloads.CUT_SPECS[name], 1)
        yield name, circuit_from_doc(circuit_doc), observable_from_doc(observable_doc)


def light_cone_instances():
    """Every ``oracle_instance`` layout at 3-12 qubits, then the three workloads."""
    for n in range(3, 13):
        for name, layout in LAYOUTS.items():
            circuit, observable = oracle_instance(n, layout, len(layout))
            yield f"{name} at {n}", circuit, observable
    yield from workload_instances()


def plan_statevector(circuit, plan):
    """The plan's root, then each cut as its canonical unitary followed by its ``after``."""
    n = circuit.num_qubits
    psi = plan.root[0]
    for i, cut in zip(circuit.cut_indices(), plan.cuts):
        psi = sampler_module._apply_steps(apply_gate(psi, circuit.gates[i], n), cut.after, n)
    return psi


def step_qubits(step):
    return step.qubits if isinstance(step, Raw2QGate) else (step.qubit,)


def test_light_cone_segments_apply_the_whole_circuit():
    """The gates a cut's segment carries run before it, so the plan still runs every gate."""
    for name, circuit, observable in light_cone_instances():
        plan = sampler_module._compile(circuit, observable, MeasureMode.EXACT_TRACE)
        assert np.abs(plan_statevector(circuit, plan) - statevector(circuit)).max() < 1e-12, name


def test_every_step_after_a_cut_touches_its_light_cone():
    """A step after a cut acts on the cut's qubits or on a qubit a step before it reached."""
    fewer = 0
    for name, circuit, observable in light_cone_instances():
        plan = sampler_module._compile(circuit, observable, MeasureMode.EXACT_TRACE)
        ends = circuit.cut_indices() + (len(circuit.gates),)
        for k, cut in enumerate(plan.cuts):
            cone = set(cut.qubits)
            for step in cut.after:
                assert not cone.isdisjoint(step_qubits(step)), (name, k)
                cone.update(step_qubits(step))
            whole = sampler_module._fuse(circuit.gates[ends[k] + 1 : ends[k + 1]])
            fewer += len(cut.after) < len(whole)
    assert fewer >= 10  # the cones leave gates out


def carried_twice_instance():
    """Two cuts on (0, 1) of 4 qubits; gates on qubits 2 and 3 cross one cut or both.

    The gate on (2, 3) after the first cut and the rotation of qubit 3
    after the second act outside both cuts' light cones, so both run
    before the first cut; the rotation crosses both cuts.
    """
    theta = [ThetaVector(0.3, -0.2, 0.1), ThetaVector(0.5, 0.25, -0.4), ThetaVector(0.2, 0.6, 0.1)]
    axes = [(0.6, 0.0, 0.8), (0.0, 0.6, 0.8), (0.8, 0.6, 0.0)]
    gates = (
        SingleGate(0, axes[0], 0.7),
        CanonicalGate((1, 2), theta[0]),
        SingleGate(3, axes[1], 1.1),
        CanonicalGate((0, 1), theta[1], cut=True),
        CanonicalGate((2, 3), theta[2]),
        SingleGate(0, axes[2], 0.4),
        CanonicalGate((1, 0), theta[0], cut=True),
        CanonicalGate((1, 2), theta[2]),
        SingleGate(3, axes[0], 0.9),
        SingleGate(2, axes[1], 0.3),
    )
    observable = Observable(((0.7, "ZIXY"), (0.0, "XXXX"), (-0.4, "YZIZ"), (0.5, "IXZX")))
    return Circuit(4, gates), observable


@pytest.mark.parametrize("mode", list(MeasureMode))
def test_gates_carried_across_two_cuts_keep_the_plan_unbiased(mode):
    circuit, observable = carried_twice_instance()
    plan = sampler_module._compile(circuit, observable, mode)
    first, second = plan.cuts
    assert [step_qubits(step) for step in first.after] == [(0,)]
    assert [step_qubits(step) for step in second.after] == [(1, 2)]
    expected = plan_expected_shot_value(circuit, observable, mode)
    assert abs(expected - exact_expectation(circuit, observable)) < 1e-10
    assert abs(exact_expectation(circuit, observable)) > 0.05


def test_cut_angles_are_decomposed_once_per_compile(monkeypatch):
    """Cuts that share an angle share its sampling table, built once."""
    circuit, observable = oracle_instance(3, LAYOUTS["two cuts"], 2)
    a, b = circuit.cut_indices()
    gates = list(circuit.gates)
    gates[b] = CanonicalGate(gates[b].qubits, gates[a].theta, cut=True)
    calls = []
    real = sampler_module._cut_terms
    monkeypatch.setattr(sampler_module, "_cut_terms", lambda m: calls.append(m) or real(m))
    plan = sampler_module._compile(Circuit(3, tuple(gates)), observable, MeasureMode.EXACT_TRACE)
    assert len(calls) == 1
    first, second = plan.cuts
    assert first.terms is second.terms
    assert plan.w_total == first.terms.cums[-1] ** 2


def test_compile_builds_no_decomposition_objects(monkeypatch):
    """A cut's table is read off fixed slot rows: no QPTerm or QPDecomposition per call."""
    built = Counter()
    for cls in (QPTerm, QPDecomposition):

        def counted(self, _real=cls.__post_init__, _name=cls.__name__):
            built[_name] += 1
            _real(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    decompose(pauli_coefficients((0.3, 0.2, 0.1)))
    assert set(built) == {"QPTerm", "QPDecomposition"}  # the counters see construction
    built.clear()
    for layout in ("two cuts", "adjacent cuts"):
        circuit, observable = oracle_instance(3, LAYOUTS[layout], 4)
        for mode in MeasureMode:
            sampler_module._compile(circuit, observable, mode)
    assert not built


def terms_oracle(decomp):
    """The sampling table of ``decomp``, read from each of its terms' channel rows."""
    cums, signs = sampler_module._table([t.coefficient for t in decomp.terms])
    rows = []
    for t in decomp.terms:
        (first,), (second,) = t.left, t.right  # one channel per side
        rows.append((first.value, second.value))
    rows = np.array(rows)
    left, right = rows[:, 0], rows[:, 1]
    weights = WEIGHTS[left][:, :, None] * WEIGHTS[right][:, None, :]
    return sampler_module._Terms(
        cums=np.array(cums),
        kraus=sampler_module._kron(KRAUS[left][:, :, None], KRAUS[right][:, None, :]),
        weights=np.array(signs)[:, None, None] * weights,
        draws=OUTCOMES[rows] - 1,
        effect=EFFECT[rows],
    )


def cut_angles():
    """2000 random angles in [-pi, pi]^3, then the Weyl landmarks and the benchmark's cuts."""
    rng = np.random.default_rng(2000)
    landmarks = [
        (0.0, 0.0, 0.0),
        (PI / 4, 0.0, 0.0),
        (PI / 4, PI / 4, 0.0),
        (PI / 4, PI / 4, PI / 4),
        (PI / 8, PI / 8, PI / 8),
        (0.0, 0.0, 1e-9),
        (0.55, 0.3, 0.12),  # the benchmark's three cut angles
        (0.4, 0.2, 0.1),
        (0.12, 0.06, 0.02),
    ]
    return rng.uniform(-PI, PI, size=(2000, 3)).tolist() + landmarks


def test_cut_table_is_the_decomposition_table_byte_for_byte():
    """``_cut_terms`` of a gate's matrix is the table of ``decompose``'s terms, bit for bit."""
    fields = [f.name for f in dataclasses.fields(sampler_module._Terms)]
    sizes = set()
    for theta in cut_angles():
        table = sampler_module._cut_terms(CanonicalGate((0, 1), theta).matrix)
        want = terms_oracle(decompose(pauli_coefficients(theta)))
        for name in fields:
            got, expected = getattr(table, name), getattr(want, name)
            assert (got.dtype, got.shape) == (expected.dtype, expected.shape), (theta, name)
            assert got.tobytes() == expected.tobytes(), (theta, name)
        sizes.add(len(table.cums))
    assert {1, 3, 4, 28} <= sizes  # local, near-local and single-axis gates drop slots


def test_every_path_to_w_reads_the_same_bits():
    """``weight_formula``, ``decompose`` and the sampler's last cut point are one W."""
    for theta in cut_angles():
        u = pauli_coefficients(theta)
        w = weight_formula(u)
        assert decompose(u).weight == w, theta
        assert sampler_module._cut_terms(CanonicalGate((0, 1), theta).matrix).cums[-1] == w, theta


# mixed magnitudes, each with a zero coefficient: on the last two a
# compensated sum (math.fsum, or sum() from Python 3.12 on) reads other bits
MIXED_OBSERVABLES = (
    ((0.0, "ZZ"), (1e-300, "XI"), (-3.5, "IY"), (2.0**60, "ZX")),
    ((1.0, "ZZ"), (1e-16, "XI"), (1e-16, "IY"), (0.0, "YY"), (-1e-16, "ZX")),
    ((-0.1, "ZI"), (0.2, "IZ"), (0.0, "YY"), (0.3, "XX")),
)


def test_o_max_is_the_sample_plans_last_cut_point():
    """``Observable.o_max`` is the running one-norm that sample mode draws terms by."""
    compensated = 0
    for terms in MIXED_OBSERVABLES:
        observable = Observable(terms)
        plan = sampler_module._compile(bell_cut(), observable, MeasureMode.EIGENVALUE_SAMPLE)
        assert len(plan.term_cums) == len(terms) - 1  # the zero is not drawn
        assert observable.o_max == plan.term_cums[-1], terms
        compensated += observable.o_max != math.fsum(abs(c) for c, _ in terms)
    assert compensated == 2


# --- the compiled shot plan against per-gate re-simulation ------------------


class CountingStream:
    def __init__(self, stream):
        self.stream, self.draws = stream, 0

    def random(self):
        self.draws += 1
        return self.stream.random()


def reference_shot(circuit, observable, decomps, rng, mode):
    """Every gate re-simulated in circuit order: (sign, o', x)."""
    n = circuit.num_qubits
    psi, sign, w_total = initial_state(n), 1.0, 1.0
    for idx, gate in enumerate(circuit.gates):
        if not (isinstance(gate, CanonicalGate) and gate.cut):
            psi = apply_gate(psi, gate, n)
            continue
        decomp = decomps[idx]
        w_total *= decomp.weight
        mags = np.cumsum([abs(t.coefficient) for t in decomp.terms])
        term = decomp.terms[min(bisect_right(mags, rng.random() * decomp.weight), len(mags) - 1)]
        sign *= term.coefficient / abs(term.coefficient)
        for side, cid in [(0, c) for c in term.left] + [(1, c) for c in term.right]:
            psi, w = run_program(psi, realization_program(cid), gate.qubits[side], n, rng)
            sign *= w
    if mode is MeasureMode.EXACT_TRACE:
        o_value = observable_expectation(psi, observable, n)
    else:
        live = [(c, p) for c, p in observable.terms if c != 0.0]
        cums = np.cumsum([abs(c) for c, _ in live])
        coeff, pauli = live[min(bisect_right(cums, rng.random() * cums[-1]), len(live) - 1)]
        p_plus = min(1.0, max(0.0, 0.5 * (1.0 + pauli_string_expectation(psi, pauli, n))))
        o_value = np.sign(coeff) * (1.0 if rng.random() < p_plus else -1.0) * observable.o_max
    return sign, o_value, w_total * (sign * o_value)


def oracle_instance(num_qubits, layout, seed):
    """``layout`` letters: ``g`` an uncut gate (rotation or canonical), ``C`` a cut."""
    rng = np.random.default_rng([seed, num_qubits])
    gates = []
    for ch in layout:
        pair = tuple(int(q) for q in rng.choice(num_qubits, size=2, replace=False))
        theta = ThetaVector(*rng.uniform(-PI / 2, PI / 2, size=3))
        if ch == "C":
            gates.append(CanonicalGate(pair, theta, cut=True))
        elif rng.random() < 0.5:
            gates.append(CanonicalGate(pair, theta))
        else:
            axis = rng.normal(size=3)
            gates.append(SingleGate(pair[0], tuple(axis / np.linalg.norm(axis)), rng.uniform(0, PI)))
    strings = ["".join(rng.choice(list("IXYZ"), size=num_qubits)) for _ in range(3)]
    terms = ((0.7, strings[0]), (0.0, strings[1]), (-0.4, strings[2]))
    return Circuit(num_qubits, tuple(gates)), Observable(terms)


LAYOUTS = {
    "one cut": "gggCggg",
    "two cuts": "ggCgggCgg",
    "cut first": "Cggg",
    "cut last": "gggC",
    "adjacent cuts": "ggCCgg",
    "no cut": "gggg",
}


def touched_observable(circuit, seed):
    """Three Pauli strings whose exact expectations are at least 0.05 in size.

    X, Y or Z sit only where the circuit's gates act; an untouched qubit
    stays |0>, so it gets I or Z. Strings are redrawn until the expectation
    is large enough, and each coefficient takes its term's sign, so the
    observable's expectation is at least 0.05 (the middle term's
    coefficient is 0), unlike most wide ``oracle_instance`` observables.
    """
    rng = np.random.default_rng([seed, 99])
    n = circuit.num_qubits
    psi = statevector(circuit)
    touched = {q for g in circuit.gates for q in getattr(g, "qubits", (getattr(g, "qubit", 0),))}
    terms = []
    for coeff in (0.7, 0.0, 0.4):
        while True:
            pauli = "".join(rng.choice(list("IXYZ" if q in touched else "IZ")) for q in range(n))
            value = pauli_string_expectation(psi, pauli, n)
            if abs(value) >= 0.05:
                break
        terms.append((float(np.sign(value)) * coeff, pauli))
    return Observable(tuple(terms))


def touched_instance(layout, seed):
    """A 9-qubit ``oracle_instance`` circuit with a ``touched_observable``."""
    circuit, _ = oracle_instance(9, layout, seed)
    return circuit, touched_observable(circuit, seed)


def shot_against_reference(circuit, observable, mode):
    """12 ``run_shot`` shots next to the reference: equal signs, (o', x) to 1e-12."""
    decomps = cut_decomps(circuit)
    for s in range(12):
        record = run_shot(circuit, observable, 5, s, mode)
        sign, o_value, x = reference_shot(circuit, observable, decomps, ShotStream(5, s), mode)
        assert record.sign == sign
        assert abs(record.observable_value - o_value) < 1e-12
        assert abs(record.value - x) < 1e-12


@pytest.mark.parametrize("mode", list(MeasureMode))
@pytest.mark.parametrize("num_qubits", [3, 6, 9])
@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_run_shot_matches_per_gate_reference(layout, num_qubits, mode):
    circuit, observable = oracle_instance(num_qubits, layout, len(layout))
    shot_against_reference(circuit, observable, mode)


def record_draws(start, monkeypatch):
    """A recorder on ``_draw``: per stream start in ``start``, the columns it gives out."""
    shot_of = {z: s for s, z in enumerate(start.tolist())}
    assert len(shot_of) == len(start)
    reads = [[] for _ in shot_of]
    draw = sampler_module._draw

    def recorded(z, column):
        for zi, col in zip(z.tolist(), np.broadcast_to(column, z.shape).tolist()):
            reads[shot_of[zi]].append(col)
        return draw(z, column)

    monkeypatch.setattr(sampler_module, "_draw", recorded)
    return reads


def walk_against_reference(circuit, observable, mode, seed, rows, monkeypatch):
    """One walk of ``rows`` shots, one stream each, next to the reference shot by shot.

    Asserts equal draws and signs per shot and equal (o', x) to 1e-12; returns
    x. A recorder on ``_draw`` notes the columns each shot's stream gives
    out: they must be its first ones, each read once, as many as the
    reference draws.
    """
    decomps = cut_decomps(circuit)
    plan = sampler_module._compile(circuit, observable, mode)
    start = stream_starts(seed, 0, rows)
    reads = record_draws(start, monkeypatch)
    sign, o_value, x = sampler_module._walk(plan, sampler_module._Tree(plan), start)
    refs = [CountingStream(ShotStream(seed, s)) for s in range(rows)]
    expected = [reference_shot(circuit, observable, decomps, ref, mode) for ref in refs]
    assert [sorted(cols) for cols in reads] == [list(range(r.draws)) for r in refs]
    for i, (ref_sign, ref_o, ref_x) in enumerate(expected):
        assert sign[i] == ref_sign
        assert abs(o_value[i] - ref_o) < 1e-12
        assert abs(x[i] - ref_x) < 1e-12
    return x


@pytest.mark.parametrize("mode", list(MeasureMode))
@pytest.mark.parametrize("num_qubits", [3, 6, 9])
@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_block_rows_match_the_per_gate_reference(layout, num_qubits, mode, monkeypatch):
    circuit, observable = oracle_instance(num_qubits, layout, len(layout))
    walk_against_reference(circuit, observable, mode, 5, 7, monkeypatch)


@pytest.mark.parametrize("mode", list(MeasureMode))
@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_wide_shots_match_the_reference_on_touched_qubits(layout, mode, monkeypatch):
    """Wide shots against the reference on observables that do not vanish."""
    circuit, observable = touched_instance(layout, len(layout))
    assert abs(exact_expectation(circuit, observable)) >= 0.05
    shot_against_reference(circuit, observable, mode)
    x = walk_against_reference(circuit, observable, mode, 5, 40, monkeypatch)
    # these observables do not vanish, so most shots are far from 0
    assert np.count_nonzero(np.abs(x) > 1e-3) >= 10


PINNED_ESTIMATES = {
    # (instance, mode): (mean.hex(), std_error.hex()) at 300 shots, seed 17;
    # an oracle instance is (num_qubits, seed) on the two-cut layout
    ("bell", "exact"): ("0x1.f5c28f5c28f5cp-1", "0x1.4d486e637b650p-4"),
    ("bell", "sample"): ("0x1.051eb851eb852p+0", "0x1.4e261b7ced2d6p-3"),
    ((3, 2), "exact"): ("-0x1.6681d9f1985a2p-2", "0x1.35d92fc9dc573p-1"),
    ((3, 2), "sample"): ("-0x1.17f848e15819fp+0", "0x1.2f7985ed17aedp+1"),
    # this observable vanishes on every shot's state; (9, 9) below does not
    ((9, 2), "exact"): ("0x0.0p+0", "0x0.0p+0"),
    ((9, 2), "sample"): ("0x1.63b55e9d700a0p+1", "0x1.8128ff96b91d6p+1"),
    ((9, 9), "exact"): ("-0x1.2652445c12622p-8", "0x1.2adf79d64bd29p-5"),
    ((9, 9), "sample"): ("-0x1.f7ccbb8cdc96ap-2", "0x1.11239fe68744cp+2"),
}


@pytest.mark.parametrize("key", PINNED_ESTIMATES, ids=lambda k: f"{k[0]}-{k[1]}")
def test_estimates_are_pinned_bit_for_bit(key):
    """Any change to a draw, its order or the arithmetic of a shot shows here."""
    which, mode = key
    if which == "bell":
        circuit, observable = bell_cut(), ZZ
    else:
        circuit, observable = oracle_instance(which[0], LAYOUTS["two cuts"], which[1])
    result = estimate(circuit, observable, EstimatorConfig(shots=300, seed=17, mode=MeasureMode(mode)))
    assert (result.mean.hex(), result.std_error.hex()) == PINNED_ESTIMATES[key]


# sha256 of _walk's (sign, o', x) bytes over n in (3, 6, 9), LAYOUTS and
# MeasureMode, in that loop order, 64 shots each from stream seed 17, with
# the uncut segments after the cuts cut to each cut's light cone and fused
# into 2-qubit products, and each cut's children built from its channels'
# outcome tables
WALK_DIGEST = "783398725c82fc56c3d57a99b4e7e9ecb4d3a52dca81bca9f1fbc1b21c8451d3"


def test_walk_is_pinned_shot_for_shot():
    """Every shot's sign, o' and x, bit for bit, on 18 instances in both modes."""
    digest = hashlib.sha256()
    for n in (3, 6, 9):
        for layout in LAYOUTS.values():
            circuit, observable = oracle_instance(n, layout, len(layout))
            for mode in MeasureMode:
                plan = sampler_module._compile(circuit, observable, mode)
                tree = sampler_module._Tree(plan)
                for values in sampler_module._walk(plan, tree, stream_starts(17, 0, 64)):
                    digest.update(values.tobytes())
    assert digest.hexdigest() == WALK_DIGEST


@pytest.mark.parametrize("mode", list(MeasureMode))
def test_estimate_is_independent_of_the_block_size(monkeypatch, mode):
    """Chunks of 5 shots give every shot the value one chunk gives it, bit for bit.

    So do chunks of 5 whose batches hold one 3-qubit row, where every
    parent's children are simulated as a stack of their own, not batched
    with the next parent's.
    """
    circuit, observable = oracle_instance(3, LAYOUTS["two cuts"], 2)
    config = EstimatorConfig(shots=23, seed=4, mode=mode)
    chunks = []
    walk = sampler_module._walk

    def recorded(plan, tree, start):
        # every chunk from an empty tree: a kept one would hide a chunking fault
        out = walk(plan, sampler_module._Tree(plan), start)
        chunks.append(out[2])
        return out

    monkeypatch.setattr(sampler_module, "_walk", recorded)
    whole = estimate(circuit, observable, config)
    assert [len(x) for x in chunks] == [23]
    monkeypatch.setattr(sampler_module, "_CHUNK_SHOTS", 5)
    for batch_amps in (sampler_module._BATCH_AMPS, 1 << 3):
        monkeypatch.setattr(sampler_module, "_BATCH_AMPS", batch_amps)
        del chunks[1:]
        split = estimate(circuit, observable, config)
        assert [len(x) for x in chunks[1:]] == [5, 5, 5, 5, 3]
        assert np.concatenate(chunks[1:]).tobytes() == chunks[0].tobytes()
        assert split.to_doc() == whole.to_doc()


def test_walk_memory_stays_on_the_frontier():
    """A 10-qubit two-cut estimate at 10^5 shots keeps only the open frontier.

    The tree reaches thousands of leaves of 16 KiB each (tens of MiB if the
    walk kept them all, 1.6 GB for one state per shot); the frontier is
    about 100 states per cut, and a chunk about 100 bytes per shot. The
    peak must stay within 32 MiB above the 800 KB value array.
    """
    rng = np.random.default_rng(5)
    gates = [SingleGate(q, Y_AXIS, float(rng.uniform(0, PI))) for q in range(10)]
    gates += [
        CanonicalGate((4, 5), ThetaVector(0.5, 0.3, 0.1), cut=True),
        CanonicalGate((3, 4), ThetaVector(0.2, 0.1, 0.05)),
        CanonicalGate((5, 6), ThetaVector(0.3, 0.1, 0.05)),
        CanonicalGate((4, 5), ThetaVector(0.6, 0.2, 0.1), cut=True),
    ]
    circuit = Circuit(10, tuple(gates))
    observable = Observable(((1.0, "IIIZZZIIII"),))
    shots = 100_000
    tracemalloc.start()
    try:
        result = estimate(circuit, observable, EstimatorConfig(shots=shots, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.shots == shots
    assert peak - 8 * shots < 32 * 2**20


# --- the kept shot plan ------------------------------------------------------


def reachable_arrays(value):
    """Every numpy array reachable from ``value`` through dataclass fields and tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from reachable_arrays(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from reachable_arrays(item)


@pytest.mark.parametrize("mode", list(MeasureMode))
@pytest.mark.parametrize("layout", ["no cut", "one cut", "two cuts", "adjacent cuts"])
def test_every_array_of_a_plan_is_read_only(layout, mode):
    """A kept plan serves every later call on its objects: none of its arrays can be written.

    That covers the root stack, the observable terms' signed readouts,
    every field of each cut's table and each fused step's matrix.
    """
    circuit, observable = oracle_instance(4, LAYOUTS[layout], 3)
    plan = sampler_module._compile(circuit, observable, mode)
    expected = [plan.root, plan.readout]
    for cut in plan.cuts:
        expected += [getattr(cut.terms, f.name) for f in dataclasses.fields(cut.terms)]
        expected += [step.matrix for step in cut.after]
    arrays = list(reachable_arrays(plan))
    assert {id(a) for a in expected} <= {id(a) for a in arrays}
    assert [a.shape for a in arrays if a.flags.writeable] == []


@pytest.fixture
def compiles(monkeypatch):
    """An empty plan slot, and the (circuit, observable, mode) of each ``_compile`` call."""
    calls = []
    real = sampler_module._compile

    def counted(circuit, observable, mode):
        calls.append((circuit, observable, mode))
        return real(circuit, observable, mode)

    monkeypatch.setattr(sampler_module, "_compile", counted)
    monkeypatch.setattr(sampler_module, "_last", (None,) * 5)
    return calls


@pytest.mark.parametrize("mode", list(MeasureMode))
def test_calls_on_the_same_objects_compile_once(compiles, mode):
    circuit, observable = oracle_instance(3, LAYOUTS["two cuts"], 2)
    config = EstimatorConfig(shots=50, seed=3, mode=mode)
    record = run_shot(circuit, observable, 3, 7, mode)
    assert len(compiles) == 1
    result = estimate(circuit, observable, config)
    assert run_shot(circuit, observable, 3, 7, mode) == record
    assert estimate(circuit, observable, config) == result
    assert len(compiles) == 1


def test_equal_but_distinct_objects_compile_again(compiles):
    circuit, observable = oracle_instance(3, LAYOUTS["one cut"], 1)
    twin_circuit = Circuit(circuit.num_qubits, circuit.gates)
    twin_observable = Observable(observable.terms)
    assert (twin_circuit, twin_observable) == (circuit, observable)
    calls = [
        (circuit, observable, MeasureMode.EXACT_TRACE),
        (twin_circuit, observable, MeasureMode.EXACT_TRACE),
        (twin_circuit, twin_observable, MeasureMode.EXACT_TRACE),
        (twin_circuit, twin_observable, MeasureMode.EIGENVALUE_SAMPLE),
    ]
    for c, o, mode in calls:
        run_shot(c, o, 0, 0, mode)
    assert len(compiles) == len(calls)
    for got, sent in zip(compiles, calls):
        assert all(g is s for g, s in zip(got, sent))


@pytest.mark.parametrize("mode", list(MeasureMode))
def test_interleaved_estimates_equal_cold_ones(compiles, monkeypatch, mode):
    """Estimates of A, B, A, A with the slot kept give the bits each gives from an empty slot."""
    a = oracle_instance(3, LAYOUTS["two cuts"], 2)
    b = oracle_instance(4, LAYOUTS["adjacent cuts"], 3)
    config = EstimatorConfig(shots=200, seed=11, mode=mode)

    def bits(instance):
        result = estimate(*instance, config)
        return result.mean.hex(), result.std_error.hex()

    kept = [bits(instance) for instance in (a, b, a, a)]
    assert len(compiles) == 3
    cold = []
    for instance in (a, b, a, a):
        monkeypatch.setattr(sampler_module, "_last", (None,) * 5)
        cold.append(bits(instance))
    assert kept == cold
    assert kept[0] != kept[1]


def test_a_compile_that_raises_leaves_the_slot_untouched(compiles):
    circuit, observable = oracle_instance(3, LAYOUTS["one cut"], 1)
    config = EstimatorConfig(shots=10)
    result = estimate(circuit, observable, config)
    held = sampler_module._last
    with pytest.raises(ValueError, match="width"):
        estimate(circuit, Observable(((1.0, "ZZZZ"),)), config)
    with pytest.raises(ValueError, match="MeasureMode"):
        run_shot(circuit, observable, 0, 0, "exact")
    assert sampler_module._last is held
    assert estimate(circuit, observable, config) == result
    assert len(compiles) == 3


# --- the kept node table -------------------------------------------------------


def tree_bytes(tree):
    """The bytes of every array the tree holds."""
    return sum(array.nbytes for level in tree.levels for array in level.values())


@pytest.fixture
def builds(monkeypatch):
    """An empty slot, and the number of children each ``_children`` call builds."""
    calls = []
    real = sampler_module._children

    def counted(cut, rows, key, n):
        calls.append(len(key))
        return real(cut, rows, key, n)

    monkeypatch.setattr(sampler_module, "_children", counted)
    monkeypatch.setattr(sampler_module, "_last", (None,) * 5)
    return calls


@pytest.mark.parametrize("mode", list(MeasureMode))
def test_a_second_identical_call_builds_no_child(builds, mode):
    """Nor does a shot of the same estimate: every node it reaches is kept."""
    circuit, observable = oracle_instance(4, LAYOUTS["two cuts"], 2)
    config = EstimatorConfig(shots=300, seed=5, mode=mode)
    first = estimate(circuit, observable, config)
    assert builds
    del builds[:]
    assert estimate(circuit, observable, config) == first
    record = run_shot(circuit, observable, 5, 17, mode)
    assert builds == []
    plan = sampler_module._compile(circuit, observable, mode)
    cold = sampler_module._walk(plan, sampler_module._Tree(plan), stream_starts(5, 17, 1))
    assert record.value == cold[2][0]


@pytest.mark.parametrize("mode", list(MeasureMode))
def test_estimates_on_kept_trees_equal_cold_ones(monkeypatch, mode):
    """A, B, A, A with new seeds and shot counts on kept trees, against an empty slot each time."""
    a = oracle_instance(3, LAYOUTS["two cuts"], 2)
    b = oracle_instance(6, LAYOUTS["adjacent cuts"], 3)
    calls = [(a, 40, 1), (b, 200, 2), (a, 500, 3), (a, 90, 4), (a, 500, 3)]

    def bits(instance, shots, seed):
        result = estimate(*instance, EstimatorConfig(shots=shots, seed=seed, mode=mode))
        return result.mean.hex(), result.std_error.hex()

    monkeypatch.setattr(sampler_module, "_last", (None,) * 5)
    kept = [bits(*call) for call in calls]
    cold = []
    for call in calls:
        monkeypatch.setattr(sampler_module, "_last", (None,) * 5)
        cold.append(bits(*call))
    assert kept == cold


def test_walk_is_pinned_shot_for_shot_on_warm_trees():
    """WALK_DIGEST from fresh trees, and again from the same trees after they grew."""
    instances = []
    for n in (3, 6, 9):
        for layout in LAYOUTS.values():
            circuit, observable = oracle_instance(n, layout, len(layout))
            for mode in MeasureMode:
                plan = sampler_module._compile(circuit, observable, mode)
                instances.append((plan, sampler_module._Tree(plan)))
    for warm in (False, True):
        digest = hashlib.sha256()
        for plan, tree in instances:
            for values in sampler_module._walk(plan, tree, stream_starts(17, 0, 64)):
                digest.update(values.tobytes())
            # grow the tree on other shots before the second pass
            sampler_module._walk(plan, tree, stream_starts(3, 0, 64))
        assert digest.hexdigest() == WALK_DIGEST, f"warm {warm}"


@pytest.mark.parametrize("mode", list(MeasureMode))
@pytest.mark.parametrize("num_qubits", [3, 6, 9])
@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_a_walk_on_kept_nodes_is_a_fresh_walk(layout, num_qubits, mode, monkeypatch):
    """The same starts walked twice on one tree: the second walk builds nothing.

    Every node it reaches is kept, so each level passes its shots on to
    the next kept one. Its (sign, o', x) are a fresh tree's bit for bit,
    and every shot reads its first columns, each once, as on the fresh
    tree.
    """
    circuit, observable = oracle_instance(num_qubits, layout, len(layout))
    plan = sampler_module._compile(circuit, observable, mode)
    start = stream_starts(17, 0, 64)
    tree = sampler_module._Tree(plan)
    sampler_module._walk(plan, tree, start)
    cold_reads = record_draws(start, monkeypatch)
    cold = sampler_module._walk(plan, sampler_module._Tree(plan), start)
    monkeypatch.undo()
    reads = record_draws(start, monkeypatch)
    built = []
    monkeypatch.setattr(sampler_module, "_children", lambda *args: built.append(args))
    warm = sampler_module._walk(plan, tree, start)
    assert built == []
    for warm_values, cold_values in zip(warm, cold):
        assert warm_values.tobytes() == cold_values.tobytes()
    assert [sorted(cols) for cols in reads] == [list(range(len(cols))) for cols in cold_reads]


def tree_allocated(tree):
    """The bytes of the blocks behind the tree's arrays, each block counted once."""
    blocks = {}
    for level in tree.levels:
        for array in level.values():
            block = array if array.base is None else array.base
            blocks[id(block)] = block.nbytes
    return sum(blocks.values())


@pytest.mark.parametrize("bound", [40_000, 200_000, None])
def test_a_tree_allocates_within_its_bound_over_many_small_walks(monkeypatch, bound):
    """120 walks of 3 shots each on one tree: the blocks behind it stay within ``_TREE_BYTES``."""
    if bound is not None:
        monkeypatch.setattr(sampler_module, "_TREE_BYTES", bound)
    bound = sampler_module._TREE_BYTES
    circuit, observable = oracle_instance(6, LAYOUTS["two cuts"], 2)
    plan = sampler_module._compile(circuit, observable, MeasureMode.EXACT_TRACE)
    tree = sampler_module._Tree(plan)
    for seed in range(120):
        sampler_module._walk(plan, tree, stream_starts(seed, 0, 3))
        assert tree_bytes(tree) <= tree.allocated == tree_allocated(tree) <= bound
    assert len(tree.levels[2]["sign"]) > 16
    if bound < 1 << 20:
        # the walks reach more nodes than fit, so the tree fills most of its bound
        assert tree.allocated > bound / 2


def test_a_tree_adds_what_fits_at_its_bound(monkeypatch):
    """Room for 2.5 level-1 nodes: ``add`` keeps two of five, then none, within the bound."""
    circuit, observable = oracle_instance(6, LAYOUTS["two cuts"], 2)
    plan = sampler_module._compile(circuit, observable, MeasureMode.EXACT_TRACE)
    tree = sampler_module._Tree(plan)
    col = np.zeros(5, dtype=np.intp)
    rows = sampler_module._rows(plan, 1, plan.root[[0] * 5], np.ones(5), col)
    per = sum(array[:1].nbytes for array in rows.values()) + 8 * tree.width[1]
    bound = tree.allocated + 5 * per // 2
    monkeypatch.setattr(sampler_module, "_TREE_BYTES", bound)
    assert tree.add(1, rows, 5).tolist() == [0, 1]
    assert len(tree.levels[1]["sign"]) == 2
    assert tree_bytes(tree) <= tree.allocated <= bound
    assert tree.add(1, rows, 5).tolist() == []
    assert tree_bytes(tree) <= tree.allocated <= bound


@pytest.mark.parametrize("mode", list(MeasureMode))
def test_a_bounded_tree_changes_no_bit(monkeypatch, mode):
    """With no room, or a few KiB, every estimate is the unbounded one and the tree stays in bound."""
    instances = [
        oracle_instance(3, LAYOUTS["two cuts"], 2),
        oracle_instance(6, LAYOUTS["adjacent cuts"], 3),
        oracle_instance(9, LAYOUTS["two cuts"], 9),
    ]
    calls = [(instance, seed) for seed in (1, 2, 1) for instance in instances for _ in (0, 1)]

    def run(bound):
        monkeypatch.setattr(sampler_module, "_TREE_BYTES", bound)
        monkeypatch.setattr(sampler_module, "_last", (None,) * 5)
        out = []
        for instance, seed in calls:
            result = estimate(*instance, EstimatorConfig(shots=400, seed=seed, mode=mode))
            tree = sampler_module._last[4]["tree"]
            assert tree_bytes(tree) <= tree.allocated <= bound
            out.append((result.mean.hex(), result.std_error.hex()))
        return out

    unbounded = run(1 << 40)
    for bound in (0, 3000, 12_000):
        assert run(bound) == unbounded


def test_a_walk_that_raises_leaves_no_tree(monkeypatch):
    """A walk that fails after its tree kept nodes: the slot holds no tree, then a whole one."""
    circuit, observable = oracle_instance(4, LAYOUTS["two cuts"], 2)
    config = EstimatorConfig(shots=300, seed=5)
    real = sampler_module._children
    calls = []

    def fails(cut, rows, key, n):
        calls.append(cut)
        if cut is plan.cuts[1]:
            raise MemoryError("out of memory")
        return real(cut, rows, key, n)

    monkeypatch.setattr(sampler_module, "_last", (None,) * 5)
    plan = sampler_module._plan(circuit, observable, config.mode)[0]
    monkeypatch.setattr(sampler_module, "_children", fails)
    with pytest.raises(MemoryError):
        estimate(circuit, observable, config)
    assert calls[0] is plan.cuts[0]
    assert sampler_module._last[3] is plan
    assert sampler_module._last[4] == {}
    monkeypatch.setattr(sampler_module, "_children", real)
    warm = estimate(circuit, observable, config)
    assert isinstance(sampler_module._last[4]["tree"], sampler_module._Tree)
    monkeypatch.setattr(sampler_module, "_last", (None,) * 5)
    assert estimate(circuit, observable, config) == warm


def test_a_sample_walk_builds_only_the_nodes_its_tree_lacks(builds):
    """Five estimates on one plan: every child row built is a node the tree gains.

    Four qubits need no ``_pad`` rows, so a built row is a built node; the
    first call also keeps the root, which no ``_children`` call builds.
    """
    circuit, observable = oracle_instance(4, LAYOUTS["two cuts"], 2)
    nodes = 0
    for seed in range(1, 6):
        del builds[:]
        config = EstimatorConfig(shots=300, seed=seed, mode=MeasureMode.EIGENVALUE_SAMPLE)
        estimate(circuit, observable, config)
        tree = sampler_module._last[4]["tree"]
        grown = sum(len(level["sign"]) for level in tree.levels) - nodes
        nodes += grown
        assert sum(builds) == grown - (seed == 1)
    assert nodes > 300


def test_every_kept_sample_leaf_holds_the_cold_values():
    """Each kept leaf holds a chance of +1 in [0, 1] per live term, with its cold leaf's bits.

    The shots read on the warm tree have the cold tree's bits too.
    """
    circuit, observable = oracle_instance(3, LAYOUTS["two cuts"], 2)
    plan = sampler_module._compile(circuit, observable, MeasureMode.EIGENVALUE_SAMPLE)
    warm, cold = sampler_module._Tree(plan), sampler_module._Tree(plan)
    sampler_module._walk(plan, warm, stream_starts(1, 0, 20))
    later = stream_starts(2, 0, 400)
    shots = sampler_module._walk(plan, warm, later)
    for warm_values, cold_values in zip(shots, sampler_module._walk(plan, cold, later)):
        assert warm_values.tobytes() == cold_values.tobytes()

    def by_path(tree):
        # each leaf's local route keys (key mod row width) from the root, to its chance row
        paths = {(): 0}
        for level in tree.levels[:-1]:
            paths = {
                path + (local,): child
                for path, node in paths.items()
                for local, child in enumerate(level["children"][node].tolist())
                if child >= 0
            }
        return {path: tree.levels[-1]["chance"][leaf] for path, leaf in paths.items()}

    warm_leaves, cold_leaves = by_path(warm), by_path(cold)
    chances = warm.levels[-1]["chance"]
    assert chances.shape == (len(warm_leaves), len(plan.paulis))
    assert ((chances >= 0.0) & (chances <= 1.0)).all()
    shared = warm_leaves.keys() & cold_leaves.keys()
    assert len(shared) > 10
    for path in shared:
        assert warm_leaves[path].tobytes() == cold_leaves[path].tobytes()


def test_kept_tree_memory_stays_bounded():
    """A 3-cut, 10-qubit estimate at 2^17 shots: the frontier plus at most _TREE_BYTES.

    Without the bound its tree would keep 2446 level-2 states of 16 KiB
    and 43 MiB in all. The peak must stay within 32 MiB plus
    ``_TREE_BYTES`` above the 1 MiB value array, and 50 more calls with new
    seeds keep the tree in its bound.
    """
    rng = np.random.default_rng(5)
    gates = [SingleGate(q, Y_AXIS, float(rng.uniform(0, PI))) for q in range(10)]
    for theta in ((0.5, 0.3, 0.0), (0.6, 0.2, 0.0), (0.4, 0.0, 0.0)):
        gates += [
            CanonicalGate((4, 5), ThetaVector(*theta), cut=True),
            CanonicalGate((3, 4), ThetaVector(0.2, 0.1, 0.05)),
            CanonicalGate((5, 6), ThetaVector(0.3, 0.1, 0.05)),
        ]
    circuit = Circuit(10, tuple(gates))
    observable = Observable(((1.0, "IIIZZZIIII"),))
    shots = 1 << 17
    tracemalloc.start()
    try:
        estimate(circuit, observable, EstimatorConfig(shots=shots, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a larger table is a change of this bound, not of the constant alone
    assert sampler_module._TREE_BYTES <= 8 * 2**20
    assert peak - 8 * shots < 32 * 2**20 + sampler_module._TREE_BYTES
    tree = sampler_module._last[4]["tree"]
    assert len(tree.levels[2]["sign"]) > 100
    for seed in range(2, 52):
        estimate(circuit, observable, EstimatorConfig(shots=500, seed=seed))
        tree = sampler_module._last[4]["tree"]
        assert tree_bytes(tree) <= tree.allocated <= sampler_module._TREE_BYTES


def test_estimates_in_threads_never_share_a_tree(monkeypatch):
    """Six threads estimate one circuit at once: each result is the one an empty slot gives."""
    circuit, observable = oracle_instance(8, LAYOUTS["two cuts"], 2)
    configs = [EstimatorConfig(shots=200, seed=seed) for seed in range(48)]
    cold = []
    for config in configs:
        monkeypatch.setattr(sampler_module, "_last", (None,) * 5)
        cold.append(estimate(circuit, observable, config))
    got = {}

    def work(i):
        for j in range(i, len(configs), 6):
            got[j] = estimate(circuit, observable, configs[j])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == dict(enumerate(cold))
