"""Shot streams, shot planning, and the Monte-Carlo estimator."""

import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicut import sampler as sampler_module
from quasicut.canonical import ThetaVector, pauli_coefficients
from quasicut.circuit import (
    CanonicalGate,
    Circuit,
    Observable,
    SingleGate,
    apply_gate,
    exact_expectation,
    initial_state,
    observable_expectation,
    pauli_string_expectation,
    statevector,
)
from quasicut.decomposition import decompose
from quasicut.local_basis import realization_program, run_program
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


# --- the numpy port of the stream, one uint64 state per shot -----------------


def test_stream_array_matches_the_pinned_vectors():
    for (seed, shot), draws in STREAM_VECTORS.items():
        streams = sampler_module._StreamArray(seed, shot, 1)
        assert [float(streams.draw(np.array([0]))[0]) for _ in range(3)] == draws


def test_stream_array_clamps_the_largest_output_like_shot_stream():
    stream = ShotStream(0, 0)
    stream._z = state_before_the_largest_output()
    streams = sampler_module._StreamArray(0, 0, 3)
    streams._z[1] = stream._z
    expected = [ShotStream(0, 0).random(), stream.random(), ShotStream(0, 2).random()]
    got = streams.draw(np.arange(3)).tolist()
    assert got == expected
    assert got[1] == 1.0 - 2.0**-53


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(-(2**70), 2**70),
    last=st.integers(0, MAX_SHOTS - 1),
    count=st.integers(1, 6),
    rounds=st.lists(st.lists(st.integers(0, 5), min_size=1, unique=True), max_size=6),
)
def test_stream_array_equals_shot_stream_draw_for_draw(seed, last, count, rounds):
    """Any seed reduces mod 2**64 as the int arithmetic does; only listed shots advance."""
    start = max(0, last - count + 1)
    count = last - start + 1
    streams = sampler_module._StreamArray(seed, start, count)
    refs = [ShotStream(seed, start + i) for i in range(count)]
    for listed in rounds + [list(range(count))]:
        listed = [i for i in listed if i < count] or [0]
        got = streams.draw(np.array(listed))
        assert got.tolist() == [refs[i].random() for i in listed]


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
        with pytest.raises(ValueError, match="o_max"):
            plan_shots(0.1, 0.05, bad, 1.0)
        with pytest.raises(ValueError, match="w_total"):
            plan_shots(0.1, 0.05, 1.0, bad)


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
    ):
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)
    # any real number passes; its range is checked where shots are planned
    assert EstimatorConfig(epsilon=np.float64(0.5), delta=1).delta == 1


def test_mode_must_be_a_measure_mode():
    # a string is not the enum member, and no estimator should guess which
    with pytest.raises(ValueError):
        EstimatorConfig(shots=200, seed=1, mode="exact")
    with pytest.raises(ValueError):
        run_shot(bell_cut(), ZZ, cut_decomps(bell_cut()), ShotStream(0, 0), "exact")
    assert EstimatorConfig(shots=5, mode=MeasureMode("sample")).mode is MeasureMode.EIGENVALUE_SAMPLE


# --- single shots -----------------------------------------------------------


def test_run_shot_is_reproducible():
    circuit = bell_cut()
    decomps = cut_decomps(circuit)
    a = run_shot(circuit, ZZ, decomps, ShotStream(7, 5))
    b = run_shot(circuit, ZZ, decomps, ShotStream(7, 5))
    assert a == b


@pytest.mark.parametrize("mode", list(MeasureMode))
def test_run_shot_is_the_estimate_shot_bit_for_bit(mode):
    shots = 40
    # 3 qubits pads stacks to an even row count; 6 and 8 pad nothing
    for n in (3, 6, 8):
        circuit, observable = oracle_instance(n, LAYOUTS["two cuts"], 2)
        decomps = cut_decomps(circuit)
        plan = sampler_module._compile(circuit, observable, decomps, mode)
        x = sampler_module._walk(plan, sampler_module._StreamArray(8, 0, shots).draw, shots)[2]
        for s in range(shots):
            assert run_shot(circuit, observable, decomps, ShotStream(8, s), mode).value == x[s]


def test_run_shot_requires_decompositions():
    with pytest.raises(ValueError):
        run_shot(bell_cut(), ZZ, {}, ShotStream(0, 0))


def test_shot_phases_stay_real():
    # every decomposition coefficient and branch weight is real here
    circuit = Circuit(
        2, (CanonicalGate((0, 1), ThetaVector(0.3, 0.2, 0.1), cut=True),)
    )
    decomps = cut_decomps(circuit)
    for s in range(100):
        record = run_shot(circuit, ZZ, decomps, ShotStream(11, s))
        assert record.phase.imag == 0.0
        assert record.phase.real in (1.0, -1.0)


def test_shot_values_respect_the_bound():
    circuit = bell_cut()
    decomps = cut_decomps(circuit)
    w = decomps[0].weight
    for s in range(200):
        record = run_shot(circuit, ZZ, decomps, ShotStream(13, s), MeasureMode.EIGENVALUE_SAMPLE)
        assert abs(record.value) <= w * ZZ.o_max + 1e-9
        # eigenvalue mode only ever produces +-W o_max
        assert record.value in (w, -w)


def test_identity_cut_is_exact_every_shot():
    circuit = Circuit(
        2,
        (
            SingleGate(0, Y_AXIS, 0.3),
            CanonicalGate((0, 1), ThetaVector(0.0, 0.0, 0.0), cut=True),
        ),
    )
    decomps = cut_decomps(circuit)
    exact = exact_expectation(circuit, ZZ)
    for s in range(20):
        record = run_shot(circuit, ZZ, decomps, ShotStream(1, s))
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


# --- the compiled shot plan against per-gate re-simulation ------------------


class CountingStream:
    def __init__(self, stream):
        self.stream, self.draws = stream, 0

    def random(self):
        self.draws += 1
        return self.stream.random()


def reference_shot(circuit, observable, decomps, rng, mode):
    """Every gate re-simulated in circuit order: (phase, o', x)."""
    n = circuit.num_qubits
    psi, phase, w_total = initial_state(n), 1.0 + 0.0j, 1.0
    for idx, gate in enumerate(circuit.gates):
        if not (isinstance(gate, CanonicalGate) and gate.cut):
            psi = apply_gate(psi, gate, n)
            continue
        decomp = decomps[idx]
        w_total *= decomp.weight
        mags = np.cumsum([abs(t.coefficient) for t in decomp.terms])
        term = decomp.terms[min(bisect_right(mags, rng.random() * decomp.weight), len(mags) - 1)]
        phase *= term.coefficient / abs(term.coefficient)
        for side, cid in [(0, c) for c in term.left] + [(1, c) for c in term.right]:
            psi, w = run_program(psi, realization_program(cid), gate.qubits[side], n, rng)
            phase *= w
    if mode is MeasureMode.EXACT_TRACE:
        o_value = observable_expectation(psi, observable, n)
    else:
        live = [(c, p) for c, p in observable.terms if c != 0.0]
        cums = np.cumsum([abs(c) for c, _ in live])
        coeff, pauli = live[min(bisect_right(cums, rng.random() * cums[-1]), len(live) - 1)]
        p_plus = min(1.0, max(0.0, 0.5 * (1.0 + pauli_string_expectation(psi, pauli, n))))
        o_value = np.sign(coeff) * (1.0 if rng.random() < p_plus else -1.0) * observable.o_max
    return phase, o_value, w_total * (phase.real * o_value)


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
    """12 ``run_shot`` shots next to the reference: equal draws, (phase, o', x) to 1e-12."""
    decomps = cut_decomps(circuit)
    for s in range(12):
        ours, ref = CountingStream(ShotStream(5, s)), CountingStream(ShotStream(5, s))
        record = run_shot(circuit, observable, decomps, ours, mode)
        phase, o_value, x = reference_shot(circuit, observable, decomps, ref, mode)
        assert ours.draws == ref.draws
        assert abs(record.phase - phase) < 1e-12
        assert abs(record.observable_value - o_value) < 1e-12
        assert abs(record.value - x) < 1e-12


@pytest.mark.parametrize("mode", list(MeasureMode))
@pytest.mark.parametrize("num_qubits", [3, 6, 9])
@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_run_shot_matches_per_gate_reference(layout, num_qubits, mode):
    circuit, observable = oracle_instance(num_qubits, layout, len(layout))
    shot_against_reference(circuit, observable, mode)


def walk_against_reference(circuit, observable, mode, seed, rows):
    """One walk of ``rows`` shots, one stream each, next to the reference shot by shot.

    Asserts equal draws per row and equal (phase, o', x) to 1e-12; returns x.
    """
    decomps = cut_decomps(circuit)
    plan = sampler_module._compile(circuit, observable, decomps, mode)
    ours = [CountingStream(ShotStream(seed, s)) for s in range(rows)]
    refs = [CountingStream(ShotStream(seed, s)) for s in range(rows)]
    phase, o_value, x = sampler_module._walk(plan, sampler_module._draw_from(ours), rows)
    expected = [reference_shot(circuit, observable, decomps, ref, mode) for ref in refs]
    assert [s.draws for s in ours] == [r.draws for r in refs]
    for i, (ref_phase, ref_o, ref_x) in enumerate(expected):
        assert abs(phase[i] - ref_phase) < 1e-12
        assert abs(o_value[i] - ref_o) < 1e-12
        assert abs(x[i] - ref_x) < 1e-12
    return x


@pytest.mark.parametrize("mode", list(MeasureMode))
@pytest.mark.parametrize("num_qubits", [3, 6, 9])
@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_block_rows_match_the_per_gate_reference(layout, num_qubits, mode):
    circuit, observable = oracle_instance(num_qubits, layout, len(layout))
    walk_against_reference(circuit, observable, mode, 5, 7)


@pytest.mark.parametrize("mode", list(MeasureMode))
@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_wide_shots_match_the_reference_on_touched_qubits(layout, mode):
    """Wide shots against the reference on observables that do not vanish."""
    circuit, observable = touched_instance(layout, len(layout))
    assert abs(exact_expectation(circuit, observable)) >= 0.05
    shot_against_reference(circuit, observable, mode)
    x = walk_against_reference(circuit, observable, mode, 5, 40)
    # a shot whose path carries an imaginary phase is 0 by design
    assert np.count_nonzero(np.abs(x) > 1e-3) >= 10


PINNED_ESTIMATES = {
    # (instance, mode): (mean.hex(), std_error.hex()) at 300 shots, seed 17;
    # an oracle instance is (num_qubits, seed) on the two-cut layout
    ("bell", "exact"): ("0x1.f5c28f5c28f5cp-1", "0x1.4d486e637b650p-4"),
    ("bell", "sample"): ("0x1.051eb851eb852p+0", "0x1.4e261b7ced2d6p-3"),
    ((3, 2), "exact"): ("-0x1.6681d9f198599p-2", "0x1.35d92fc9dc571p-1"),
    ((3, 2), "sample"): ("-0x1.17f848e15819fp+0", "0x1.2f7985ed17aedp+1"),
    # this observable vanishes on every shot's state; (9, 9) below does not
    ((9, 2), "exact"): ("0x0.0p+0", "0x0.0p+0"),
    ((9, 2), "sample"): ("0x1.63b55e9d700a0p+1", "0x1.8128ff96b91d6p+1"),
    ((9, 9), "exact"): ("-0x1.2652445c125aep-8", "0x1.2adf79d64bd21p-5"),
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


@pytest.mark.parametrize("mode", list(MeasureMode))
def test_estimate_is_independent_of_the_block_size(monkeypatch, mode):
    """Chunks of 5 shots give every shot the value one chunk gives it, bit for bit."""
    circuit, observable = oracle_instance(3, LAYOUTS["two cuts"], 2)
    config = EstimatorConfig(shots=23, seed=4, mode=mode)
    chunks = []
    walk = sampler_module._walk

    def recorded(plan, draw, shots):
        out = walk(plan, draw, shots)
        chunks.append(out[2])
        return out

    monkeypatch.setattr(sampler_module, "_walk", recorded)
    whole = estimate(circuit, observable, config)
    assert [len(x) for x in chunks] == [23]
    monkeypatch.setattr(sampler_module, "_CHUNK_SHOTS", 5)
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
