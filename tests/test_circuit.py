"""Circuits, observables, exact simulation, and the gate-level estimator."""

import numpy as np
import pytest

from quasicut.algebra import PAULIS
from quasicut.canonical import PauliCoeffs, ThetaVector, canonical_unitary, pauli_coefficients
from quasicut.circuit import (
    MAX_QUBITS,
    CanonicalGate,
    Circuit,
    Observable,
    Raw1QGate,
    Raw2QGate,
    SingleGate,
    apply_1q,
    apply_2q,
    exact_expectation,
    gate_based_cost,
    gate_based_estimate,
    initial_state,
    pauli_string_apply,
    pauli_string_expectation,
    pauli_table,
    statevector,
)
from quasicut.documents import (
    FormatError,
    circuit_from_doc,
    circuit_to_doc,
    observable_from_doc,
    observable_to_doc,
)

PI = np.pi

Y_AXIS = (0.0, 1.0, 0.0)
ZZ = Observable(((1.0, "ZZ"),))


def bell_circuit(cut=False):
    # exp(i pi/4 XX)|00> is a Bell state with <ZZ> = 1
    return Circuit(2, (CanonicalGate((0, 1), ThetaVector(PI / 4, 0, 0), cut=cut),))


def test_empty_circuit_expectation():
    assert exact_expectation(Circuit(1, ()), Observable(((1.0, "Z"),))) == 1.0


def test_single_qubit_rotation_expectation():
    for theta in (0.0, 0.3, PI / 4, 1.1):
        circuit = Circuit(1, (SingleGate(0, Y_AXIS, theta),))
        got = exact_expectation(circuit, Observable(((1.0, "Z"),)))
        assert abs(got - np.cos(2 * theta)) < 1e-12


def test_bell_state_correlations():
    assert abs(exact_expectation(bell_circuit(), ZZ) - 1.0) < 1e-12
    # cut flags never change the exact route
    assert abs(exact_expectation(bell_circuit(cut=True), ZZ) - 1.0) < 1e-12


def test_raw_gate_flip():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    circuit = Circuit(1, (Raw1QGate(0, x),))
    assert abs(exact_expectation(circuit, Observable(((1.0, "Z"),))) + 1.0) < 1e-12


def test_statevector_of_bell_circuit():
    psi = statevector(bell_circuit())
    expected = np.zeros(4, dtype=complex)
    expected[0] = np.sqrt(0.5)
    expected[3] = 1j * np.sqrt(0.5)
    np.testing.assert_allclose(psi, expected, atol=1e-12)


def test_apply_1q_positions_against_kron():
    rng = np.random.default_rng(50)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(g)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    eye = np.eye(2, dtype=complex)
    full = [
        np.kron(np.kron(q, eye), eye),
        np.kron(np.kron(eye, q), eye),
        np.kron(np.kron(eye, eye), q),
    ]
    for qubit in range(3):
        np.testing.assert_allclose(
            apply_1q(psi, q, qubit, 3), full[qubit] @ psi, atol=1e-12
        )


def test_apply_2q_general_placement():
    rng = np.random.default_rng(51)
    u = canonical_unitary(ThetaVector(0.3, 0.2, 0.1))
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    eye = np.eye(2, dtype=complex)
    # act on qubits (0, 2) of three: compare against an explicit embedding
    swap12 = np.eye(8)[[0, 2, 1, 3, 4, 6, 5, 7]]
    embedded = swap12 @ np.kron(u, eye) @ swap12
    np.testing.assert_allclose(apply_2q(psi, u, 0, 2, 3), embedded @ psi, atol=1e-12)


def test_apply_2q_matches_kron_on_every_ordered_pair():
    # a random (not swap-symmetric) unitary, so the factor order shows
    rng = np.random.default_rng(52)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi /= np.linalg.norm(psi)
    for a in range(4):
        for b in range(4):
            if a == b:
                continue
            # P maps the natural qubit order to (a, b, rest); U acts as
            # P^T (u (x) I) P
            order = [a, b] + [q for q in range(4) if q not in (a, b)]
            perm = np.eye(16).reshape([2] * 4 + [16]).transpose(order + [4]).reshape(16, 16)
            full = perm.T @ np.kron(u, np.eye(4)) @ perm
            np.testing.assert_allclose(apply_2q(psi, u, a, b, 4), full @ psi, rtol=0, atol=1e-14)


@pytest.mark.parametrize("rows", [1, 3, 5])
@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
def test_kernels_act_row_by_row_on_a_batch(num_qubits, rows):
    rng = np.random.default_rng([53, num_qubits, rows])
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    u4, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    block = rng.normal(size=(rows, 2**num_qubits)) + 1j * rng.normal(size=(rows, 2**num_qubits))
    calls = [lambda psi, q=q: apply_1q(psi, u, q, num_qubits) for q in range(num_qubits)]
    calls += [
        lambda psi, a=a, b=b: apply_2q(psi, u4, a, b, num_qubits)
        for a in range(num_qubits)
        for b in range(num_qubits)
        if a != b
    ]
    for call in calls:
        out = call(block)
        assert out.shape == block.shape
        for row, state in zip(out, block):
            single = call(state)
            assert single.shape == state.shape
            np.testing.assert_allclose(row, single, rtol=0, atol=1e-14)


def test_observable_requires_consistent_terms():
    with pytest.raises(ValueError):
        Observable(())
    with pytest.raises(ValueError):
        Observable(((1.0, "Z"), (1.0, "ZZ")))
    with pytest.raises(ValueError):
        Observable(((1.0, "ZQ"),))
    with pytest.raises(ValueError):
        Observable(((0.0, "Z"),))
    with pytest.raises(ValueError):
        Observable(((np.inf, "Z"),))
    with pytest.raises(ValueError, match="o_max"):
        Observable(((1e308, "ZZ"), (1e308, "ZI")))
    for terms in (((True, "Z"),), (("1.0", "Z"),), ((10**400, "Z"),), ((1.0, ""),), ((1.0, 3),)):
        with pytest.raises(ValueError):
            Observable(terms)
    # the observable keeps its own tuple: a term appended to the caller's list later is not in it
    terms = [(1.0, "Z")]
    obs = Observable(terms)
    terms.append((float("nan"), "Q"))
    assert obs.terms == ((1.0, "Z"),) and obs.o_max == 1.0


def test_observable_o_max_and_matrix():
    obs = Observable(((0.5, "XX"), (-1.5, "ZZ")))
    assert obs.terms == ((0.5, "XX"), (-1.5, "ZZ"))
    assert obs.o_max == 2.0
    assert obs.num_qubits == 2


def pauli_string_matrix(pauli):
    """The dense Kronecker product of a Pauli string, qubit 0 the leftmost factor."""
    block = np.eye(1, dtype=complex)
    for ch in pauli:
        block = np.kron(block, PAULIS["IXYZ".index(ch)])
    return block


def test_pauli_string_matrix_matches_expectation_route():
    rng = np.random.default_rng(52)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    for pauli in ("XY", "ZI", "YY", "IZ"):
        direct = float(np.real(np.vdot(psi, pauli_string_matrix(pauli) @ psi)))
        assert abs(pauli_string_expectation(psi, pauli, 2) - direct) < 1e-12


def per_factor_apply(psi, pauli, n):
    """P psi as one ``apply_1q`` product per non-identity factor: the kernel's reference."""
    for q, ch in enumerate(pauli):
        if ch != "I":
            psi = apply_1q(psi, PAULIS["IXYZ".index(ch)], q, n)
    return psi


def pauli_kernel_cases():
    """(psi, pauli, n): 1-12 qubits, 1-40 rows, exact zeros in every third case."""
    rng = np.random.default_rng(34)
    for case in range(240):
        n, rows = int(rng.integers(1, 13)), int(rng.integers(1, 41))
        psi = rng.normal(size=(rows, 2**n)) + 1j * rng.normal(size=(rows, 2**n))
        if case % 3 == 0:
            psi[rng.random(psi.shape) < 0.3] = 0.0
            psi.real[rng.random(psi.shape) < 0.2] = 0.0
            psi.imag[rng.random(psi.shape) < 0.2] = -0.0
        pauli = "I" * n if case % 20 == 0 else "".join(rng.choice(list("IXYZ"), size=n))
        yield psi, pauli, n


def test_pauli_kernel_is_the_per_factor_products_bit_for_bit():
    """The signed permutation gives every product's bits, and every expectation's.

    Only the sign of an exact zero, a real or imaginary part, may differ:
    BLAS adds the product of a zero matrix entry and the pair's other
    amplitude, whose sign it takes. The expectation sums conj(psi) times
    the amplitudes, so such a zero's sign never reaches it.
    """
    widths = set()
    for psi, pauli, n in pauli_kernel_cases():
        want, got = per_factor_apply(psi, pauli, n), pauli_string_apply(psi, pauli, n)
        assert np.array_equal(got, want), pauli
        parts, want_parts = (np.ascontiguousarray(a).view(float) for a in (got, want))
        nonzero = want_parts != 0.0
        assert parts[nonzero].tobytes() == want_parts[nonzero].tobytes(), pauli
        expected = np.einsum("...j,...j->...", psi.conj(), want).real
        assert pauli_string_expectation(psi, pauli, n).tobytes() == expected.tobytes(), pauli
        widths.add(n)
    assert widths == set(range(1, 13))


def test_pauli_tables_are_read_only_and_bounded():
    """The kept tables cannot be written, and at most 64 of them, 6 MiB, are kept."""
    source, phase = pauli_table("XYZI", 4)
    assert not source.flags.writeable and not phase.flags.writeable
    assert pauli_table("XYZI", 4)[0] is source  # kept, not rebuilt
    assert pauli_table("ZIZ", 3)[0] is None  # no permutation without an X or Y
    assert pauli_table("XIX", 3)[1] is None  # no phase without a Y or Z
    bound = pauli_table.cache_info().maxsize
    assert bound == 64 and "The last 64 tables are kept" in pauli_table.__doc__
    assert bound * 2**MAX_QUBITS * (8 + 16) == 6 * 2**20 and "6 MiB" in pauli_table.__doc__


@pytest.mark.parametrize("pauli, n", [("XA", 2), ("xz", 2), ("X Z", 3), ("XZ", 3), ("XYZ", 2)])
def test_pauli_kernel_rejects_bad_strings(pauli, n):
    with pytest.raises(ValueError, match="bad Pauli string"):
        pauli_string_apply(np.ones(2**n, dtype=complex), pauli, n)
    with pytest.raises(ValueError, match="bad Pauli string"):
        pauli_string_expectation(np.ones(2**n, dtype=complex), pauli, n)


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(0, ())
    with pytest.raises(ValueError):
        Circuit(13, ())
    with pytest.raises(ValueError):
        Circuit(1, (SingleGate(1, Y_AXIS, 0.1),))
    with pytest.raises(ValueError):
        Circuit(2, (CanonicalGate((0, 0), ThetaVector(0.1, 0, 0)),))
    with pytest.raises(ValueError):
        CanonicalGate((0, 1), ThetaVector(0.1, 0, 0), cut="no")  # truthy, but not a bool
    for build in (
        lambda: Circuit(1, ["x"]),
        lambda: Circuit(1, (None,)),
        lambda: SingleGate(0, Y_AXIS, 10**400),
        lambda: SingleGate(0, Y_AXIS, True),
        lambda: SingleGate(0, Y_AXIS, "0.3"),
        lambda: SingleGate(0, (0, 0, 10**400), 0.3),
        lambda: CanonicalGate((0, 1), (10**400, 0, 0)),
        # a number where a container belongs
        lambda: CanonicalGate((0, 1), 5),
        lambda: CanonicalGate(5, (0.1, 0, 0)),
        lambda: Circuit(1, 5),
        lambda: SingleGate(0, 5, 0.1),
        lambda: Observable(5),
        lambda: Observable((5,)),
    ):
        with pytest.raises(ValueError):
            build()
    with pytest.raises(ValueError):
        exact_expectation(Circuit(1, ()), ZZ)  # width mismatch
    # the circuit keeps its own tuple: a gate appended to the caller's list later is not in it
    gates = [SingleGate(0, Y_AXIS, 0.1)]
    circuit = Circuit(1, gates)
    gates.append(SingleGate(5, Y_AXIS, 0.1))
    assert circuit.gates == (SingleGate(0, Y_AXIS, 0.1),)
    assert abs(exact_expectation(circuit, Observable(((1.0, "Z"),))) - np.cos(0.2)) < 1e-12


def test_gate_parameters_must_be_finite():
    nan, inf = float("nan"), float("inf")
    for build in (
        lambda: SingleGate(0, Y_AXIS, nan),
        lambda: SingleGate(0, Y_AXIS, inf),
        lambda: SingleGate(0, (nan, 0.0, 0.0), 0.3),
        lambda: SingleGate(0, (inf, 0.0, 0.0), 0.3),
        lambda: Raw1QGate(0, np.array([[nan, 0.0], [0.0, 1.0]])),
        lambda: Raw1QGate(0, np.array([[inf, 0.0], [0.0, 1.0]])),
        lambda: Raw1QGate(0, np.array([[1e200, 1e200], [1e200, -1e200]])),  # m m^+ overflows
    ):
        with pytest.raises(ValueError, match="finite"):
            build()
    with pytest.raises(ValueError, match="2x2"):
        Raw1QGate(0, np.eye(3))
    assert type(SingleGate(0, Y_AXIS, 1).theta) is float


def test_raw_two_qubit_gate_is_a_checked_read_only_unitary():
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    gate = Raw2QGate((3, 1), swap)
    assert gate.qubits == (3, 1) and np.array_equal(gate.matrix, swap)
    assert not gate.matrix.flags.writeable and swap.flags.writeable
    for qubits in ((1, 1), (0,), (0, 1, 2), 3, (0.0, 1)):
        with pytest.raises(ValueError):
            Raw2QGate(qubits, swap)


def test_gate_products_check_shape_and_qubits_only():
    """A product of validated gates skips the unitarity check but keeps the others."""
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    near = (1.0 + 1e-10) * swap  # off unitarity by 2e-10
    with pytest.raises(ValueError):
        Raw1QGate(0, near[:2, :2])  # a circuit's own gate is still checked
    gate = Raw2QGate((np.int64(3), 1), near)
    assert gate.qubits == (3, 1) and type(gate.qubits[0]) is int
    assert np.array_equal(gate.matrix, near)
    assert not gate.matrix.flags.writeable and near.flags.writeable
    for matrix in (np.eye(2), np.eye(4)[:3], np.eye(8)):
        with pytest.raises(ValueError, match="4x4"):
            Raw2QGate((0, 1), matrix)
    for qubits in ((1, 1), (0,), (0, 1, 2), 3, (0.0, 1), ("0", 1)):
        with pytest.raises(ValueError):
            Raw2QGate(qubits, swap)


def test_validated_matrices_leave_the_callers_arrays_writable():
    """Gates and coefficients freeze their own copies, not the arrays passed in."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    u = np.array([0.6, 0.8j, 0, 0], dtype=complex)
    frozen = (Raw1QGate(0, x).matrix, PauliCoeffs(u).values)
    assert not any(a.flags.writeable for a in frozen)
    x[0, 0] = 0.0  # the caller's arrays used to be frozen in place
    u[2] = 0.0


def test_qubit_indices_must_be_integers():
    theta = ThetaVector(0.1, 0, 0)
    eye = np.eye(2)
    for build in (
        lambda: CanonicalGate((0, 1.7), theta),  # int() would make it (0, 1)
        lambda: CanonicalGate((True, 1), theta),
        lambda: Circuit(2, (SingleGate(1.5, Y_AXIS, 0.2),)),  # in range, not an index
        lambda: SingleGate(np.float64(1.0), Y_AXIS, 0.2),
        lambda: Raw1QGate(False, eye),
        lambda: Raw1QGate("0", eye),
        lambda: Circuit(True, ()),  # a bool is not a qubit count
        lambda: Circuit(2.0, ()),
    ):
        with pytest.raises(ValueError):
            build()
    # numpy integers are accepted and stored as plain ints
    gate = CanonicalGate((np.int64(1), np.int32(0)), theta)
    single = SingleGate(np.int64(1), Y_AXIS, 0.2)
    circuit = Circuit(np.int64(2), (gate, single, Raw1QGate(np.int8(0), eye)))
    assert gate.qubits == (1, 0) and all(type(q) is int for q in gate.qubits)
    assert type(single.qubit) is int and type(circuit.num_qubits) is int
    assert type(circuit.gates[2].qubit) is int


def test_cut_indices():
    circuit = Circuit(
        2,
        (
            SingleGate(0, Y_AXIS, 0.1),
            CanonicalGate((0, 1), ThetaVector(0.1, 0, 0), cut=True),
            CanonicalGate((0, 1), ThetaVector(0.2, 0, 0), cut=False),
            CanonicalGate((1, 0), ThetaVector(0.3, 0, 0), cut=True),
        ),
    )
    assert circuit.cut_indices() == (1, 3)


# --- gate-level estimator --------------------------------------------------


def test_gate_based_cost_landmarks():
    assert abs(gate_based_cost(pauli_coefficients(ThetaVector(PI / 4, 0, 0))) - 2.0) < 1e-12
    u_swap = pauli_coefficients(ThetaVector(PI / 4, PI / 4, PI / 4))
    assert abs(gate_based_cost(u_swap) - 4.0) < 1e-12
    assert gate_based_cost([1.0, 0.0, 0.0, 0.0]) == 1.0


def test_gate_based_estimate_identity_is_exact():
    circuit = Circuit(
        2,
        (
            SingleGate(0, Y_AXIS, 0.37),
            CanonicalGate((0, 1), ThetaVector(0.0, 0.0, 0.0), cut=True),
        ),
    )
    exact = exact_expectation(circuit, ZZ)
    got = gate_based_estimate(circuit, 1, ZZ, 50, np.random.default_rng(3))
    assert abs(got - exact) < 1e-12


def test_gate_based_estimate_is_unbiased():
    circuit = bell_circuit(cut=True)
    exact = exact_expectation(circuit, ZZ)
    got = gate_based_estimate(circuit, 0, ZZ, 40000, np.random.default_rng(5))
    # bound per draw is the cost (=2) times o_max, so 5 sigma is generous
    assert abs(got - exact) < 5.0 * 2.0 / np.sqrt(40000.0)


def test_gate_based_estimate_validates_index():
    circuit = bell_circuit(cut=True)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        gate_based_estimate(circuit, 5, ZZ, 10, rng)
    # shots and the index are read as integers, not left to numpy
    for shots, index in ((2.5, 0), (True, 0), (10, 0.0)):
        with pytest.raises(ValueError, match="integer"):
            gate_based_estimate(circuit, index, ZZ, shots, rng)
    bad = Circuit(2, (SingleGate(0, Y_AXIS, 0.1),))
    with pytest.raises(ValueError):
        gate_based_estimate(bad, 0, ZZ, 10, rng)
    with pytest.raises(ValueError, match="shots"):
        gate_based_estimate(circuit, 0, ZZ, 0, rng)
    with pytest.raises(ValueError, match="width"):
        gate_based_estimate(circuit, 0, Observable(((1.0, "Z"),)), 10, rng)


# --- documents --------------------------------------------------------------


def full_circuit():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return Circuit(
        3,
        (
            SingleGate(1, Y_AXIS, 0.25),
            CanonicalGate((0, 2), ThetaVector(0.3, 0.2, 0.1), cut=True),
            Raw1QGate(2, x),
            CanonicalGate((1, 2), ThetaVector(0.1, 0.0, 0.0)),
        ),
    )


def test_circuit_doc_roundtrip():
    circuit = full_circuit()
    back = circuit_from_doc(circuit_to_doc(circuit))
    assert back.num_qubits == circuit.num_qubits
    assert back.cut_indices() == circuit.cut_indices()
    np.testing.assert_allclose(statevector(back), statevector(circuit), atol=1e-12)


def test_observable_doc_roundtrip():
    obs = Observable(((0.5, "XXI"), (-1.5, "ZZZ"), (0.25, "IYI")))
    assert observable_from_doc(observable_to_doc(obs)) == obs


def test_docs_reject_bad_format():
    with pytest.raises(FormatError):
        circuit_from_doc({"qubits": 2, "gates": []})
    with pytest.raises(FormatError):
        circuit_from_doc({"format": 2, "qubits": 2, "gates": []})
    with pytest.raises(FormatError):
        circuit_from_doc({"format": 1, "qubits": 2})
    with pytest.raises(FormatError):
        circuit_from_doc(
            {"format": 1, "qubits": 2, "gates": [{"type": "mystery"}]}
        )
    with pytest.raises(FormatError):
        circuit_from_doc(
            {"format": 1, "qubits": 2, "gates": [{"type": "single", "q": 0}]}
        )
    with pytest.raises(FormatError):
        observable_from_doc({"format": 1})
    with pytest.raises(FormatError):
        observable_from_doc([1, 2, 3])


def _single(**fields):
    gate = {"type": "single", "q": 0, "axis": [0, 1, 0], "theta": 0.1}
    gate.update(fields)
    return {"format": 1, "qubits": 2, "gates": [gate]}


def _canonical(**fields):
    gate = {"type": "canonical", "qs": [0, 1], "theta": [0.1, 0.0, 0.0], "cut": True}
    gate.update(fields)
    return {"format": 1, "qubits": 2, "gates": [gate]}


def _raw1q(matrix, **fields):
    gate = {"type": "raw1q", "q": 0, "matrix": matrix}
    gate.update(fields)
    return {"format": 1, "qubits": 1, "gates": [gate]}


@pytest.mark.parametrize(
    "parse, doc",
    [
        (circuit_from_doc, _canonical(cut="false")),
        (circuit_from_doc, _canonical(cut=0)),
        (circuit_from_doc, _canonical(qs=[0, 1.9])),
        (circuit_from_doc, _canonical(qs=[False, True])),
        (circuit_from_doc, _canonical(theta=["0.1", 0.0, 0.0])),
        (circuit_from_doc, _single(q=1.7)),
        (circuit_from_doc, _single(q=True)),
        (circuit_from_doc, _single(theta="0.1")),
        (circuit_from_doc, _single(axis=["0", "1", "0"])),
        (circuit_from_doc, {"format": 1, "qubits": 2.9, "gates": []}),
        (circuit_from_doc, {"format": 1, "qubits": "2", "gates": []}),
        (observable_from_doc, {"format": 1, "terms": [{"coeff": "1.5", "pauli": "Z"}]}),
        (observable_from_doc, {"format": 1, "terms": [{"coeff": True, "pauli": "Z"}]}),
        (observable_from_doc, {"format": 1, "terms": [{"coeff": 1.0, "pauli": 5}]}),
        (circuit_from_doc, _raw1q([[[True, 0], [0, 0]], [[0, 0], [1, False]]])),
        (circuit_from_doc, _raw1q([[["1", 0], [0, 0]], [[0, 0], [1, 0]]])),
        (circuit_from_doc, _raw1q([[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]])),
        (circuit_from_doc, _raw1q([[[1, 0], [0, 0]], [[0, 0]]])),
        (circuit_from_doc, _raw1q([[[1, 0], [0, 0]]])),
        # an unknown field at any level is malformed too: a misspelt "cut"
        # must not parse as an uncut gate
        (
            circuit_from_doc,
            {
                "format": 1,
                "qubits": 2,
                "gates": [{"type": "canonical", "qs": [0, 1], "theta": [0.1, 0, 0], "cutt": True}],
            },
        ),
        (circuit_from_doc, _single(cut=True)),
        (circuit_from_doc, _raw1q([[[1, 0], [0, 0]], [[0, 0], [1, 0]]], axis=[0, 0, 1])),
        (circuit_from_doc, dict(_single(), gate_count=1)),
        (observable_from_doc, {"format": 1, "terms": [{"coeff": 1.0, "pauli": "Z"}], "o_max": 1}),
        (observable_from_doc, {"format": 1, "terms": [{"coeff": 1.0, "pauli": "Z", "q": 0}]}),
        # an object or a string where an array belongs is not an empty sequence
        (circuit_from_doc, {"format": 1, "qubits": 3, "gates": {}}),
        (circuit_from_doc, {"format": 1, "qubits": 3, "gates": ""}),
        (circuit_from_doc, _single(axis={})),
        (circuit_from_doc, _single(axis="")),
        (circuit_from_doc, _canonical(qs={})),
        (circuit_from_doc, _canonical(qs="")),
        (circuit_from_doc, _canonical(theta={})),
        (circuit_from_doc, _canonical(theta="")),
        (observable_from_doc, {"format": 1, "terms": {}}),
        (observable_from_doc, {"format": 1, "terms": ""}),
        # "format" is the JSON integer 1, not a value equal to it
        (circuit_from_doc, {"format": True, "qubits": 2, "gates": []}),
        (circuit_from_doc, {"format": 1.0, "qubits": 2, "gates": []}),
        (observable_from_doc, {"format": True, "terms": [{"coeff": 1.0, "pauli": "Z"}]}),
        (observable_from_doc, {"format": 1.0, "terms": [{"coeff": 1.0, "pauli": "Z"}]}),
        # a missing field is reported before an invalid value
        (circuit_from_doc, {"format": 1, "qubits": 1, "gates": [
            {"type": "single", "q": 0, "axis": [float("nan"), 0.0, 0.0]}]}),
        (circuit_from_doc, {"format": 1, "gates": [
            {"type": "single", "q": 5, "axis": [0, 1, 0], "theta": 0.1}]}),
        (observable_from_doc, {"format": 1, "terms": [{"coeff": float("inf")}]}),
        # and a structural fault anywhere before an invalid value anywhere else
        (circuit_from_doc, _single(axis=[float("nan"), 0.0, 0.0], theta="x")),
        (circuit_from_doc, {"format": 1, "qubits": 2, "gates": [
            {"type": "single", "q": 0, "axis": [0, 0, 2], "theta": 0.1},
            {"type": "single", "q": 1, "axis": [0, 1, 0]}]}),
    ],
)
def test_docs_reject_mistyped_values(parse, doc):
    """Wrong JSON types and unknown fields are malformed input, never coerced or ignored."""
    with pytest.raises(FormatError):
        parse(doc)


def test_docs_semantic_errors_are_value_errors():
    # structurally fine, semantically impossible: exit-code boundary cases
    doc = {
        "format": 1,
        "qubits": 2,
        "gates": [{"type": "single", "q": 7, "axis": [0, 1, 0], "theta": 0.1}],
    }
    with pytest.raises(ValueError) as info:
        circuit_from_doc(doc)
    assert not isinstance(info.value, FormatError)
