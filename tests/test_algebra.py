"""Pauli algebra, state containers, and the dense PTM oracle."""

import numpy as np
import pytest

from quasicut.algebra import (
    PAULIS,
    SIGMA_0,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    QuantumState,
    pauli_basis,
    ptm_from_action,
    ptm_of_unitary,
)


def test_pauli_matrices_are_hermitian_unitary_involutions():
    for p in PAULIS:
        np.testing.assert_allclose(p, p.conj().T, atol=0)
        np.testing.assert_allclose(p @ p, SIGMA_0, atol=0)


def test_pauli_products():
    np.testing.assert_allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z, atol=0)
    np.testing.assert_allclose(SIGMA_Y @ SIGMA_Z, 1j * SIGMA_X, atol=0)
    np.testing.assert_allclose(SIGMA_Z @ SIGMA_X, 1j * SIGMA_Y, atol=0)


def test_paulis_are_read_only():
    with pytest.raises(ValueError):
        SIGMA_X[0, 0] = 5.0


def test_kron_puts_first_factor_on_qubit_zero():
    # X on qubit 0 of |00> must give |10>: qubit 0 is the most significant bit
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    out = np.kron(SIGMA_X, SIGMA_0) @ psi
    expected = np.zeros(4, dtype=complex)
    expected[2] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_pauli_basis_two_qubits():
    basis = pauli_basis(2)
    assert len(basis) == 16
    np.testing.assert_array_equal(basis[0], np.eye(4))
    # element ordering is row-major in (alpha_left, alpha_right)
    np.testing.assert_array_equal(basis[1], np.kron(SIGMA_0, SIGMA_X))
    np.testing.assert_array_equal(basis[4], np.kron(SIGMA_X, SIGMA_0))
    for m in basis:
        np.testing.assert_allclose(m, m.conj().T, atol=0)


def test_state_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        QuantumState(num_qubits=2, vector=np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        QuantumState.pure(np.zeros(4))  # the all-zero vector is not a state
    with pytest.raises(ValueError):
        QuantumState.pure(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        QuantumState.pure(np.array([1.0, 0.0, 0.0]))
    for bad in (
        {"num_qubits": 1, "vector": [1, 0, 0]},
        {"num_qubits": 1, "vector": [[1, 0]]},
        {"num_qubits": 1, "vector": ["a", 0]},
        {"num_qubits": 1, "vector": 5},
        {"num_qubits": 1, "vector": [np.inf, 0]},
        {"num_qubits": 1.0, "vector": [1, 0]},
    ):
        with pytest.raises(ValueError):
            QuantumState(**bad)
    for bad in (5, [[1, 0], [0, 1]], [1, [0]]):
        with pytest.raises(ValueError):
            QuantumState.pure(bad)
    # a list is a vector too
    assert QuantumState(num_qubits=1, vector=[1, 0]).vector.tolist() == [1, 0]


def test_state_keeps_its_own_read_only_vector():
    v = np.array([1, 0], dtype=complex)
    s = QuantumState.pure(v)
    v[0] = 5
    assert s.vector.tolist() == [1, 0] and not s.vector.flags.writeable
    w = np.array([0, 1], dtype=complex)
    t = QuantumState(num_qubits=1, vector=w)
    w[1] = 5
    assert t.vector.tolist() == [0, 1] and not t.vector.flags.writeable
    # a read-only view of a writable array still changes under it, so it is copied too
    x = np.array([1, 0], dtype=complex)
    view = x[:]
    view.setflags(write=False)
    u = QuantumState(num_qubits=1, vector=view)
    x[0] = 5
    assert u.vector.tolist() == [1, 0] and not u.vector.flags.writeable
    # so is a list
    items = [0, 1]
    assert QuantumState(num_qubits=1, vector=items).vector.dtype == complex


def test_ptm_of_pauli_x_conjugation():
    # conjugation by X fixes I and X, flips Y and Z
    ptm = ptm_from_action(lambda m: SIGMA_X @ m @ SIGMA_X, 1)
    np.testing.assert_allclose(ptm, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-15)


def test_ptm_of_unitary_matches_generic_action():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(g)
    direct = ptm_from_action(lambda m: q @ m @ q.conj().T, 1)
    np.testing.assert_allclose(ptm_of_unitary(q, 1), direct, atol=1e-13)


def test_two_qubit_ptm_of_product_unitary_factorizes():
    u = np.kron(SIGMA_X, SIGMA_0)
    np.testing.assert_allclose(
        ptm_of_unitary(u, 2),
        np.kron(ptm_of_unitary(SIGMA_X, 1), np.eye(4)),
        atol=1e-13,
    )


def test_ptm_entries_are_real_storage():
    t = ptm_of_unitary(SIGMA_Y, 1)
    assert t.dtype == np.float64


def test_ptm_rejects_non_pauli_preserving_maps():
    with pytest.raises(ValueError):
        ptm_from_action(lambda m: 1j * m, 1)
    with pytest.raises(ValueError):
        ptm_from_action(lambda m: np.full((2, 2), np.nan), 1)
    with pytest.raises(ValueError, match="num_qubits"):
        ptm_from_action(lambda m: m, 0)
