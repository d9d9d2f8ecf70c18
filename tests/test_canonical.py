"""Canonical two-qubit gates and their Pauli-product coefficients.

The matrix-exponential route through scipy is the independent oracle here;
the library itself never calls expm.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from quasicut.algebra import PAULIS
from quasicut.canonical import (
    PauliCoeffs,
    ThetaVector,
    canonical_unitary,
    pauli_coefficients,
    pauli_projection,
)
from quasicut.circuit import CanonicalGate

PI = np.pi


def exponential_oracle(theta):
    gen = sum(t * np.kron(PAULIS[k + 1], PAULIS[k + 1]) for k, t in enumerate(theta))
    return expm(1j * gen)


def closed_form_oracle(theta):
    """Coefficient formulas written out independently of the library."""
    c = [np.cos(t) for t in theta]
    s = [np.sin(t) for t in theta]
    return np.array(
        [
            c[0] * c[1] * c[2] + 1j * s[0] * s[1] * s[2],
            c[0] * s[1] * s[2] + 1j * s[0] * c[1] * c[2],
            s[0] * c[1] * s[2] + 1j * c[0] * s[1] * c[2],
            s[0] * s[1] * c[2] + 1j * c[0] * c[1] * s[2],
        ]
    )


def test_theta_vector_coercion_and_iteration():
    tv = ThetaVector.coerce((0.1, 0.2, 0.3))
    assert tuple(tv) == (0.1, 0.2, 0.3)
    assert list(tv) == [0.1, 0.2, 0.3]
    assert ThetaVector.coerce(tv) is tv
    with pytest.raises(ValueError):
        ThetaVector.coerce((0.1, 0.2))
    for bad in (np.nan, np.inf, 10**400, "a", True, 1j, None):
        with pytest.raises(ValueError):
            ThetaVector(bad, 0.0, 0.0)
        with pytest.raises(ValueError):
            ThetaVector.coerce((0.0, 0.0, bad))
    # every angle is stored as a float
    tv = ThetaVector(1, np.float32(0.5), np.int64(0))
    assert [type(t) for t in tv] == [float, float, float] and tuple(tv) == (1.0, 0.5, 0.0)


def test_canonical_unitary_matches_matrix_exponential():
    rng = np.random.default_rng(7)
    for _ in range(200):
        theta = rng.uniform(-PI, PI, size=3)
        u = canonical_unitary(ThetaVector(*theta))
        np.testing.assert_allclose(u, exponential_oracle(theta), atol=1e-12)


def test_canonical_unitary_is_unitary():
    rng = np.random.default_rng(8)
    for _ in range(50):
        u = canonical_unitary(ThetaVector(*rng.uniform(0, PI / 4, size=3)))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_inverse_angle_gives_inverse_gate():
    theta = (0.3, 0.2, 0.1)
    u = canonical_unitary(theta)
    v = canonical_unitary((-0.3, -0.2, -0.1))
    np.testing.assert_allclose(u @ v, np.eye(4), atol=1e-12)


def test_pauli_coefficients_match_closed_form():
    rng = np.random.default_rng(9)
    for _ in range(500):
        theta = rng.uniform(-PI, PI, size=3)
        u = pauli_coefficients(ThetaVector(*theta))
        np.testing.assert_allclose(np.asarray(u.values), closed_form_oracle(theta), atol=1e-12)


def test_pauli_coefficients_reconstruct_the_gate():
    rng = np.random.default_rng(10)
    for _ in range(50):
        theta = ThetaVector(*rng.uniform(0, PI / 4, size=3))
        u = pauli_coefficients(theta)
        rebuilt = sum(
            u[alpha] * np.kron(PAULIS[alpha], PAULIS[alpha]) for alpha in range(4)
        )
        np.testing.assert_allclose(rebuilt, canonical_unitary(theta), atol=1e-12)


@given(st.tuples(*[st.floats(-PI, PI)] * 3))
def test_projecting_a_gate_matrix_gives_its_coefficients_bit_for_bit(theta):
    """The sampler projects a cut gate's own matrix instead of rebuilding it."""
    projected = pauli_projection(CanonicalGate((0, 1), theta).matrix).values
    assert projected.tobytes() == pauli_coefficients(theta).values.tobytes()


def test_frozen_coefficients_at_quarter_pi():
    u = pauli_coefficients(ThetaVector(PI / 4, 0.0, 0.0))
    r = np.sqrt(0.5)
    np.testing.assert_allclose(np.asarray(u.values), [r, 1j * r, 0.0, 0.0], atol=1e-15)
    assert abs(u[0] - r) < 1e-15 and abs(u[1] - 1j * r) < 1e-15


def test_coefficient_magnitudes_sum_to_one():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        u = pauli_coefficients(ThetaVector(*rng.uniform(-PI, PI, size=3)))
        assert abs(float(np.sum(np.abs(np.asarray(u.values)) ** 2)) - 1.0) < 1e-12


def test_full_swap_point_overlaps_swap_gate():
    u = canonical_unitary(ThetaVector(PI / 4, PI / 4, PI / 4))
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    assert abs(abs(np.trace(swap.conj().T @ u)) - 4.0) < 1e-12


def test_pauli_coeffs_validation():
    with pytest.raises(ValueError):
        PauliCoeffs(np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))  # not unit norm
    with pytest.raises(ValueError):
        PauliCoeffs(np.array([1.0, 0.0, 0.0], dtype=complex))
    for big in (1e308, 1e200 + 1e200j):  # |u|^2 would overflow
        with pytest.raises(ValueError):
            PauliCoeffs([big, 0.0, 0.0, 0.0])


def test_weyl_domain_predicate(in_weyl_domain):
    assert in_weyl_domain((0.0, 0.0, 0.0))
    assert in_weyl_domain((PI / 4, 0.0, 0.0))
    assert in_weyl_domain((PI / 4, PI / 4, PI / 4))
    assert in_weyl_domain((0.3, 0.2, 0.1))
    assert not in_weyl_domain((0.0, PI / 4, 0.0))  # ordering violated
    assert not in_weyl_domain((PI / 4 + 0.01, 0.0, 0.0))
    assert not in_weyl_domain((0.2, 0.1, -0.05))
    # tolerance admits boundary noise
    assert in_weyl_domain((PI / 4 + 1e-13, 0.0, 0.0))


