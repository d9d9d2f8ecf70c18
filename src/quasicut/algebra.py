"""Pauli algebra, dense states, and Pauli transfer matrices.

Conventions used throughout the package:

* Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of a
  state-vector index.
* The n-qubit Pauli basis is indexed in base 4, first digit = qubit 0, so
  index 4*j + k on two qubits means sigma_j (x) sigma_k.
* The Pauli transfer matrix (PTM) of a linear map Phi has entries

      T[j, k] = Tr[sigma_j Phi(sigma_k)] / 2**n

  which are real for any Hermiticity-preserving map. PTMs are stored as real
  arrays; an imaginary residue above 1e-10 means the map is not
  Hermiticity-preserving and is rejected.

States are dense pure vectors: every realization program maps a pure state
to a pure state (projections renormalize), and mixtures arise only as
averages over samples, which verification forms from ``density_matrix()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)

for _p in PAULIS:
    _p.setflags(write=False)

_PTM_IMAG_TOL = 1e-10
_AXIS_TOL = 1e-12
_UNITARITY_TOL = 1e-10


def pauli_matrix(alpha: int) -> np.ndarray:
    """Single-qubit Pauli sigma_alpha, alpha in 0..3 (read-only view)."""
    if alpha not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be 0..3, got {alpha}")
    return PAULIS[alpha]


def unit_axis(axis, what: str) -> tuple[float, float, float]:
    """``axis`` as three floats; ValueError unless finite and of unit length to 1e-12."""
    ax = tuple(float(x) for x in axis)
    if len(ax) != 3 or not all(map(isfinite, ax)) or abs(sum(x * x for x in ax) - 1.0) > _AXIS_TOL:
        raise ValueError(f"{what} must be a finite unit 3-vector, got {ax}")
    return ax


def unitary_matrix(matrix, dim: int, what: str) -> np.ndarray:
    """A complex copy of ``matrix``; ValueError unless dim x dim, finite and unitary to 1e-10."""
    m = np.array(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got shape {m.shape}")
    if not np.isfinite(m).all() or np.abs(m @ m.conj().T - np.eye(dim)).max() > _UNITARITY_TOL:
        raise ValueError(f"{what} is not a finite unitary within 1e-10")
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, left factor = lower qubit index."""
    return np.kron(a, b)


def pauli_basis(num_qubits: int) -> list[np.ndarray]:
    """All 4**n tensor products of Paulis, base-4 indexed (digit 0 = qubit 0)."""
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    basis = list(PAULIS)
    for _ in range(num_qubits - 1):
        basis = [np.kron(a, p) for a in basis for p in PAULIS]
    return basis


@dataclass(frozen=True)
class QuantumState:
    """Dense n-qubit pure state vector."""

    num_qubits: int
    vector: np.ndarray

    def __post_init__(self) -> None:
        dim = 2**self.num_qubits
        if self.vector.shape != (dim,):
            raise ValueError(f"vector shape {self.vector.shape}, expected ({dim},)")
        if not np.isfinite(self.vector).all():
            raise ValueError("non-finite state entries")

    @classmethod
    def pure(cls, vector: np.ndarray) -> QuantumState:
        vec = np.asarray(vector, dtype=complex)
        dim = vec.shape[0]
        n = int(dim).bit_length() - 1
        if dim < 2 or 2**n != dim:
            raise ValueError(f"dimension {dim} is not a power of two")
        if not np.any(vec):
            raise ValueError("the all-zero vector is not a state")
        return cls(num_qubits=n, vector=vec)

    def density_matrix(self) -> np.ndarray:
        """The state's outer product |psi><psi|."""
        return np.outer(self.vector, self.vector.conj())


def expectation(state: QuantumState, operator: np.ndarray) -> float:
    """<psi|O|psi> for a Hermitian operator, as a real number.

    A residual imaginary part above 1e-10 means the operator was not
    Hermitian and raises.
    """
    dim = 2**state.num_qubits
    if operator.shape != (dim, dim):
        raise ValueError(f"operator shape {operator.shape} does not match {dim}")
    val = complex(np.vdot(state.vector, operator @ state.vector))
    if abs(val.imag) > _PTM_IMAG_TOL * max(1.0, abs(val.real)):
        raise ValueError(f"expectation has imaginary residue {val.imag}")
    return val.real


def ptm_from_action(apply, num_qubits: int) -> np.ndarray:
    """PTM of a linear map given as a callable on basis matrices.

    ``apply`` maps a 2^n x 2^n matrix to its image. The result is the real
    4^n x 4^n array T[j, k] = Tr[sigma_j apply(sigma_k)] / 2^n. Raises if any
    entry is non-finite or carries an imaginary residue above 1e-10.
    """
    basis = pauli_basis(num_qubits)
    images = np.stack([np.asarray(apply(b), dtype=complex) for b in basis])
    stack = np.stack(basis)
    entries = np.einsum("jab,kba->jk", stack, images) / 2**num_qubits
    if not np.isfinite(entries).all():
        raise ValueError("non-finite PTM entries")
    if np.max(np.abs(entries.imag)) > _PTM_IMAG_TOL:
        raise ValueError("PTM has imaginary part above 1e-10; map is not Hermiticity-preserving")
    return np.ascontiguousarray(entries.real)


def ptm_of_unitary(unitary: np.ndarray, num_qubits: int) -> np.ndarray:
    """PTM of the conjugation channel rho -> U rho U^dagger."""
    u_dag = unitary.conj().T
    return ptm_from_action(lambda m: unitary @ m @ u_dag, num_qubits)
