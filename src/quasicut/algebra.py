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

States are dense pure vectors: every outcome of a channel's realization
maps a pure state to a pure state (outcomes renormalize), and mixtures
arise only as averages over samples, which verification forms from
``density_matrix()``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate
from math import isfinite
from numbers import Real

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


def integer(value, what: str) -> int:
    """``value`` as a plain int; bools and non-integers raise ValueError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def finite_real(value, what: str) -> float:
    """``value`` as a float; ValueError unless a finite real number that is not a bool."""
    if type(value) is float and isfinite(value):  # the common case, without the ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError as exc:
        raise ValueError(f"{what} is too large for a float") from exc
    if not isfinite(x):
        raise ValueError(f"{what} must be finite, got {x}")
    return x


def running_norm(coefficients) -> tuple[float, ...]:
    """Cumulative |c| of ``coefficients``; its last entry is the package's one one-norm.

    W and o_max are read from it, so each is the sampler's last draw point bit
    for bit: it sums left to right, where ``sum`` is compensated from 3.12 on.
    """
    return tuple(accumulate(map(abs, coefficients)))


def unit_axis(axis, what: str) -> tuple[float, float, float]:
    """``axis`` as three finite floats; ValueError unless of unit length to 1e-12."""
    try:
        ax = tuple(finite_real(x, f"{what} entry") for x in axis)
    except TypeError as exc:
        raise ValueError(f"{what} must be a unit 3-vector, got {axis!r}") from exc
    if len(ax) != 3 or abs(sum(x * x for x in ax) - 1.0) > _AXIS_TOL:
        raise ValueError(f"{what} must be a unit 3-vector, got {ax}")
    return ax


def unitary_matrix(matrix, dim: int, what: str) -> np.ndarray:
    """A complex copy of ``matrix``; ValueError unless dim x dim, finite and unitary to 1e-10."""
    m = np.array(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got shape {m.shape}")
    # a unitary's entries have modulus <= 1; the bound rejects NaN and inf and keeps m m^+ finite
    bounded = (np.abs(m) <= 1.0 + _UNITARITY_TOL).all()
    if not bounded or np.abs(m @ m.conj().T - np.eye(dim)).max() > _UNITARITY_TOL:
        raise ValueError(f"{what} is not a finite unitary within 1e-10")
    return m


def pauli_basis(num_qubits: int) -> list[np.ndarray]:
    """All 4**n tensor products of Paulis, base-4 indexed (digit 0 = qubit 0)."""
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    basis = list(PAULIS)
    for _ in range(num_qubits - 1):
        basis = [np.kron(a, p) for a in basis for p in PAULIS]
    return basis


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Dense n-qubit pure state: its own read-only complex copy of a finite 2^n-vector."""

    num_qubits: int
    vector: np.ndarray

    def __post_init__(self) -> None:
        n = integer(self.num_qubits, "num_qubits")
        try:
            vec = np.array(self.vector, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"state vector must be a complex vector, got {self.vector!r}") from exc
        # count_nonzero costs less than .all() on the 2-vectors that realize returns
        if vec.shape != (2**n,) or np.count_nonzero(np.isfinite(vec)) < vec.size:
            raise ValueError(f"state vector must be finite of shape ({2**n},), got {vec!r}")
        vec.setflags(write=False)
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "vector", vec)

    @classmethod
    def pure(cls, vector) -> QuantumState:
        """The state of ``vector``, whose length 2^n gives n; ValueError if all zero."""
        dim = np.size(vector)
        n = dim.bit_length() - 1
        if dim < 2 or 2**n != dim:
            raise ValueError(f"dimension {dim} is not a power of two")
        state = cls(num_qubits=n, vector=vector)
        if not state.vector.any():
            raise ValueError("the all-zero vector is not a state")
        return state

    def density_matrix(self) -> np.ndarray:
        """The state's outer product |psi><psi|."""
        return np.outer(self.vector, self.vector.conj())


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
