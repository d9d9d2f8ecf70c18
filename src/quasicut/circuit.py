"""Circuits of single-qubit rotations and canonical two-qubit gates.

The circuit model is deliberately small: axis-angle single-qubit rotations
R(n, t) = exp(-i t n . sigma), raw 2x2 unitaries, and canonical two-qubit
gates exp(i sum t_k sigma_k sigma_k) that may be flagged ``cut``. The dense
statevector simulator (up to 12 qubits) ignores cut flags and is the exact
oracle every sampling route is judged against. A Pauli string acts on a
state as a signed permutation of its amplitudes (``pauli_table``), one
gather and one phase product per stack, and the oracle and the sampler
read observables through the same kernel.

The gate-based alternative to channel cutting replaces a canonical gate with
Pauli pairs on both sides of the overlap: with U = sum_a d_a sigma_a sigma_a,

    <0| V^+ O V |0> = sum_{a',a} d_a'* d_a <0| V_a'^+ O V_a |0>,

where V_a is the circuit with the gate replaced by sigma_a (x) sigma_a.
Sampling (a, a') proportional to |d_a' d_a| and weighting by the phase gives
an unbiased estimate at cost G = (sum_a |d_a|)^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isfinite
from typing import Iterable

import numpy as np

from .algebra import PAULIS, SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z
from .algebra import finite_real, integer, running_norm, unit_axis, unitary_matrix
from .canonical import PauliCoeffs, ThetaVector, canonical_unitary, pauli_projection

MAX_QUBITS = 12


@dataclass(frozen=True)
class SingleGate:
    """Rotation exp(-i theta n . sigma) on one qubit; axis unit, theta finite."""

    qubit: int
    axis: tuple[float, float, float]
    theta: float
    # the gate's 2x2 unitary (read-only), built once
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubit", integer(self.qubit, "qubit index"))
        object.__setattr__(self, "axis", unit_axis(self.axis, "rotation axis"))
        object.__setattr__(self, "theta", finite_real(self.theta, "angle"))
        nx, ny, nz = self.axis
        n_sigma = nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z
        matrix = np.cos(self.theta) * SIGMA_0 - 1j * np.sin(self.theta) * n_sigma
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)


def _qubit_pair(qubits, what: str) -> tuple[int, int]:
    if not isinstance(qubits, Iterable):
        raise ValueError(f"{what} needs a pair of qubits, got {qubits!r}")
    qs = tuple(integer(q, "qubit index") for q in qubits)
    if len(qs) != 2 or qs[0] == qs[1]:
        raise ValueError(f"{what} needs two distinct qubits, got {qs}")
    return qs


@dataclass(frozen=True)
class CanonicalGate:
    """Two-qubit canonical gate; ``cut`` marks it for channel sampling."""

    qubits: tuple[int, int]
    theta: ThetaVector
    cut: bool = False
    # the gate's 4x4 unitary (read-only), built once
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        qs = _qubit_pair(self.qubits, "canonical gate")
        if not isinstance(self.cut, bool):
            raise ValueError(f"cut must be a bool, got {self.cut!r}")
        object.__setattr__(self, "qubits", qs)
        object.__setattr__(self, "theta", ThetaVector.coerce(self.theta))
        matrix = canonical_unitary(self.theta)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)


@dataclass(frozen=True, eq=False)
class Raw1QGate:
    """An explicit 2x2 unitary on one qubit."""

    qubit: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubit", integer(self.qubit, "qubit index"))
        m = unitary_matrix(self.matrix, 2, "raw gate matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class Raw2QGate:
    """An explicit 4x4 matrix on an ordered pair of qubits, in that factor order.

    Not a circuit gate: the sampler builds these when it fuses the uncut
    gates of a circuit into 2-qubit products. Only the shape and the qubits
    are checked, not unitarity: each factor of a product passed the 1e-10
    unitarity check, but their deviations add up (three Hadamards written
    to 10 digits multiply to a deviation of 1.1e-10).
    """

    qubits: tuple[int, int]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", _qubit_pair(self.qubits, "raw 2-qubit gate"))
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"raw 2-qubit gate matrix must be 4x4, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


Gate = SingleGate | CanonicalGate | Raw1QGate


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_qubits", integer(self.num_qubits, "num_qubits"))
        if not isinstance(self.gates, Iterable):
            raise ValueError(f"gates must be a sequence of gates, got {self.gates!r}")
        object.__setattr__(self, "gates", tuple(self.gates))
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be 1..{MAX_QUBITS}, got {self.num_qubits}")
        for gate in self.gates:
            if not isinstance(gate, Gate):
                raise ValueError(f"circuit entry {gate!r} is not a gate")
            for q in gate.qubits if isinstance(gate, CanonicalGate) else (gate.qubit,):
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"gate qubit {q} outside 0..{self.num_qubits - 1}")

    def cut_indices(self) -> tuple[int, ...]:
        """The positions of the cut gates, canonical gates with ``cut`` set, in order.

        The sampler splits the circuit at these positions; no other code
        decides which gates are cut.
        """
        return tuple(
            i
            for i, g in enumerate(self.gates)
            if isinstance(g, CanonicalGate) and g.cut
        )


@dataclass(frozen=True)
class Observable:
    """A real combination of Pauli strings; o_max = sum |coeff| bounds it."""

    terms: tuple[tuple[float, str], ...]
    o_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            terms = tuple((c, p) for c, p in self.terms)
        except TypeError as exc:
            raise ValueError(f"terms must be (coeff, pauli) pairs, got {self.terms!r}") from exc
        if not terms:
            raise ValueError("observable needs at least one term")
        for _, pauli in terms:
            if not isinstance(pauli, str) or not pauli or any(ch not in "IXYZ" for ch in pauli):
                raise ValueError(f"bad Pauli string {pauli!r}")
            if len(pauli) != len(terms[0][1]):
                raise ValueError(f"Pauli string {pauli!r} is not {len(terms[0][1])} qubits wide")
        terms = tuple((finite_real(c, "observable coefficient"), p) for c, p in terms)
        object.__setattr__(self, "terms", terms)
        o_max = running_norm(c for c, _ in terms)[-1]
        if o_max <= 0.0:
            raise ValueError("observable must have a nonzero coefficient")
        if not isfinite(o_max):
            raise ValueError("observable's o_max, the sum of |coeff|, overflows")
        object.__setattr__(self, "o_max", o_max)

    @property
    def num_qubits(self) -> int:
        return len(self.terms[0][1])


# --- dense statevector simulation ----------------------------------------


def initial_state(num_qubits: int) -> np.ndarray:
    psi = np.zeros(2**num_qubits, dtype=complex)
    psi[0] = 1.0
    return psi


def apply_1q(psi: np.ndarray, u: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """Apply a 2x2 matrix to one qubit (qubit 0 = most significant bit).

    ``psi`` is a statevector on its last axis; leading axes are a batch.
    """
    if qubit == num_qubits - 1:
        return (psi.reshape(-1, 2) @ u.T).reshape(psi.shape)
    # the target axis to the front, one 2 x (...) product, and back
    m = psi.reshape(-1, 2, 1 << (num_qubits - 1 - qubit)).transpose(1, 0, 2)
    out = (u @ m.reshape(2, -1)).reshape(m.shape)
    return out.transpose(1, 0, 2).reshape(psi.shape)


def apply_2q(
    psi: np.ndarray, u4: np.ndarray, qubit_a: int, qubit_b: int, num_qubits: int
) -> np.ndarray:
    """Apply a 4x4 matrix to (qubit_a, qubit_b), in that factor order.

    ``psi`` is a statevector on its last axis; leading axes are a batch.
    """
    if num_qubits == 2 and (qubit_a, qubit_b) == (0, 1):
        return (psi.reshape(-1, 4) @ u4.T).reshape(psi.shape)
    lo, hi = sorted((qubit_a, qubit_b))
    if qubit_a > qubit_b:
        u4 = u4.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    m = psi.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << (num_qubits - 1 - hi))
    # the two target axes to the front, one 4 x 4 product, and back
    m = m.transpose(1, 3, 0, 2, 4)
    out = (u4 @ m.reshape(4, -1)).reshape(m.shape)
    return out.transpose(2, 0, 3, 1, 4).reshape(psi.shape)


def apply_gate(psi: np.ndarray, gate: Gate | Raw2QGate, num_qubits: int) -> np.ndarray:
    if isinstance(gate, (CanonicalGate, Raw2QGate)):
        return apply_2q(psi, gate.matrix, gate.qubits[0], gate.qubits[1], num_qubits)
    return apply_1q(psi, gate.matrix, gate.qubit, num_qubits)


def statevector(circuit: Circuit) -> np.ndarray:
    """Exact final state; cut flags are ignored (the verification route)."""
    psi = initial_state(circuit.num_qubits)
    for gate in circuit.gates:
        psi = apply_gate(psi, gate, circuit.num_qubits)
    return psi


@lru_cache(maxsize=64)
def pauli_table(pauli: str, num_qubits: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The Pauli string ``pauli`` on ``num_qubits`` qubits as a signed permutation.

    With x and z the masks of the string's X-or-Y and Z-or-Y qubits (qubit
    0 the most significant bit), P|k> = i^(#Y) (-1)^popcount(k & z) |k ^ x>,
    so (P psi)[j] = phase[j] psi[j ^ x], with phase[j] = i^(#Y)
    (-1)^popcount((j ^ x) & z). Returns (j ^ x, phase) as read-only arrays,
    the first None when x = 0 and the second when every phase is 1.
    Invalid characters or a width other than ``num_qubits`` raise
    ValueError. The last 64 tables are kept: at most 2^12 entries of 8 + 16
    bytes each, so at most 6 MiB.
    """
    if len(pauli) != num_qubits or any(ch not in "IXYZ" for ch in pauli):
        raise ValueError(f"bad Pauli string {pauli!r} on {num_qubits} qubits")
    x = int("".join("1" if ch in "XY" else "0" for ch in pauli), 2)
    z = int("".join("1" if ch in "YZ" else "0" for ch in pauli), 2)
    source = np.arange(1 << num_qubits) ^ x
    phase = None
    if z:
        odd = np.bitwise_count(source & z) & 1
        phase = (1.0 - 2.0 * odd) * (1, 1j, -1, -1j)[pauli.count("Y") % 4]
        phase = phase.astype(complex)
        phase.setflags(write=False)
    source.setflags(write=False)
    return (source if x else None), phase


def pauli_string_apply(psi: np.ndarray, pauli: str, num_qubits: int) -> np.ndarray:
    """P psi per state on the last axis of ``psi``, by ``pauli_table``'s signed permutation."""
    source, phase = pauli_table(pauli, num_qubits)
    out = psi if source is None else np.take(psi, source, axis=-1)
    return out if phase is None else out * phase


def pauli_string_expectation(psi: np.ndarray, pauli: str, num_qubits: int) -> np.ndarray:
    """Re <psi|P|psi> per state on the last axis of ``psi``; leading axes are a batch."""
    applied = pauli_string_apply(psi, pauli, num_qubits)
    return np.einsum("...j,...j->...", psi.conj(), applied).real


def observable_expectation(psi: np.ndarray, observable: Observable, num_qubits: int) -> np.ndarray:
    """<psi|O|psi> per state on the last axis of ``psi``; leading axes are a batch."""
    return sum(
        coeff * pauli_string_expectation(psi, pauli, num_qubits)
        for coeff, pauli in observable.terms
    )


def exact_expectation(circuit: Circuit, observable: Observable) -> float:
    """<O> on the exact final state. The classical oracle for every estimator."""
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"observable width {observable.num_qubits} != circuit width {circuit.num_qubits}"
        )
    return float(observable_expectation(statevector(circuit), observable, circuit.num_qubits))


# --- gate-based estimation ------------------------------------------------


def gate_based_cost(u: PauliCoeffs | Iterable[complex]) -> float:
    """G = (sum_a |d_a|)^2, the sampling cost of the overlap route."""
    return float(np.sum(np.abs(PauliCoeffs.coerce(u).values)) ** 2)


def gate_based_estimate(
    circuit: Circuit,
    gate_index: int,
    observable: Observable,
    shots: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo overlap estimate with gate ``gate_index`` Pauli-substituted.

    Draws (a, a') proportional to |d_a| |d_a'| per shot and averages
    G * Re[phase(d_a'* d_a) <0|V_a'^+ O V_a|0>]. Unbiased for the exact
    expectation; deterministic (every shot equal) when the gate is a
    single Pauli pair, e.g. the identity.
    """
    shots = integer(shots, "shots")
    gate_index = integer(gate_index, "gate index")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not 0 <= gate_index < len(circuit.gates):
        raise ValueError(f"gate index {gate_index} out of range")
    gate = circuit.gates[gate_index]
    if not isinstance(gate, CanonicalGate):
        raise ValueError("gate-based estimation needs a canonical gate index")
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError("observable width does not match circuit")

    u = pauli_projection(gate.matrix)
    d = u.values
    mags = np.abs(d)
    probs = mags / mags.sum()
    phases = np.where(mags > 0, d / np.where(mags > 0, mags, 1.0), 0.0)

    # final states of the four substituted circuits, and O applied to each
    before, after = circuit.gates[:gate_index], circuit.gates[gate_index + 1 :]
    pairs = [tuple(Raw1QGate(q, p) for q in gate.qubits) for p in PAULIS]
    states = [statevector(Circuit(circuit.num_qubits, before + pair + after)) for pair in pairs]
    obs_states = [
        sum(
            coeff * pauli_string_apply(psi, pauli, circuit.num_qubits)
            for coeff, pauli in observable.terms
        )
        for psi in states
    ]
    overlaps = np.array(
        [[np.vdot(states[ap], obs_states[a]) for a in range(4)] for ap in range(4)]
    )
    values = gate_based_cost(u) * np.real(np.conj(phases)[:, None] * phases[None, :] * overlaps)

    ket = rng.choice(4, size=shots, p=probs)
    bra = rng.choice(4, size=shots, p=probs)
    return float(values[bra, ket].mean())
