"""Circuits of single-qubit rotations and canonical two-qubit gates.

The circuit model is deliberately small: axis-angle single-qubit rotations
R(n, t) = exp(-i t n . sigma), raw 2x2 unitaries, and canonical two-qubit
gates exp(i sum t_k sigma_k sigma_k) that may be flagged ``cut``. The dense
statevector simulator (up to 12 qubits) ignores cut flags and is the exact
oracle every sampling route is judged against.

The gate-based alternative to channel cutting replaces a canonical gate with
Pauli pairs on both sides of the overlap: with U = sum_a d_a sigma_a sigma_a,

    <0| V^+ O V |0> = sum_{a',a} d_a'* d_a <0| V_a'^+ O V_a |0>,

where V_a is the circuit with the gate replaced by sigma_a (x) sigma_a.
Sampling (a, a') proportional to |d_a' d_a| and weighting by the phase gives
an unbiased estimate at cost G = (sum_a |d_a|)^2.

JSON formats (all documents carry "format": 1):

    circuit:    {"format": 1, "qubits": n, "gates": [
                  {"type": "single", "q": 0, "axis": [x, y, z], "theta": t},
                  {"type": "canonical", "qs": [a, b], "theta": [t1, t2, t3],
                   "cut": true},
                  {"type": "raw1q", "q": 2, "matrix": [[[re, im], ...], ...]}]}
    observable: {"format": 1, "terms": [{"coeff": 1.0, "pauli": "ZZI"}]}

Structural problems, a value of the wrong JSON type among them, raise
FormatError; semantically invalid values (bad qubit index, non-unit axis, a
NaN or infinite angle or matrix entry, too many qubits) raise ValueError.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import isfinite
from typing import Iterable

import numpy as np

from .algebra import PAULIS, SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z, kron, unit_axis, unitary_matrix
from .canonical import PauliCoeffs, ThetaVector, canonical_unitary, pauli_coefficients

MAX_QUBITS = 12

_NUMBER = (int, float)

_PAULI_BY_CHAR = {"I": None, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


class FormatError(ValueError):
    """A document is structurally malformed (bad schema, not bad physics)."""


def _integer(value, what: str) -> int:
    """``value`` as a plain int; bools and non-integers raise ValueError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SingleGate:
    """Rotation exp(-i theta n . sigma) on one qubit; axis unit, theta finite."""

    qubit: int
    axis: tuple[float, float, float]
    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubit", _integer(self.qubit, "qubit index"))
        object.__setattr__(self, "axis", unit_axis(self.axis, "rotation axis"))
        theta = float(self.theta)
        if not isfinite(theta):
            raise ValueError(f"non-finite angle {theta}")
        object.__setattr__(self, "theta", theta)

    def matrix(self) -> np.ndarray:
        cached = self.__dict__.get("_matrix")
        if cached is None:
            nx, ny, nz = self.axis
            n_sigma = nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z
            cached = np.cos(self.theta) * SIGMA_0 - 1j * np.sin(self.theta) * n_sigma
            cached.setflags(write=False)
            object.__setattr__(self, "_matrix", cached)
        return cached


@dataclass(frozen=True)
class CanonicalGate:
    """Two-qubit canonical gate; ``cut`` marks it for channel sampling."""

    qubits: tuple[int, int]
    theta: ThetaVector
    cut: bool = False

    def __post_init__(self) -> None:
        qs = tuple(_integer(q, "qubit index") for q in self.qubits)
        if len(qs) != 2 or qs[0] == qs[1]:
            raise ValueError(f"canonical gate needs two distinct qubits, got {qs}")
        object.__setattr__(self, "qubits", qs)
        object.__setattr__(self, "theta", ThetaVector.coerce(self.theta))

    def matrix(self) -> np.ndarray:
        cached = self.__dict__.get("_matrix")
        if cached is None:
            cached = canonical_unitary(self.theta)
            cached.setflags(write=False)
            object.__setattr__(self, "_matrix", cached)
        return cached


@dataclass(frozen=True)
class Raw1QGate:
    """An explicit 2x2 unitary on one qubit."""

    qubit: int
    matrix_values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubit", _integer(self.qubit, "qubit index"))
        m = unitary_matrix(self.matrix_values, 2, "raw gate matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix_values", m)

    def matrix(self) -> np.ndarray:
        return self.matrix_values


Gate = SingleGate | CanonicalGate | Raw1QGate


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_qubits", _integer(self.num_qubits, "num_qubits"))
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be 1..{MAX_QUBITS}, got {self.num_qubits}")
        for gate in self.gates:
            for q in _gate_qubits(gate):
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"gate qubit {q} outside 0..{self.num_qubits - 1}")

    def cut_indices(self) -> tuple[int, ...]:
        return tuple(
            i
            for i, g in enumerate(self.gates)
            if isinstance(g, CanonicalGate) and g.cut
        )


def _gate_qubits(gate: Gate) -> tuple[int, ...]:
    if isinstance(gate, CanonicalGate):
        return gate.qubits
    return (gate.qubit,)


@dataclass(frozen=True)
class Observable:
    """A real combination of Pauli strings; o_max = sum |coeff| bounds it."""

    terms: tuple[tuple[float, str], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("observable needs at least one term")
        width = len(self.terms[0][1])
        for coeff, pauli in self.terms:
            if not np.isfinite(coeff):
                raise ValueError("non-finite observable coefficient")
            if len(pauli) != width or any(ch not in "IXYZ" for ch in pauli):
                raise ValueError(f"bad Pauli string {pauli!r}")
        object.__setattr__(self, "_o_max", float(sum(abs(c) for c, _ in self.terms)))
        if self._o_max <= 0.0:
            raise ValueError("observable must have a nonzero coefficient")

    @property
    def o_max(self) -> float:
        return self._o_max

    @property
    def num_qubits(self) -> int:
        return len(self.terms[0][1])

    def matrix(self) -> np.ndarray:
        dim = 2**self.num_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for coeff, pauli in self.terms:
            out += coeff * pauli_string_matrix(pauli)
        return out


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


def apply_gate(psi: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    if isinstance(gate, CanonicalGate):
        return apply_2q(psi, gate.matrix(), gate.qubits[0], gate.qubits[1], num_qubits)
    return apply_1q(psi, gate.matrix(), gate.qubit, num_qubits)


def statevector(circuit: Circuit) -> np.ndarray:
    """Exact final state; cut flags are ignored (the verification route)."""
    psi = initial_state(circuit.num_qubits)
    for gate in circuit.gates:
        psi = apply_gate(psi, gate, circuit.num_qubits)
    return psi


def pauli_string_matrix(pauli: str) -> np.ndarray:
    block = np.eye(1, dtype=complex)
    for ch in pauli:
        block = kron(block, SIGMA_0 if ch == "I" else _PAULI_BY_CHAR[ch])
    return block


def pauli_string_apply(psi: np.ndarray, pauli: str, num_qubits: int) -> np.ndarray:
    out = psi
    for q, ch in enumerate(pauli):
        p = _PAULI_BY_CHAR[ch]
        if p is not None:
            out = apply_1q(out, p, q, num_qubits)
    return out


def pauli_string_expectation(psi: np.ndarray, pauli: str, num_qubits: int) -> float:
    return float(np.real(np.vdot(psi, pauli_string_apply(psi, pauli, num_qubits))))


def observable_expectation(psi: np.ndarray, observable: Observable, num_qubits: int) -> float:
    return float(
        sum(
            coeff * pauli_string_expectation(psi, pauli, num_qubits)
            for coeff, pauli in observable.terms
        )
    )


def exact_expectation(circuit: Circuit, observable: Observable) -> float:
    """<O> on the exact final state. The classical oracle for every estimator."""
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"observable width {observable.num_qubits} != circuit width {circuit.num_qubits}"
        )
    psi = statevector(circuit)
    return observable_expectation(psi, observable, circuit.num_qubits)


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
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not 0 <= gate_index < len(circuit.gates):
        raise ValueError(f"gate index {gate_index} out of range")
    gate = circuit.gates[gate_index]
    if not isinstance(gate, CanonicalGate):
        raise ValueError("gate-based estimation needs a canonical gate index")
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError("observable width does not match circuit")

    d = pauli_coefficients(gate.theta).values
    mags = np.abs(d)
    total = float(mags.sum())
    cost = total * total
    probs = mags / total
    phases = np.where(mags > 0, d / np.where(mags > 0, mags, 1.0), 0.0)

    # final states of the four substituted circuits, and O applied to each
    states = []
    for alpha in range(4):
        sub = kron(PAULIS[alpha], PAULIS[alpha])
        psi = initial_state(circuit.num_qubits)
        for i, g in enumerate(circuit.gates):
            if i == gate_index:
                psi = apply_2q(psi, sub, gate.qubits[0], gate.qubits[1], circuit.num_qubits)
            else:
                psi = apply_gate(psi, g, circuit.num_qubits)
        states.append(psi)
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
    values = cost * np.real(np.conj(phases)[:, None] * phases[None, :] * overlaps)

    ket = rng.choice(4, size=shots, p=probs)
    bra = rng.choice(4, size=shots, p=probs)
    return float(values[bra, ket].mean())


# --- JSON documents --------------------------------------------------------


def circuit_to_doc(circuit: Circuit) -> dict:
    gates = []
    for gate in circuit.gates:
        if isinstance(gate, SingleGate):
            gates.append(
                {"type": "single", "q": gate.qubit, "axis": list(gate.axis), "theta": gate.theta}
            )
        elif isinstance(gate, CanonicalGate):
            gates.append(
                {
                    "type": "canonical",
                    "qs": list(gate.qubits),
                    "theta": list(gate.theta.as_tuple()),
                    "cut": gate.cut,
                }
            )
        else:
            gates.append(
                {
                    "type": "raw1q",
                    "q": gate.qubit,
                    "matrix": [[[v.real, v.imag] for v in row] for row in gate.matrix_values],
                }
            )
    return {"format": 1, "qubits": circuit.num_qubits, "gates": gates}


def circuit_from_doc(doc: dict) -> Circuit:
    _require_format(doc)
    try:
        num_qubits = _typed(doc["qubits"], int, "qubits")
        raw_gates = list(doc["gates"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"circuit document missing field: {exc}") from exc
    gates: list[Gate] = []
    for entry in raw_gates:
        try:
            kind = entry["type"]
            if kind == "single":
                gates.append(
                    SingleGate(
                        _typed(entry["q"], int, "q"),
                        tuple(_typed(x, _NUMBER, "axis") for x in entry["axis"]),
                        float(_typed(entry["theta"], _NUMBER, "theta")),
                    )
                )
            elif kind == "canonical":
                gates.append(
                    CanonicalGate(
                        tuple(_typed(q, int, "qs") for q in entry["qs"]),
                        ThetaVector.coerce([_typed(t, _NUMBER, "theta") for t in entry["theta"]]),
                        _typed(entry.get("cut", False), bool, "cut"),
                    )
                )
            elif kind == "raw1q":
                rows = entry["matrix"]
                if [len(row) for row in rows] != [2, 2]:
                    raise FormatError(f"raw1q matrix must be 2 x 2, got {rows!r}")
                matrix = np.array([[_complex_pair(v, "matrix") for v in row] for row in rows])
                gates.append(Raw1QGate(_typed(entry["q"], int, "q"), matrix))
            else:
                raise FormatError(f"unknown gate type {kind!r}")
        except (KeyError, TypeError, IndexError) as exc:
            raise FormatError(f"malformed gate entry {entry!r}: {exc}") from exc
    return Circuit(num_qubits, tuple(gates))


def observable_to_doc(observable: Observable) -> dict:
    return {
        "format": 1,
        "terms": [{"coeff": c, "pauli": p} for c, p in observable.terms],
    }


def observable_from_doc(doc: dict) -> Observable:
    _require_format(doc)
    try:
        terms = tuple(
            (float(_typed(t["coeff"], _NUMBER, "coeff")), _typed(t["pauli"], str, "pauli"))
            for t in doc["terms"]
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed observable document: {exc}") from exc
    return Observable(terms)


def _require_format(doc: dict) -> None:
    if not isinstance(doc, dict):
        raise FormatError("document must be a JSON object")
    if doc.get("format") != 1:
        raise FormatError(f"unsupported document format {doc.get('format')!r}")


def _typed(value, kind, field: str):
    """``value`` if its JSON type is ``kind``: never truncated or converted."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise FormatError(f"{field} has the wrong JSON type: {value!r}")
    return value


def _complex_pair(value, field: str) -> complex:
    """A complex number stored as a JSON ``[re, im]`` pair of numbers."""
    if not isinstance(value, list) or len(value) != 2:
        raise FormatError(f"{field} entry must be an [re, im] pair, got {value!r}")
    return complex(_typed(value[0], _NUMBER, field), _typed(value[1], _NUMBER, field))
