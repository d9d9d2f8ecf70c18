"""The 16 local channels that span single-qubit maps, and how to run them.

The basis consists of, for alpha < alpha':

    sigma_alpha :  rho -> sigma_a rho sigma_a                      (4 channels)
    A_aa'       :  rho -> (sigma_a rho sigma_a' + sigma_a' rho sigma_a) / 2
    B_aa'       :  rho -> (sigma_a rho sigma_a' - sigma_a' rho sigma_a) / (2i)

These 16 maps are linearly independent (their PTMs have rank 16), so
any single-qubit linear map is a real combination of them. Under index swap,
A is symmetric and B is antisymmetric, so restricting to alpha < alpha' loses
nothing.

Each channel carries a realization program built from three primitive steps:

* UNITARY(V): apply a 2x2 unitary.
* SIGNED_MEASUREMENT(n): measure along axis n; on outcome +- (probability
  p+- = Tr[Pi(+-n) rho]) project, renormalize, and multiply the running
  weight by +-1. The expected weighted output is
  Pi(n) rho Pi(n) - Pi(-n) rho Pi(-n).
* COIN(V+, V-): toss a fair coin; apply V+ with weight +1 or V- with
  weight -1.

The programs (sigma_a sigma_a' = i eps sigma_a'', eps the Levi-Civita sign):

    sigma_a   -> UNITARY(sigma_a)
    A_0a'     -> SIGNED_MEASUREMENT(e_a')
    A_aa'     -> COIN((sigma_a + sigma_a')/sqrt2, (sigma_a - sigma_a')/sqrt2)
    B_0a'     -> COIN(exp(+i pi/4 sigma_a'), exp(-i pi/4 sigma_a'))
    B_aa'     -> SIGNED_MEASUREMENT(-eps e_a''), then UNITARY(sigma_a)

Every program has total quasiprobability mass exactly 1: averaging
weight x (post state) over the program's randomness reproduces the channel.
Every sampled run weighs exactly +-1. ``run_program`` runs one program on
one qubit once, for ``realize``. Every program takes at most one draw, so
its runs have at most two outcomes, and ``outcome_table`` lists them, read
off the same program at import: per outcome a 2x2 Kraus operator (the
product of the steps the outcome takes) and its weight, and what draws
the outcome (nothing, a fair coin, or a signed measurement with its
projector). The sampler routes many shots through a cut term's two tables
at once, on the 4x4 reduced density matrix of the cut pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import sqrt

import numpy as np

from .algebra import PAULIS, QuantumState, integer, ptm_from_action, unit_axis, unitary_matrix
from .circuit import apply_1q

# (alpha, alpha') -> (eps, alpha'') with sigma_a sigma_a' = i eps sigma_a''
_LEVI_CIVITA = {(1, 2): (1, 3), (1, 3): (-1, 2), (2, 3): (1, 1)}

_AXES = (
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
    np.array([0.0, 0.0, 1.0]),
)


class ChannelKind(Enum):
    PAULI = "pauli"
    A = "A"
    B = "B"


@dataclass(frozen=True)
class BasisChannelId:
    """Identifier of one of the 16 basis channels.

    ``kind`` is a ``ChannelKind`` and the indices are integers, stored as
    plain ints. PAULI uses ``alpha`` in 0..3 only; A and B need
    0 <= alpha < alpha_prime <= 3.
    """

    kind: ChannelKind
    alpha: int
    alpha_prime: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ChannelKind):
            raise ValueError(f"kind must be a ChannelKind, got {self.kind!r}")
        for name in ("alpha",) if self.alpha_prime is None else ("alpha", "alpha_prime"):
            index = integer(getattr(self, name), name)
            if index is not getattr(self, name):  # an int is read as itself: no setattr then
                object.__setattr__(self, name, index)
        if self.kind is ChannelKind.PAULI:
            if self.alpha not in range(4) or self.alpha_prime is not None:
                raise ValueError(f"bad Pauli channel id {self}")
        else:
            if self.alpha_prime is None or not 0 <= self.alpha < self.alpha_prime <= 3:
                raise ValueError(f"bad {self.kind.value} channel id: need alpha < alpha' in 0..3")

    def label(self) -> str:
        if self.kind is ChannelKind.PAULI:
            return f"s{self.alpha}"
        return f"{self.kind.value}{self.alpha}{self.alpha_prime}"

    @classmethod
    def from_label(cls, text: str) -> BasisChannelId:
        if len(text) == 2 and text[0] == "s" and text[1] in "0123":
            return cls(ChannelKind.PAULI, int(text[1]))
        if len(text) == 3 and text[0] in "AB" and text[1] in "0123" and text[2] in "0123":
            return cls(ChannelKind(text[0]), int(text[1]), int(text[2]))
        raise ValueError(f"unrecognized channel label {text!r}")

    def __str__(self) -> str:
        return self.label()


def pauli_channel(alpha: int) -> BasisChannelId:
    return BasisChannelId(ChannelKind.PAULI, alpha)


def a_channel(alpha: int, alpha_prime: int) -> BasisChannelId:
    return BasisChannelId(ChannelKind.A, alpha, alpha_prime)


def b_channel(alpha: int, alpha_prime: int) -> BasisChannelId:
    return BasisChannelId(ChannelKind.B, alpha, alpha_prime)


ALL_CHANNELS: tuple[BasisChannelId, ...] = tuple(
    [pauli_channel(a) for a in range(4)]
    + [a_channel(a, b) for a in range(4) for b in range(a + 1, 4)]
    + [b_channel(a, b) for a in range(4) for b in range(a + 1, 4)]
)


# --- realization steps ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class Unitary:
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = unitary_matrix(self.matrix, 2, "realization step matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class SignedMeasurement:
    """Measure along ``axis``; outcome +n weighs +1, outcome -n weighs -1."""

    axis: tuple[float, float, float]
    # Pi(+n), precomputed once; sampling paths hit this every shot
    projector_matrix: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        ax = unit_axis(self.axis, "measurement axis")
        object.__setattr__(self, "axis", ax)
        matrix = projector(ax)
        matrix.setflags(write=False)
        object.__setattr__(self, "projector_matrix", matrix)


@dataclass(frozen=True)
class Coin:
    """A fair coin: ``plus`` with weight +1 or ``minus`` with weight -1."""

    plus: Unitary
    minus: Unitary

    def __post_init__(self) -> None:
        if not (isinstance(self.plus, Unitary) and isinstance(self.minus, Unitary)):
            raise TypeError("both sides of a coin must be Unitary steps")


RealizationStep = Unitary | SignedMeasurement | Coin


@dataclass(frozen=True)
class RealizationOutcome:
    """One sampled run of a program: post state and accumulated weight."""

    state: QuantumState
    weight: float


@dataclass(frozen=True, eq=False)
class OutcomeTable:
    """The outcomes of one realization program.

    Outcome i maps a state psi to ``kraus[i] @ psi`` (renormalized after a
    measurement) with weight ``weights[i]``, +1.0 or -1.0. One outcome means
    the program draws nothing. Two outcomes take one uniform draw u: with a
    ``projector`` they are a signed measurement, outcome 0 iff
    u < Tr(projector rho); without one, a fair coin, outcome 0 iff u < 0.5.
    Arrays are read-only copies.
    """

    kraus: np.ndarray
    weights: tuple[float, ...]
    projector: np.ndarray | None

    def __post_init__(self) -> None:
        kraus = np.array(self.kraus, dtype=complex)
        kraus.setflags(write=False)
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if self.projector is not None:
            matrix = np.array(self.projector, dtype=complex)
            matrix.setflags(write=False)
            object.__setattr__(self, "projector", matrix)


def projector(axis: tuple[float, float, float] | np.ndarray) -> np.ndarray:
    """Pi(n) = (I + n . sigma) / 2 for a unit Bloch vector n."""
    n = np.asarray(axis, dtype=float)
    return (PAULIS[0] + n[0] * PAULIS[1] + n[1] * PAULIS[2] + n[2] * PAULIS[3]) / 2.0


def channel_action(channel: BasisChannelId, matrix: np.ndarray) -> np.ndarray:
    """The exact linear action of a basis channel on a 2x2 matrix."""
    sa = PAULIS[channel.alpha]
    if channel.kind is ChannelKind.PAULI:
        return sa @ matrix @ sa
    sb = PAULIS[channel.alpha_prime]
    if channel.kind is ChannelKind.A:
        return (sa @ matrix @ sb + sb @ matrix @ sa) / 2.0
    return (sa @ matrix @ sb - sb @ matrix @ sa) / 2.0j


def _build_program(channel: BasisChannelId) -> tuple[RealizationStep, ...]:
    a = channel.alpha
    if channel.kind is ChannelKind.PAULI:
        return (Unitary(PAULIS[a]),)
    b = channel.alpha_prime
    if channel.kind is ChannelKind.A:
        if a == 0:
            # A_0b = Pi(n_b) - Pi(-n_b) as weighted projections
            return (SignedMeasurement(tuple(_AXES[b - 1])),)
        # (sigma_a +- sigma_b)/sqrt2 is Hermitian and squares to I: a unitary
        plus = Unitary((PAULIS[a] + PAULIS[b]) / sqrt(2.0))
        minus = Unitary((PAULIS[a] - PAULIS[b]) / sqrt(2.0))
        return (Coin(plus, minus),)
    if a == 0:
        # (I +- i sigma_b)/sqrt2 = exp(+- i pi/4 sigma_b)
        plus = Unitary((PAULIS[0] + 1j * PAULIS[b]) / sqrt(2.0))
        minus = Unitary((PAULIS[0] - 1j * PAULIS[b]) / sqrt(2.0))
        return (Coin(plus, minus),)
    # B_ab with a > 0: sigma_a (sigma_0 -+ eps sigma_c)/2 = B_ab,+-, so measure
    # along -eps e_c with weights (+1, -1), then flip with sigma_a.
    eps, c = _LEVI_CIVITA[(a, b)]
    axis = tuple(-eps * _AXES[c - 1])
    return (SignedMeasurement(axis), Unitary(PAULIS[a]))


_PROGRAMS: dict[BasisChannelId, tuple[RealizationStep, ...]] = {
    channel: _build_program(channel) for channel in ALL_CHANNELS
}


def _build_table(program: tuple[RealizationStep, ...]) -> OutcomeTable:
    """The outcomes of ``program``, which takes at most one draw, step by step.

    A unitary multiplies every outcome's Kraus operator. A coin or a
    measurement splits the one outcome so far into two, weighing +1 and -1;
    a measurement's projector is pulled back through the unitaries before it.
    """
    outcomes = [(PAULIS[0], 1.0)]
    projector_matrix = None
    for step in program:
        if isinstance(step, Unitary):
            outcomes = [(step.matrix @ k, w) for k, w in outcomes]
            continue
        if isinstance(step, Coin):
            sides = (step.plus.matrix, step.minus.matrix)
        elif isinstance(step, SignedMeasurement):
            sides = (step.projector_matrix, PAULIS[0] - step.projector_matrix)
        else:
            raise TypeError(f"unknown realization step {step!r}")
        if len(outcomes) > 1:
            raise ValueError("an outcome table holds programs of at most one coin or measurement")
        ((k, w),) = outcomes
        if isinstance(step, SignedMeasurement):
            projector_matrix = k.conj().T @ step.projector_matrix @ k
        outcomes = [(sides[0] @ k, w), (sides[1] @ k, -w)]
    kraus, weights = zip(*outcomes)
    return OutcomeTable(np.stack(kraus), weights, projector_matrix)


_TABLES: dict[BasisChannelId, OutcomeTable] = {
    channel: _build_table(program) for channel, program in _PROGRAMS.items()
}

_PTMS: dict[BasisChannelId, np.ndarray] = {
    channel: ptm_from_action(lambda m: channel_action(channel, m), 1)
    for channel in ALL_CHANNELS
}
for _ptm in _PTMS.values():
    _ptm.setflags(write=False)


def basis_ptm(channel: BasisChannelId) -> np.ndarray:
    """4x4 real PTM of the channel's exact action (built once at import, read-only)."""
    return _PTMS[channel]


def realization_program(channel: BasisChannelId) -> tuple[RealizationStep, ...]:
    """The channel's realization as primitive steps (built once at import)."""
    return _PROGRAMS[channel]


def outcome_table(channel: BasisChannelId) -> OutcomeTable:
    """The outcomes of the channel's realization program (built once at import)."""
    return _TABLES[channel]


def run_program(
    psi: np.ndarray, program, qubit: int, num_qubits: int, rng
) -> tuple[np.ndarray, float]:
    """Run one sample of ``program`` on qubit ``qubit`` of a pure statevector.

    Each coin and measurement takes one ``rng.random()`` draw in [0, 1);
    measurements renormalize. Returns (post state, weight +-1.0).
    """
    weight = 1.0
    for step in program:
        if isinstance(step, Unitary):
            psi = apply_1q(psi, step.matrix, qubit, num_qubits)
        elif isinstance(step, Coin):
            if rng.random() < 0.5:
                psi = apply_1q(psi, step.plus.matrix, qubit, num_qubits)
            else:
                psi = apply_1q(psi, step.minus.matrix, qubit, num_qubits)
                weight = -weight
        elif isinstance(step, SignedMeasurement):
            projected = apply_1q(psi, step.projector_matrix, qubit, num_qubits)
            p_plus = float(np.real(np.vdot(projected, projected)))
            if rng.random() < p_plus:
                psi = projected / sqrt(p_plus)
            else:
                psi = (psi - projected) / sqrt(1.0 - p_plus)
                weight = -weight
        else:
            raise TypeError(f"unknown realization step {step!r}")
    return psi, weight


def realize(channel: BasisChannelId, state: QuantumState, rng) -> RealizationOutcome:
    """Run one sample of the channel's program on a single-qubit state.

    ``rng`` needs a ``random()`` method returning uniforms in [0, 1). The
    output state stays normalized; averaging weight x |psi><psi| over many
    runs converges to the channel's exact action on the input's density
    matrix.

    Args:
        channel: which basis channel to realize.
        state: normalized single-qubit state.
        rng: uniform source for measurement outcomes and coin flips.

    Returns:
        RealizationOutcome with the post state and the weight, +1 or -1.
    """
    if state.num_qubits != 1:
        raise ValueError("realize acts on single-qubit states")
    psi, weight = run_program(state.vector, realization_program(channel), 0, 1, rng)
    return RealizationOutcome(QuantumState(num_qubits=1, vector=psi), weight)
