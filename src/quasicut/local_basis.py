"""The 16 local channels that span single-qubit maps, and how to run them.

The basis consists of, for alpha < alpha':

    sigma_alpha :  rho -> sigma_a rho sigma_a                      (4 channels)
    A_aa'       :  rho -> (sigma_a rho sigma_a' + sigma_a' rho sigma_a) / 2
    B_aa'       :  rho -> (sigma_a rho sigma_a' - sigma_a' rho sigma_a) / (2i)

These 16 maps are linearly independent (rank-16 completeness check below), so
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
one qubit once, for ``realize``. ``run_branches`` runs a sequence of
(qubit, step) pairs, such as the programs of a cut term's left and right
channels one after the other, for many shots that share one input state,
for the sampler, and does each branch's work once. Both take the same
draws in the same order and apply the same kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import sqrt

import numpy as np

from .algebra import PAULIS, QuantumState, ptm_from_action, unit_axis, unitary_matrix
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

    PAULI uses ``alpha`` in 0..3 only; A and B need 0 <= alpha < alpha_prime <= 3.
    """

    kind: ChannelKind
    alpha: int
    alpha_prime: int | None = None

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
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
    weight: complex


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


_PTM_CACHE: dict[BasisChannelId, np.ndarray] = {}


def basis_ptm(channel: BasisChannelId) -> np.ndarray:
    """4x4 real PTM of the channel's exact action (cached, read-only)."""
    cached = _PTM_CACHE.get(channel)
    if cached is None:
        cached = ptm_from_action(lambda m: channel_action(channel, m), 1)
        cached.setflags(write=False)
        _PTM_CACHE[channel] = cached
    return cached


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


def realization_program(channel: BasisChannelId) -> tuple[RealizationStep, ...]:
    """The channel's realization as primitive steps (built once at import)."""
    return _PROGRAMS[channel]


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


def run_branches(
    psi: np.ndarray, steps, num_qubits: int, draw, shots: np.ndarray
) -> list[tuple[np.ndarray, float, np.ndarray]]:
    """Run the ``(qubit, step)`` sequence ``steps`` once per shot in ``shots``.

    Every shot starts from the state ``psi``. ``shots`` is an index array
    and ``draw(shots)`` returns one uniform in [0, 1) per listed shot.
    Shots that draw the same outcomes share a branch, and each branch's
    state is computed once, exactly as ``run_program`` computes it, step by
    step, for each of its shots, which also draws what ``run_program``
    draws. Returns (post state, weight +-1.0, shots) per branch reached.
    """
    branches = [(psi, 1.0, shots)]
    for qubit, step in steps:
        if isinstance(step, Unitary):
            branches = [(apply_1q(s, step.matrix, qubit, num_qubits), w, i) for s, w, i in branches]
            continue
        split = []
        for state, weight, taken in branches:
            # only reached outcomes are computed: p_plus may be 0 or 1
            if isinstance(step, Coin):
                plus = draw(taken) < 0.5
                if plus.any():
                    up = apply_1q(state, step.plus.matrix, qubit, num_qubits)
                    split.append((up, weight, taken[plus]))
                if not plus.all():
                    down = apply_1q(state, step.minus.matrix, qubit, num_qubits)
                    split.append((down, -weight, taken[~plus]))
            elif isinstance(step, SignedMeasurement):
                projected = apply_1q(state, step.projector_matrix, qubit, num_qubits)
                p_plus = float(np.real(np.vdot(projected, projected)))
                plus = draw(taken) < p_plus
                if plus.any():
                    split.append((projected / sqrt(p_plus), weight, taken[plus]))
                if not plus.all():
                    down = (state - projected) / sqrt(1.0 - p_plus)
                    split.append((down, -weight, taken[~plus]))
            else:
                raise TypeError(f"unknown realization step {step!r}")
        branches = split
    return branches


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
    return RealizationOutcome(QuantumState(num_qubits=1, vector=psi), complex(weight))


def check_basis_completeness() -> bool:
    """True iff the 16 channel PTMs span all single-qubit linear maps."""
    stack = np.stack([basis_ptm(c).ravel() for c in ALL_CHANNELS])
    return int(np.linalg.matrix_rank(stack)) == 16
