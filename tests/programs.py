"""Realization programs: the tests' reference for the 16 outcome tables.

Each basis channel was first written as a program of three primitive
steps, run one step at a time:

* ``Unitary(V)``: apply a 2x2 unitary.
* ``SignedMeasurement(n)``: measure along the axis n; on outcome +- (with
  probability p+- = Tr[Pi(+-n) rho]) project, renormalize, and multiply
  the running weight by +-1.
* ``Coin(V+, V-)``: toss a fair coin; apply V+ with weight +1 or V- with
  weight -1.

The package holds only the outcome tables, written by hand from the
paper's five channel forms as the read-only rows ``local_basis.KRAUS``,
``WEIGHTS``, ``OUTCOMES``, ``EFFECTS`` and ``EFFECT``. These programs are
written from the same forms in their original step form, and the tests
check the tables against them: ``build_table`` reads a table off a program
and ``run_program`` interprets one step by step, drawing what ``realize``
and the sampler draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from quasicut.algebra import PAULIS, unit_axis, unitary_matrix
from quasicut.circuit import apply_1q
from quasicut.local_basis import ALL_CHANNELS, BasisChannelId, ChannelKind, projector

# (alpha, alpha') -> (eps, alpha'') with sigma_a sigma_a' = i eps sigma_a''
LEVI_CIVITA = {(1, 2): (1, 3), (1, 3): (-1, 2), (2, 3): (1, 1)}

AXES = (
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
    np.array([0.0, 0.0, 1.0]),
)


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


def _build_program(channel: BasisChannelId) -> tuple:
    a = channel.alpha
    if channel.kind is ChannelKind.PAULI:
        return (Unitary(PAULIS[a]),)
    b = channel.alpha_prime
    if channel.kind is ChannelKind.A:
        if a == 0:
            # A_0b = Pi(n_b) - Pi(-n_b) as weighted projections
            return (SignedMeasurement(tuple(AXES[b - 1])),)
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
    eps, c = LEVI_CIVITA[(a, b)]
    return (SignedMeasurement(tuple(-eps * AXES[c - 1])), Unitary(PAULIS[a]))


PROGRAMS = {channel: _build_program(channel) for channel in ALL_CHANNELS}


def realization_program(channel: BasisChannelId) -> tuple:
    """The channel's realization as primitive steps."""
    return PROGRAMS[channel]


def build_table(program) -> tuple[tuple, tuple[float, ...], np.ndarray | None]:
    """The outcomes of ``program``, which takes at most one draw, step by step.

    Returns (Kraus operators, weights, projector): a unitary multiplies
    every outcome's Kraus operator; a coin or a measurement splits the one
    outcome so far into two, weighing +1 and -1; a measurement's projector
    is pulled back through the unitaries before it (None without one).
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
    return kraus, weights, projector_matrix


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
                # by its own norm: sqrt(1 - p_plus) cancels as p_plus nears 1
                psi = (psi - projected) / np.linalg.norm(psi - projected)
                weight = -weight
        else:
            raise TypeError(f"unknown realization step {step!r}")
    return psi, weight
