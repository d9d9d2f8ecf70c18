"""The 16 local channels that span single-qubit maps, and how to run them.

The basis consists of, for alpha < alpha':

    sigma_alpha :  rho -> sigma_a rho sigma_a                      (4 channels)
    A_aa'       :  rho -> (sigma_a rho sigma_a' + sigma_a' rho sigma_a) / 2
    B_aa'       :  rho -> (sigma_a rho sigma_a' - sigma_a' rho sigma_a) / (2i)

These 16 maps are linearly independent (their PTMs have rank 16), so
any single-qubit linear map is a real combination of them. Under index swap,
A is symmetric and B is antisymmetric, so restricting to alpha < alpha' loses
nothing. The members of the enum ``BasisChannelId`` are the basis; a
member's value is its row in ``ALL_CHANNELS`` and in the outcome rows below.

Each channel is realized by an outcome table of one or two outcomes (as
in Mitarai & Fujii, arXiv:1909.07534): outcome o applies a 2x2 Kraus
operator K_o, renormalizes, and weighs the run by w_o = +-1. Its effect
E_o = K_o^+ K_o picks it: with t_o = <psi|E_o|psi>, a table of two
outcomes takes one uniform draw u and gives outcome 0 iff
u < t_0 / (t_0 + t_1), and the post state is K_o psi / sqrt(t_o). A
unitary has one outcome; a fair coin between two unitaries has the
effects I and I; a signed measurement along the axis n has the effects
Pi(n) and Pi(-n) = I - Pi(n), and weighs its outcomes +1 and -1, so its
expected weighted output is Pi(n) rho Pi(n) - Pi(-n) rho Pi(-n). The five
forms (sigma_a sigma_a' = i eps sigma_a'', eps the Levi-Civita sign), as
(K_0, w_0, E_0), (K_1, w_1, E_1):

    sigma_a  unitary      (sigma_a, +1, I)
    A_0a'    measurement  (Pi(e_a'), +1, Pi(e_a')), (Pi(-e_a'), -1, Pi(-e_a'))
    A_aa'    coin         ((sigma_a + sigma_a')/sqrt2, +1, I),
                          ((sigma_a - sigma_a')/sqrt2, -1, I)
    B_0a'    coin         (exp(+i pi/4 sigma_a'), +1, I), (exp(-i pi/4 sigma_a'), -1, I)
    B_aa'    measurement  (sigma_a Pi(n), +1, Pi(n)), (sigma_a Pi(-n), -1, Pi(-n)),
                          n = -eps e_a''

Every table has total quasiprobability mass exactly 1: averaging
weight x (post state) over its outcomes reproduces the channel.

The tables are written once, at import, as read-only rows: row c is the
channel of value c, padded to two outcomes with zeros. ``KRAUS[c, o]`` and
``WEIGHTS[c, o]`` are outcome o's K_o and w_o, ``OUTCOMES[c]`` is the
number of outcomes, 1 or 2, and ``EFFECT[c, o]`` indexes E_o in
``EFFECTS``, which holds I first and then each measurement's projectors
Pi(n) and I - Pi(n) in row order. ``realize`` runs a channel's row on one
qubit once. The sampler routes many shots through a cut term's two rows
at once, on the 4x4 reduced density matrix of the cut pair, by the same
rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import sqrt

import numpy as np

from .algebra import PAULIS, QuantumState, integer, ptm_from_action

# (alpha, alpha') -> (eps, alpha'') with sigma_a sigma_a' = i eps sigma_a''
_LEVI_CIVITA = {(1, 2): (1, 3), (1, 3): (-1, 2), (2, 3): (1, 1)}

_AXES = np.eye(3)
_AXES.setflags(write=False)


class ChannelKind(Enum):
    PAULI = "pauli"
    A = "A"
    B = "B"


class BasisChannelId(Enum):
    """One of the 16 basis channels: the members are the basis.

    Each member is named by its label (``s0``..``s3``, ``A01``..``A23``,
    ``B01``..``B23``) and its value is its row, 0..15, in ``ALL_CHANNELS``
    order. Members are singletons that compare by identity, never equal to
    an int. ``kind``, ``alpha`` and ``alpha_prime`` are read off the name:
    PAULI has ``alpha`` in 0..3 only; A and B have
    0 <= alpha < alpha_prime <= 3.
    """

    s0, s1, s2, s3 = range(4)
    A01, A02, A03, A12, A13, A23 = range(4, 10)
    B01, B02, B03, B12, B13, B23 = range(10, 16)

    @property
    def kind(self) -> ChannelKind:
        return ChannelKind.PAULI if self.name[0] == "s" else ChannelKind(self.name[0])

    @property
    def alpha(self) -> int:
        return int(self.name[1])

    @property
    def alpha_prime(self) -> int | None:
        return int(self.name[2]) if len(self.name) == 3 else None

    @classmethod
    def from_label(cls, text: str) -> BasisChannelId:
        channel = cls.__members__.get(text) if isinstance(text, str) else None
        if channel is None:
            raise ValueError(f"unrecognized channel label {text!r}")
        return channel

    def __str__(self) -> str:
        return self.name


def _member(prefix: str, *indices) -> BasisChannelId:
    """The member labelled ``prefix`` then the integer indices; ValueError if none is."""
    digits = "".join(str(integer(i, "channel index")) for i in indices)
    return BasisChannelId.from_label(prefix + digits)


def pauli_channel(alpha: int) -> BasisChannelId:
    return _member("s", alpha)


def a_channel(alpha: int, alpha_prime: int) -> BasisChannelId:
    return _member("A", alpha, alpha_prime)


def b_channel(alpha: int, alpha_prime: int) -> BasisChannelId:
    return _member("B", alpha, alpha_prime)


ALL_CHANNELS: tuple[BasisChannelId, ...] = tuple(BasisChannelId)


@dataclass(frozen=True)
class RealizationOutcome:
    """One sampled run of a channel's outcome table: post state and weight."""

    state: QuantumState
    weight: float


def projector(axis: tuple[float, float, float] | np.ndarray) -> np.ndarray:
    """Pi(n) = (I + n . sigma) / 2 for a unit Bloch vector n."""
    n = np.asarray(axis, dtype=float)
    return (PAULIS[0] + n[0] * PAULIS[1] + n[1] * PAULIS[2] + n[2] * PAULIS[3]) / 2.0


def _basis_channel(channel) -> BasisChannelId:
    """``channel`` if it is a ``BasisChannelId`` member; ValueError for anything else, ints too."""
    if not isinstance(channel, BasisChannelId):
        raise ValueError(f"channel must be a BasisChannelId member, got {channel!r}")
    return channel


def channel_action(channel: BasisChannelId, matrix: np.ndarray) -> np.ndarray:
    """The exact linear action of a basis channel on a 2x2 matrix."""
    sa = PAULIS[_basis_channel(channel).alpha]
    if channel.kind is ChannelKind.PAULI:
        return sa @ matrix @ sa
    sb = PAULIS[channel.alpha_prime]
    if channel.kind is ChannelKind.A:
        return (sa @ matrix @ sb + sb @ matrix @ sa) / 2.0
    return (sa @ matrix @ sb - sb @ matrix @ sa) / 2.0j


def _write_table(channel: BasisChannelId) -> tuple:
    """The channel's (Kraus operators, weights, effects), in its form in the module docstring."""
    a, b = channel.alpha, channel.alpha_prime
    if channel.kind is ChannelKind.PAULI:
        return [PAULIS[a]], [1.0], [PAULIS[0]]
    if channel.kind is ChannelKind.A and a > 0:
        # (sigma_a +- sigma_b)/sqrt2 is Hermitian and squares to I: a unitary
        sides = (PAULIS[a] + PAULIS[b], PAULIS[a] - PAULIS[b])
    elif channel.kind is ChannelKind.B and a == 0:
        # (I +- i sigma_b)/sqrt2 = exp(+- i pi/4 sigma_b)
        sides = (PAULIS[0] + 1j * PAULIS[b], PAULIS[0] - 1j * PAULIS[b])
    else:
        if channel.kind is ChannelKind.A:
            # A_0b = Pi(n_b) - Pi(-n_b) as weighted projections
            axis, flip = _AXES[b - 1], PAULIS[0]
        else:
            # B_ab with a > 0: sigma_a (sigma_0 -+ eps sigma_c)/2 = B_ab,+-, so
            # measure along -eps e_c with weights (+1, -1), then flip with sigma_a.
            eps, c = _LEVI_CIVITA[(a, b)]
            axis, flip = -eps * _AXES[c - 1], PAULIS[a]
        pi = projector(axis)
        effects = [pi, PAULIS[0] - pi]
        return flip @ np.array(effects), [1.0, -1.0], effects
    return np.array(sides) / sqrt(2.0), [1.0, -1.0], [PAULIS[0]] * 2


def _write_rows() -> tuple[np.ndarray, ...]:
    """Every channel's table as read-only rows: (KRAUS, WEIGHTS, OUTCOMES, EFFECTS, EFFECT)."""
    count = len(ALL_CHANNELS)
    kraus = np.zeros((count, 2, 2, 2), dtype=complex)
    weights = np.zeros((count, 2))
    outcomes = np.zeros(count, dtype=np.intp)
    effect = np.zeros((count, 2), dtype=np.intp)
    effects = [PAULIS[0]]
    for channel in ALL_CHANNELS:
        c = channel.value
        table_kraus, table_weights, table_effects = _write_table(channel)
        outcomes[c] = len(table_weights)
        kraus[c, : outcomes[c]] = table_kraus
        weights[c, : outcomes[c]] = table_weights
        for o, matrix in enumerate(table_effects):
            if not np.array_equal(matrix, PAULIS[0]):
                effect[c, o] = len(effects)
                effects.append(matrix)
    rows = (kraus, weights, outcomes, np.stack(effects), effect)
    for array in rows:
        array.setflags(write=False)
    return rows


KRAUS, WEIGHTS, OUTCOMES, EFFECTS, EFFECT = _write_rows()

# realize works on Python numbers, since numpy's cost per call outweighs the
# 2x2 work: per channel, its effects, Kraus operators and weights as lists
_ROW_LISTS = tuple(
    (EFFECTS[EFFECT[c, :n]].tolist(), KRAUS[c, :n].tolist(), WEIGHTS[c, :n].tolist())
    for c, n in enumerate(OUTCOMES.tolist())
)

_PTMS: dict[BasisChannelId, np.ndarray] = {
    channel: ptm_from_action(lambda m: channel_action(channel, m), 1)
    for channel in ALL_CHANNELS
}
for _ptm in _PTMS.values():
    _ptm.setflags(write=False)


def basis_ptm(channel: BasisChannelId) -> np.ndarray:
    """4x4 real PTM of the channel's exact action (built once at import, read-only)."""
    return _PTMS[_basis_channel(channel)]


def realize(channel: BasisChannelId, state: QuantumState, rng) -> RealizationOutcome:
    """Run the channel's outcome table once on a single-qubit state.

    ``rng`` needs a ``random()`` method returning uniforms in [0, 1); a
    table of two outcomes takes one draw, one of one outcome none. The
    output state stays normalized; averaging weight x |psi><psi| over many
    runs converges to the channel's exact action on the input's density
    matrix.

    Args:
        channel: which basis channel to realize; a non-member raises ValueError.
        state: normalized single-qubit state.
        rng: uniform source for measurement outcomes and coin flips.

    Returns:
        RealizationOutcome with the post state and the weight, +1 or -1.
    """
    effects, kraus, weights = _ROW_LISTS[_basis_channel(channel).value]
    if state.num_qubits != 1:
        raise ValueError("realize acts on single-qubit states")
    a, b = state.vector.tolist()
    traces = [
        ((e00 * a + e01 * b) * a.conjugate() + (e10 * a + e11 * b) * b.conjugate()).real
        for (e00, e01), (e10, e11) in effects
    ]
    outcome = 0
    if len(traces) == 2 and rng.random() >= traces[0] / (traces[0] + traces[1]):
        outcome = 1
    # E_o = K_o^+ K_o, so traces[o] is the squared norm of K_o psi
    (k00, k01), (k10, k11) = kraus[outcome]
    norm = sqrt(traces[outcome])
    post = [(k00 * a + k01 * b) / norm, (k10 * a + k11 * b) / norm]
    return RealizationOutcome(QuantumState(num_qubits=1, vector=post), weights[outcome])
