"""Quasiprobability decomposition of canonical gates over local channels.

For U = sum_a u_a sigma_a (x) sigma_a, conjugation by U splits into products
of the local basis channels:

    U rho U^+ = sum_a |u_a|^2 (sigma_a (x) sigma_a)[rho]
              + sum_{a<b} r_ab ( A_ab (x) A_ab - B_ab (x) B_ab )[rho]
              + sum_{a<b} s_ab ( A_ab (x) B_ab + B_ab (x) A_ab )[rho]

with r_ab = u_a u_b* + u_b u_a* = 2 Re(u_a u_b*) and
s_ab = i (u_a u_b* - u_b u_a*) = -2 Im(u_a u_b*): every coefficient is real.
The sampling weight W(U), by which shot counts grow when the gate is replaced
by sampled local channels, is the coefficients' one-norm: their running sum
of |c| (``algebra.running_norm``). As sum_a |u_a|^2 = 1, the tests check it is

    W(U) = 1 + sum_{a != b} ( |u_a u_b* + u_b u_a*| + |u_a u_b* - u_b u_a*| )

to 1e-12. Only u_a u_b* enters, so the global phase of u is immaterial.

Composition multiplies decompositions term by term; the composed labels stay
sequences of basis-channel ids per side (first applied first), and the weight
multiplies exactly. The legacy alternative decomposes each exp(i t_k
sigma_k sigma_k) factor separately at cost 1 + 2|sin 2t_k| per factor, which
is never cheaper than the direct construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isclose, sin
from typing import Iterable

import numpy as np

from .algebra import finite_real, running_norm
from .canonical import PauliCoeffs, ThetaVector, pauli_coefficients
from .local_basis import ALL_CHANNELS, BasisChannelId, a_channel, b_channel, basis_ptm

_COEFF_DROP = 1e-14

ChannelSequence = tuple[BasisChannelId, ...]

# (a, b, A_ab, B_ab) per pair a < b, in decompose's term order
_PAIRS = tuple(
    (a, b, a_channel(a, b), b_channel(a, b)) for a in range(4) for b in range(a + 1, 4)
)

# the (left, right) channel ids of decompose's 28 term slots, in its order:
# the four (sigma_a, sigma_a) diagonals, then per pair the blocks (A,A),
# (B,B), (A,B), (B,A)
_SLOTS: tuple[tuple[BasisChannelId, BasisChannelId], ...] = tuple(
    (s, s) for s in ALL_CHANNELS[:4]
) + tuple(slot for _, _, aa, bb in _PAIRS for slot in ((aa, aa), (bb, bb), (aa, bb), (bb, aa)))


def _channel_ids(labels, side: str) -> ChannelSequence:
    """``labels`` as a non-empty tuple of channel ids; ValueError otherwise."""
    try:
        ids = tuple(labels)
    except TypeError:
        ids = ()
    # a plain loop: all() over a generator costs about 3x as much per label
    for channel in ids:
        if not isinstance(channel, BasisChannelId):
            break
    else:
        if ids:
            return ids
    raise ValueError(f"{side} must be a non-empty tuple of channel ids, got {labels!r}")


@dataclass(frozen=True)
class QPTerm:
    """One quasiprobability term: a finite, nonzero float and per-qubit channel labels.

    ``left`` and ``right`` are stored as non-empty tuples of basis-channel
    ids, applied in order; single-gate decompositions use length-1 tuples.
    """

    coefficient: float
    left: ChannelSequence
    right: ChannelSequence

    def __post_init__(self) -> None:
        coefficient = finite_real(self.coefficient, "coefficient")
        if coefficient is not self.coefficient:  # a float is read as itself: no setattr then
            object.__setattr__(self, "coefficient", coefficient)
        for side in ("left", "right"):
            labels = getattr(self, side)
            ids = _channel_ids(labels, side)
            if ids is not labels:  # tuple() of a tuple is itself: no setattr then
                object.__setattr__(self, side, ids)
        if self.coefficient == 0:
            raise ValueError("zero-coefficient terms must be dropped, not stored")


@dataclass(frozen=True)
class QPDecomposition:
    """A signed mixture of local-channel pairs representing a two-qubit map.

    ``terms`` is stored as the decomposition's own tuple of ``QPTerm``s.
    ``weight`` is the one-norm sum |c| of the coefficients. It is stored
    rather than recomputed so that composition can set the product W2 * W1
    bit-exactly; construction rejects a weight further than a relative 1e-9
    from sum |c|.
    """

    terms: tuple[QPTerm, ...]
    weight: float

    def __post_init__(self) -> None:
        if not isinstance(self.terms, Iterable):
            raise ValueError(f"terms must be a sequence of QPTerms, got {self.terms!r}")
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "weight", finite_real(self.weight, "weight"))
        if not self.terms:
            raise ValueError("a decomposition needs at least one term")
        for term in self.terms:
            if not isinstance(term, QPTerm):
                raise ValueError(f"decomposition entry {term!r} is not a QPTerm")
        if self.weight <= 0:
            raise ValueError(f"bad weight {self.weight}")
        norm = running_norm(t.coefficient for t in self.terms)[-1]
        if not isclose(self.weight, norm, rel_tol=1e-9):
            raise ValueError(f"weight {self.weight} is not the one-norm {norm} of the terms")

    @property
    def num_terms(self) -> int:
        return len(self.terms)


def decompose(u: PauliCoeffs | Iterable[complex]) -> QPDecomposition:
    """Build the local-channel decomposition of U = sum u_a sigma_a sigma_a.

    Terms come out in a fixed order, that of ``_SLOTS``: the four
    (sigma_a, sigma_a) diagonals, then per pair a < b the blocks (A,A),
    (B,B), (A,B), (B,A). Coefficients with |c| < 1e-14 are dropped. The
    weight is >= 1, with equality only for a single nonzero u_a (a local
    gate).
    """
    kept = _slot_coefficients(PauliCoeffs.coerce(u).values)
    terms = tuple(QPTerm(c, (_SLOTS[slot][0],), (_SLOTS[slot][1],)) for slot, c in kept)
    return QPDecomposition(terms, running_norm(c for _, c in kept)[-1])


def _slot_coefficients(vals: np.ndarray) -> list[tuple[int, float]]:
    """(slot, c) for each of the ``_SLOTS`` whose coefficient c has |c| >= 1e-14, in order.

    ``vals`` are the u_a. A diagonal's c is |u_a|^2; per pair a < b, with
    x = u_a u_b*, the blocks' are r, -r, s, s for r = 2 Re x, s = -2 Im x.
    Plain Python floats, one product at a time: vectorizing them moves the
    cumulative weights in the last bits.
    """
    coefficients = [float(np.abs(vals[a]) ** 2) for a in range(4)]
    for a, b, _, _ in _PAIRS:
        x = complex(vals[a] * np.conj(vals[b]))
        r, s = 2.0 * x.real, -2.0 * x.imag
        coefficients += (r, -r, s, s)
    return [(slot, c) for slot, c in enumerate(coefficients) if abs(c) >= _COEFF_DROP]


def weight_formula(u: PauliCoeffs | Iterable[complex]) -> float:
    """W(U), the one-norm of ``decompose(u)``'s coefficients, without building its terms."""
    return running_norm(c for _, c in _slot_coefficients(PauliCoeffs.coerce(u).values))[-1]


def reconstruct_ptm(decomposition: QPDecomposition) -> np.ndarray:
    """The 16x16 two-qubit PTM that the signed mixture represents.

    A sequence label contributes the product of its channels' PTMs (last
    applied leftmost); each term contributes c * kron(left, right).
    """
    out = np.zeros((16, 16))
    for term in decomposition.terms:
        out += term.coefficient * np.kron(_sequence_ptm(term.left), _sequence_ptm(term.right))
    return out


def _sequence_ptm(sequence: ChannelSequence) -> np.ndarray:
    ptm = basis_ptm(sequence[0])
    for cid in sequence[1:]:
        ptm = basis_ptm(cid) @ ptm
    return ptm


def compose(second: QPDecomposition, first: QPDecomposition) -> QPDecomposition:
    """Decomposition of (second after first); weight is exactly W2 * W1.

    Labels concatenate in application order, so sampling a composed term
    means running the first gate's channels, then the second's.
    """
    terms = tuple(
        QPTerm(
            t2.coefficient * t1.coefficient,
            t1.left + t2.left,
            t1.right + t2.right,
        )
        for t2 in second.terms
        for t1 in first.terms
    )
    return QPDecomposition(terms, second.weight * first.weight)


def legacy_decompose(theta: ThetaVector | Iterable[float]) -> tuple[QPDecomposition, float]:
    """Per-factor decomposition of the canonical gate, with its total cost.

    Each nonzero t_k factor exp(i t_k sigma_k sigma_k) is decomposed on its
    own and the results are composed, so the cost multiplies:
    prod_k (1 + 2 |sin 2 t_k|). Never below the direct construction's weight.
    """
    t = ThetaVector.coerce(theta)
    result: QPDecomposition | None = None
    for k, angle in enumerate(t, start=1):
        if angle == 0.0:
            continue
        single_axis = [0.0, 0.0, 0.0]
        single_axis[k - 1] = angle
        factor = decompose(pauli_coefficients(single_axis))
        result = factor if result is None else compose(factor, result)
    if result is None:
        result = decompose(pauli_coefficients((0.0, 0.0, 0.0)))
    return result, legacy_cost(t)


def legacy_cost(theta: ThetaVector | Iterable[float]) -> float:
    """prod_k (1 + 2 |sin 2 t_k|), the cost of decomposing each factor alone."""
    cost = 1.0
    for angle in ThetaVector.coerce(theta):
        cost *= 1.0 + 2.0 * abs(sin(2.0 * angle))
    return cost
