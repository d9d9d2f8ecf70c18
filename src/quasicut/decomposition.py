"""Quasiprobability decomposition of canonical gates over local channels.

For U = sum_a u_a sigma_a (x) sigma_a, conjugation by U splits into products
of the local basis channels:

    U rho U^+ = sum_a |u_a|^2 (sigma_a (x) sigma_a)[rho]
              + sum_{a<b} r_ab ( A_ab (x) A_ab - B_ab (x) B_ab )[rho]
              + sum_{a<b} s_ab ( A_ab (x) B_ab + B_ab (x) A_ab )[rho]

with r_ab = u_a u_b* + u_b u_a* and s_ab = i (u_a u_b* - u_b u_a*), both real
for any u (the construction asserts |Im| < 1e-12 and stores the real part).
The one-norm of the coefficients is the sampling weight

    W(U) = 1 + sum_{a != b} ( |u_a u_b* + u_b u_a*| + |u_a u_b* - u_b u_a*| ),

the factor by which shot counts grow when the gate is replaced by sampled
local channels. Both quantities depend only on u_a u_b*, so the global phase
of u is immaterial.

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

from .algebra import kron
from .canonical import PauliCoeffs, ThetaVector, pauli_coefficients
from .circuit import _NUMBER, FormatError, _complex_pair, _typed
from .local_basis import BasisChannelId, a_channel, b_channel, basis_ptm, pauli_channel

_IMAG_TOL = 1e-12
_COEFF_DROP = 1e-14

ChannelSequence = tuple[BasisChannelId, ...]


@dataclass(frozen=True)
class QPTerm:
    """One quasiprobability term: coefficient and per-qubit channel labels.

    ``left`` and ``right`` are sequences of basis-channel ids, applied in
    order; single-gate decompositions use length-1 sequences.
    """

    coefficient: complex
    left: ChannelSequence
    right: ChannelSequence

    def __post_init__(self) -> None:
        if not self.left or not self.right:
            raise ValueError("channel label sequences must be non-empty")
        if self.coefficient == 0:
            raise ValueError("zero-coefficient terms must be dropped, not stored")

    @classmethod
    def single(
        cls, coefficient: complex, left: BasisChannelId, right: BasisChannelId
    ) -> QPTerm:
        return cls(coefficient, (left,), (right,))


@dataclass(frozen=True)
class QPDecomposition:
    """A signed mixture of local-channel pairs representing a two-qubit map.

    ``weight`` is the one-norm sum |c| of the coefficients. It is stored
    rather than recomputed so that composition can set the product W2 * W1
    bit-exactly; construction rejects a weight further than a relative 1e-9
    from sum |c|.
    """

    terms: tuple[QPTerm, ...]
    weight: float

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("a decomposition needs at least one term")
        if not np.isfinite(self.weight) or self.weight <= 0:
            raise ValueError(f"bad weight {self.weight}")
        norm = sum(abs(t.coefficient) for t in self.terms)
        if not isclose(self.weight, norm, rel_tol=1e-9):
            raise ValueError(f"weight {self.weight} is not the one-norm {norm} of the terms")

    @property
    def num_terms(self) -> int:
        return len(self.terms)


def decompose(u: PauliCoeffs | Iterable[complex]) -> QPDecomposition:
    """Build the local-channel decomposition of U = sum u_a sigma_a sigma_a.

    Terms come out in a fixed order: the four (sigma_a, sigma_a) diagonals,
    then per pair a < b the blocks (A,A), (B,B), (A,B), (B,A). Coefficients
    with |c| < 1e-14 are dropped. The weight is >= 1, with equality only for
    a single nonzero u_a (a local gate).
    """
    vals = PauliCoeffs.coerce(u).values
    terms: list[QPTerm] = []
    for a in range(4):
        c = float(np.abs(vals[a]) ** 2)
        if c >= _COEFF_DROP:
            terms.append(QPTerm.single(complex(c), pauli_channel(a), pauli_channel(a)))
    for a in range(4):
        for b in range(a + 1, 4):
            x = vals[a] * np.conj(vals[b])
            r = x + np.conj(x)
            s = 1j * (x - np.conj(x))
            if abs(r.imag) > _IMAG_TOL or abs(s.imag) > _IMAG_TOL:
                raise ValueError("pair coefficients failed the reality check")
            r, s = float(r.real), float(s.real)
            aa, bb = a_channel(a, b), b_channel(a, b)
            if abs(r) >= _COEFF_DROP:
                terms.append(QPTerm.single(complex(r), aa, aa))
                terms.append(QPTerm.single(complex(-r), bb, bb))
            if abs(s) >= _COEFF_DROP:
                terms.append(QPTerm.single(complex(s), aa, bb))
                terms.append(QPTerm.single(complex(s), bb, aa))
    weight = float(sum(abs(t.coefficient) for t in terms))
    return QPDecomposition(tuple(terms), weight)


def weight_formula(u: PauliCoeffs | Iterable[complex]) -> float:
    """W(U) evaluated directly from the closed formula (no term construction)."""
    vals = PauliCoeffs.coerce(u).values
    w = 1.0
    for a in range(4):
        for b in range(4):
            if a == b:
                continue
            x = vals[a] * np.conj(vals[b])
            w += abs(x + np.conj(x)) + abs(x - np.conj(x))
    return float(w)


def reconstruct_ptm(decomposition: QPDecomposition) -> np.ndarray:
    """The 16x16 two-qubit PTM that the signed mixture represents.

    A sequence label contributes the product of its channels' PTMs (last
    applied leftmost); each term contributes c * kron(left, right).
    """
    out = np.zeros((16, 16))
    for term in decomposition.terms:
        block = kron(_sequence_ptm(term.left), _sequence_ptm(term.right))
        coeff = complex(term.coefficient)
        if abs(coeff.imag) > _IMAG_TOL:
            raise ValueError("complex coefficients cannot form a real PTM")
        out += coeff.real * block
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


# --- JSON document form ---------------------------------------------------


def decomposition_to_doc(
    decomposition: QPDecomposition, u: PauliCoeffs | None = None
) -> dict:
    """Plain-JSON document: complex numbers become [re, im] pairs."""
    doc: dict = {
        "terms": [
            {
                "c": [term.coefficient.real, term.coefficient.imag],
                "left": ",".join(cid.label() for cid in term.left),
                "right": ",".join(cid.label() for cid in term.right),
            }
            for term in decomposition.terms
        ],
        "W": decomposition.weight,
    }
    if u is not None:
        doc["u"] = [[complex(v).real, complex(v).imag] for v in u.values]
    return doc


def decomposition_from_doc(doc: dict) -> tuple[QPDecomposition, PauliCoeffs | None]:
    """Inverse of decomposition_to_doc.

    Raises FormatError on structural problems (missing fields, values of the
    wrong JSON type, unknown channel labels) and ValueError on semantically
    invalid ones (a zero coefficient, a non-positive weight).
    """
    if not isinstance(doc, dict):
        raise FormatError("decomposition document must be a JSON object")
    try:
        terms = tuple(
            QPTerm(
                _complex_pair(entry["c"], "c"),
                _channel_sequence(entry["left"], "left"),
                _channel_sequence(entry["right"], "right"),
            )
            for entry in _typed(doc["terms"], list, "terms")
        )
        weight = float(_typed(doc["W"], _NUMBER, "W"))
        u_field = doc.get("u")
        u_values = None
        if u_field is not None:
            u_values = [_complex_pair(v, "u") for v in _typed(u_field, list, "u")]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed decomposition document: {exc}") from exc
    u = None if u_values is None else PauliCoeffs(np.array(u_values))
    return QPDecomposition(terms, weight), u


def _channel_sequence(value, field: str) -> ChannelSequence:
    """Comma-separated channel labels, e.g. ``"A01,s2"``."""
    labels = _typed(value, str, field).split(",")
    try:
        return tuple(BasisChannelId.from_label(p) for p in labels)
    except ValueError as exc:
        raise FormatError(f"{field}: {exc}") from exc
