"""Canonical form of two-qubit unitaries and its Pauli coefficients.

Every two-qubit unitary is locally equivalent to

    U(theta) = exp[i (t1 XX + t2 YY + t3 ZZ)]
             = prod_k (cos t_k * I + i sin t_k * sigma_k (x) sigma_k)

because the three generators commute. Expanding the product gives the
Pauli-diagonal form U = sum_a u_a sigma_a (x) sigma_a with sum |u_a|^2 = 1.
The coefficients are extracted by trace projection,

    u_a = Tr[(sigma_a (x) sigma_a) U] / 4,

rather than by a general matrix exponential; the closed forms

    u_0 = c1 c2 c3 + i s1 s2 s3,    u_1 = c1 s2 s3 + i s1 c2 c3  (cyclic)

are pinned against this projection in the tests.

The parameter domain is the tetrahedron with vertices O = (0,0,0),
A1 = (pi/4,0,0), A2 = (pi/4,pi/4,0), A3 = (pi/4,pi/4,pi/4), equivalently
pi/4 >= t1 >= t2 >= t3 >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .algebra import PAULIS, finite_real, unitary_matrix

_NORMALIZATION_TOL = 1e-12

# sigma_a (x) sigma_a for a = 0..3, the generators' matrix forms
_SIGMA_SIGMA = tuple(np.kron(p, p) for p in PAULIS)
for _m in _SIGMA_SIGMA:
    _m.setflags(write=False)


@dataclass(frozen=True)
class ThetaVector:
    """Interaction angles (t1, t2, t3) of the canonical form, in radians."""

    theta1: float
    theta2: float
    theta3: float

    def __post_init__(self) -> None:
        for name in ("theta1", "theta2", "theta3"):
            object.__setattr__(self, name, finite_real(getattr(self, name), name))

    @classmethod
    def coerce(cls, value: ThetaVector | Iterable[float]) -> ThetaVector:
        if isinstance(value, ThetaVector):
            return value
        items = list(value) if isinstance(value, Iterable) else [value]
        if len(items) != 3:
            raise ValueError(f"expected 3 angles, got {len(items)}")
        return cls(*items)

    def __iter__(self) -> Iterator[float]:
        return iter((self.theta1, self.theta2, self.theta3))


@dataclass(frozen=True, eq=False)
class PauliCoeffs:
    """Coefficients u_a of U = sum_a u_a sigma_a (x) sigma_a.

    Normalized: sum |u_a|^2 = 1 within 1e-12. Global phase is physically
    irrelevant; everything downstream depends only on products u_a * conj(u_b).
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=complex)
        if vals.shape != (4,):
            raise ValueError(f"expected 4 coefficients, got shape {vals.shape}")
        mags = np.abs(vals)
        # normalized, every |u_a| <= 1; the bound rejects NaN and inf and keeps the squares finite
        if not (mags <= 1.0 + _NORMALIZATION_TOL).all():
            raise ValueError(f"coefficients must be finite with |u_a| <= 1, got {vals}")
        norm = float(np.sum(mags ** 2))
        if abs(norm - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(f"coefficients not normalized: sum |u|^2 = {norm}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def coerce(cls, value: PauliCoeffs | Iterable[complex]) -> PauliCoeffs:
        if isinstance(value, PauliCoeffs):
            return value
        return cls(np.asarray(list(value), dtype=complex))

    def __getitem__(self, alpha: int) -> complex:
        return complex(self.values[alpha])


def canonical_unitary(theta: ThetaVector | Iterable[float]) -> np.ndarray:
    """4x4 matrix of exp[i sum_k t_k sigma_k (x) sigma_k].

    Built as the product of the three commuting factors
    cos t_k + i sin t_k sigma_k (x) sigma_k; unitarity is verified to 1e-10.
    """
    t = ThetaVector.coerce(theta)
    u = np.eye(4, dtype=complex)
    for k, angle in enumerate(t, start=1):
        u = u @ (np.cos(angle) * np.eye(4) + 1j * np.sin(angle) * _SIGMA_SIGMA[k])
    return unitary_matrix(u, 4, "canonical unitary")


def pauli_projection(u: np.ndarray) -> PauliCoeffs:
    """u_a = Tr[(sigma_a (x) sigma_a) U] / 4 of a canonical gate's 4x4 unitary ``u``."""
    return PauliCoeffs(np.array([np.trace(m @ u) / 4.0 for m in _SIGMA_SIGMA]))


def pauli_coefficients(theta: ThetaVector | Iterable[float]) -> PauliCoeffs:
    """u_a of the canonical gate, by trace projection of the product form."""
    return pauli_projection(canonical_unitary(theta))
