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
pi/4 >= t1 >= t2 >= t3 >= 0. Its mirror image under t1 -> -t1 is accepted by
a separate predicate but everything downstream (sweeps, max search) uses the
principal tetrahedron only.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, pi
from typing import Iterable, Iterator

import numpy as np

from .algebra import PAULIS, kron, unitary_matrix

_NORMALIZATION_TOL = 1e-12
_DOMAIN_TOL = 1e-12

# sigma_a (x) sigma_a for a = 0..3, the generators' matrix forms
_SIGMA_SIGMA = tuple(kron(p, p) for p in PAULIS)
for _m in _SIGMA_SIGMA:
    _m.setflags(write=False)


@dataclass(frozen=True)
class ThetaVector:
    """Interaction angles (t1, t2, t3) of the canonical form, in radians."""

    theta1: float
    theta2: float
    theta3: float

    def __post_init__(self) -> None:
        for t in (self.theta1, self.theta2, self.theta3):
            if not isfinite(t):
                raise ValueError(f"non-finite angle {t}")

    @classmethod
    def coerce(cls, value: ThetaVector | Iterable[float]) -> ThetaVector:
        if isinstance(value, ThetaVector):
            return value
        items = [float(v) for v in value]
        if len(items) != 3:
            raise ValueError(f"expected 3 angles, got {len(items)}")
        return cls(*items)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.theta1, self.theta2, self.theta3)

    def __iter__(self) -> Iterator[float]:
        return iter(self.as_tuple())


@dataclass(frozen=True)
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
        if not np.isfinite(vals).all():
            raise ValueError("non-finite coefficients")
        norm = float(np.sum(np.abs(vals) ** 2))
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

    @property
    def u0(self) -> complex:
        return complex(self.values[0])

    @property
    def u1(self) -> complex:
        return complex(self.values[1])

    @property
    def u2(self) -> complex:
        return complex(self.values[2])

    @property
    def u3(self) -> complex:
        return complex(self.values[3])


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


def pauli_coefficients(theta: ThetaVector | Iterable[float]) -> PauliCoeffs:
    """u_a of the canonical gate, by trace projection of the product form."""
    u = canonical_unitary(theta)
    coeffs = np.array([np.trace(m @ u) / 4.0 for m in _SIGMA_SIGMA])
    return PauliCoeffs(coeffs)


def in_weyl_domain(theta: ThetaVector | Iterable[float], tol: float = _DOMAIN_TOL) -> bool:
    """True iff theta lies in the tetrahedron pi/4 >= t1 >= t2 >= t3 >= 0."""
    t1, t2, t3 = ThetaVector.coerce(theta)
    return (
        t1 <= pi / 4 + tol
        and t1 >= t2 - tol
        and t2 >= t3 - tol
        and t3 >= -tol
    )


def in_mirrored_weyl_domain(
    theta: ThetaVector | Iterable[float], tol: float = _DOMAIN_TOL
) -> bool:
    """True iff (-t1, t2, t3) lies in the principal tetrahedron (t1 <= 0 half)."""
    t1, t2, t3 = ThetaVector.coerce(theta)
    return in_weyl_domain((-t1, t2, t3), tol=tol)
