"""Cost surveys over the canonical-gate tetrahedron.

Every row reports, for one interaction vector theta, the direct sampling
weight W, the per-factor legacy cost prod_k (1 + 2|sin 2 t_k|), and the
gate-based cost G = (sum |u_a|)^2. G <= W <= legacy holds pointwise, with
W = legacy exactly when at most one component is nonzero.

Sweeps enumerate the lattice {linspace(0, pi/4, m)}^3 restricted to
t1 >= t2 >= t3 in lexicographic index order. Boundary points that are
locally equivalent to each other (different theta, same gate up to local
rotations) are reported as distinct rows; no deduplication is attempted.

The weight maximum is located by a compass search over the box [0, pi/4]^3,
started from the best point of a coarse lattice (which includes the
t1 = pi/4 face, where the maximum lives). W is invariant under coordinate
permutations, so the box search is equivalent to the tetrahedron search and
the refined point is sorted into canonical order.
"""

from __future__ import annotations

import csv
import io
from dataclasses import astuple, dataclass
from math import pi

import numpy as np

from .algebra import integer
from .canonical import ThetaVector, pauli_coefficients
from .circuit import gate_based_cost
from .decomposition import legacy_cost, weight_formula

# find_max_w's seed lattice resolution per axis
_GRID_POINTS = 10

# a sweep row costs about 0.1-0.2 ms and 300 bytes: at this count, minutes and 300 MB
MAX_SWEEP_ROWS = 1_000_000

# a row's columns, in field order: the CSV header and the JSON keys
_COLUMNS = ("theta1", "theta2", "theta3", "W", "legacy", "G")


@dataclass(frozen=True)
class SweepRow:
    theta1: float
    theta2: float
    theta3: float
    w: float
    legacy: float
    g: float

    def to_dict(self) -> dict:
        return dict(zip(_COLUMNS, astuple(self)))


def compare_costs(theta: ThetaVector | tuple[float, float, float]) -> SweepRow:
    """W, legacy, and G at one point."""
    t = ThetaVector.coerce(theta)
    u = pauli_coefficients(t)
    return SweepRow(
        theta1=t.theta1,
        theta2=t.theta2,
        theta3=t.theta3,
        w=weight_formula(u),
        legacy=legacy_cost(t),
        g=gate_based_cost(u),
    )


def _lattice(points_per_axis: int):
    """Points (t1, t2, t3) of linspace(0, pi/4, m)^3 with t1 >= t2 >= t3, in index order."""
    values = np.linspace(0.0, pi / 4.0, points_per_axis)
    for i1 in range(points_per_axis):
        for i2 in range(i1 + 1):
            for i3 in range(i2 + 1):
                yield (values[i1], values[i2], values[i3])


def sweep(points_per_axis: int) -> list[SweepRow]:
    """All lattice points of the tetrahedron at the given axis resolution.

    ``points_per_axis`` is an integer of at least 2 whose lattice has at
    most ``MAX_SWEEP_ROWS`` rows (180 points per axis or fewer); anything
    else raises ValueError before a row is computed.
    """
    m = integer(points_per_axis, "points per axis")
    if m < 2:
        raise ValueError("need at least 2 points per axis")
    rows = m * (m + 1) * (m + 2) // 6
    if rows > MAX_SWEEP_ROWS:
        raise ValueError(f"{m} points per axis make {rows} rows, over the limit {MAX_SWEEP_ROWS}")
    return [compare_costs(point) for point in _lattice(m)]


def find_max_w() -> tuple[ThetaVector, float]:
    """Locate the weight maximum over the tetrahedron.

    Compass search: start at the best point of the ``_GRID_POINTS``-per-axis
    lattice; each round, try a step of +-h along each axis, clipped to
    [0, pi/4]^3, and move to the best of the six neighbours while W rises,
    else halve h. Stops once h < 1e-10.
    """

    def w_at(t) -> float:
        return weight_formula(pauli_coefficients(t))

    best_w, best_t = max((w_at(point), point) for point in _lattice(_GRID_POINTS))
    best_t = np.array(best_t)
    steps = np.vstack([np.eye(3), -np.eye(3)])
    h = pi / 4.0 / (_GRID_POINTS - 1)  # the lattice spacing
    while h >= 1e-10:
        neighbours = np.clip(best_t + h * steps, 0.0, pi / 4.0)
        scores = [w_at(t) for t in neighbours]
        k = int(np.argmax(scores))
        if scores[k] > best_w:
            best_w, best_t = scores[k], neighbours[k]
        else:
            h /= 2.0
    ordered = np.sort(best_t)[::-1]
    return ThetaVector(*ordered), float(best_w)


def rows_to_csv(rows: list[SweepRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_COLUMNS)
    writer.writerows(astuple(row) for row in rows)
    return buffer.getvalue()


def rows_to_json(rows: list[SweepRow]) -> list[dict]:
    return [row.to_dict() for row in rows]
