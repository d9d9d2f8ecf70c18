"""Monte-Carlo estimation of observables on circuits with cut gates.

Each shot runs the circuit once. An uncut gate is applied exactly. A cut
canonical gate is replaced by one term of its quasiprobability decomposition,
drawn proportionally to |coefficient|; the term's channel labels are realized
on the two qubits (projective branches and coin flips included) and the
coefficient's phase together with all realization weights accumulate into a
unit-modulus shot phase. The shot value is

    x_s = W_total * Re(phase_s * o_s'),

where W_total is the product of the cut weights and o_s' is either the exact
trace of the observable on the realized state (EXACT_TRACE) or a sampled
joint eigenvalue of one observable term scaled by o_max (EIGENVALUE_SAMPLE).
Averaged over shots this is unbiased for the exact expectation; taking the
real part is a refinement that only removes noise, since the imaginary part
has zero mean for a unitary target. |x_s| <= W_total * o_max holds per shot
and is asserted.

Shot counts for a target (epsilon, delta) follow the two-sided Hoeffding
bound for samples bounded by W * o_max:

    S = ceil( 2 (W * o_max / epsilon)^2 * ln(2 / delta) ).

Reproducibility: every shot draws from its own uniform stream derived from
(seed, shot_index) by a fixed 64-bit mix (murmur-style initialization, then a
SplitMix64 walk). A result is therefore a pure function of the seed and
the inputs; the stream values themselves are pinned by test vectors. Stdlib
and numpy generators cost 5-10 us per per-shot construction, which is why
this hot path uses the explicit counter scheme.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from math import ceil, log, sqrt
from typing import Mapping

import numpy as np

from .circuit import (
    CanonicalGate,
    Circuit,
    Observable,
    apply_gate,
    initial_state,
    observable_expectation,
    pauli_string_expectation,
    pauli_string_matrix,
)
from .decomposition import QPDecomposition, decompose
from .canonical import pauli_coefficients
from .local_basis import realization_program, run_program

_BOUND_SLACK = 1e-9

# the largest double below 1
_BELOW_ONE = 1.0 - 2.0**-53

# dense observable matrices are cached up to this width (1 MB at 8 qubits);
# wider observables fall back to per-qubit Pauli application
_DENSE_QUBIT_LIMIT = 8


def _decomp_table(decomp: QPDecomposition):
    """Per-decomposition sampling table, cached on the (frozen) object.

    Returns (cums, phases, programs): cumulative |coefficient| cut points for
    a bisect draw, unit phases c/|c|, and per term the realization programs
    in run order as (side, program) pairs, side 0 for the gate's first qubit.
    """
    table = decomp.__dict__.get("_sampler_table")
    if table is None:
        cums: list[float] = []
        acc = 0.0
        for term in decomp.terms:
            acc += abs(term.coefficient)
            cums.append(acc)
        phases = tuple(t.coefficient / abs(t.coefficient) for t in decomp.terms)
        programs = tuple(
            tuple((0, realization_program(cid)) for cid in t.left)
            + tuple((1, realization_program(cid)) for cid in t.right)
            for t in decomp.terms
        )
        table = (cums, phases, programs)
        object.__setattr__(decomp, "_sampler_table", table)
    return table


def _obs_table(observable: Observable):
    """Per-observable sampling table, cached on the (frozen) object.

    Returns (dense, terms, cums): the full dense matrix (or None when too
    wide), nonzero terms as (sign, pauli, dense term matrix or None), and
    cumulative |coefficient| cut points over those terms.
    """
    table = observable.__dict__.get("_sampler_table")
    if table is None:
        small = observable.num_qubits <= _DENSE_QUBIT_LIMIT
        dense = observable.matrix() if small else None
        terms = []
        cums: list[float] = []
        acc = 0.0
        for coeff, pauli in observable.terms:
            if coeff == 0.0:
                continue
            acc += abs(coeff)
            cums.append(acc)
            terms.append(
                (1.0 if coeff > 0 else -1.0, pauli, pauli_string_matrix(pauli) if small else None)
            )
        table = (dense, tuple(terms), cums)
        object.__setattr__(observable, "_sampler_table", table)
    return table


class MeasureMode(Enum):
    EXACT_TRACE = "exact"
    EIGENVALUE_SAMPLE = "sample"


class ShotStream:
    """Uniform draws for one shot, keyed by (seed, shot_index).

    The starting state is a murmur-style 64-bit finalizer of the key, so
    consecutive shots start at uncorrelated positions; each draw then
    advances by the SplitMix64 increment and finalizer. Values in [0, 1).
    """

    __slots__ = ("_z",)

    _MASK = (1 << 64) - 1
    _GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int, shot_index: int) -> None:
        h = (seed * 0x2545F4914F6CDD1D + shot_index * self._GAMMA + 0x632BE59BD9B4E019) & self._MASK
        h = ((h ^ (h >> 33)) * 0xFF51AFD7ED558CCD) & self._MASK
        h = ((h ^ (h >> 33)) * 0xC4CEB9FE1A85EC53) & self._MASK
        self._z = h ^ (h >> 33)

    def random(self) -> float:
        self._z = z = (self._z + self._GAMMA) & self._MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        z ^= z >> 31
        u = z / 18446744073709551616.0
        # z >= 2**64 - 1024 rounds up to 1.0; clamp to keep the [0, 1) contract
        return u if u < 1.0 else _BELOW_ONE


@dataclass(frozen=True)
class EstimatorConfig:
    """Either a fixed shot count or an (epsilon, delta) accuracy target."""

    shots: int | None = None
    epsilon: float | None = None
    delta: float | None = None
    seed: int = 0
    mode: MeasureMode = MeasureMode.EXACT_TRACE

    def __post_init__(self) -> None:
        fixed = self.shots is not None
        targeted = self.epsilon is not None or self.delta is not None
        if fixed == targeted or (targeted and (self.epsilon is None or self.delta is None)):
            raise ValueError("set exactly one of shots or (epsilon, delta)")
        if fixed and self.shots < 1:
            raise ValueError("shots must be >= 1")


@dataclass(frozen=True)
class ShotRecord:
    """One shot: accumulated phase, observable sample o', and x = W Re(phase o')."""

    phase: complex
    observable_value: float
    value: float


@dataclass(frozen=True)
class EstimatorResult:
    mean: float
    std_error: float
    shots: int
    w_total: float
    o_max: float
    seed: int

    def to_doc(self) -> dict:
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "shots": self.shots,
            "W_total": self.w_total,
            "o_max": self.o_max,
            "seed": self.seed,
        }


def plan_shots(epsilon: float, delta: float, o_max: float, w_total: float) -> int:
    """Shots needed for |estimate - truth| < epsilon with confidence 1 - delta."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not o_max > 0:
        raise ValueError(f"o_max must be positive, got {o_max}")
    if not w_total >= 1:
        raise ValueError(f"w_total must be >= 1, got {w_total}")
    return max(1, ceil(2.0 * (w_total * o_max / epsilon) ** 2 * log(2.0 / delta)))


def run_shot(
    circuit: Circuit,
    observable: Observable,
    decompositions: Mapping[int, QPDecomposition],
    rng,
    mode: MeasureMode = MeasureMode.EXACT_TRACE,
) -> ShotRecord:
    """One Monte-Carlo shot. ``decompositions`` maps cut gate index -> QPD.

    ``rng`` needs only a ``random()`` method. A weight-0 realization branch
    zeroes the state and the shot contributes exactly 0.
    """
    n = circuit.num_qubits
    psi = initial_state(n)
    phase = 1.0 + 0.0j
    w_total = 1.0
    zeroed = False
    for idx, gate in enumerate(circuit.gates):
        if not (isinstance(gate, CanonicalGate) and gate.cut):
            if not zeroed:
                psi = apply_gate(psi, gate, n)
            continue
        decomp = decompositions.get(idx)
        if decomp is None:
            raise ValueError(f"no decomposition provided for cut gate at index {idx}")
        w_total *= decomp.weight
        if zeroed:
            continue
        # term draw proportional to |coefficient|
        cums, phases, programs = _decomp_table(decomp)
        pick = bisect_right(cums, rng.random() * decomp.weight)
        if pick >= len(cums):
            pick = len(cums) - 1
        phase *= phases[pick]
        for side, program in programs[pick]:
            psi, w = run_program(psi, program, gate.qubits[side], n, rng)
            if psi is None:
                zeroed = True
                break
            phase *= w

    o_max = observable.o_max
    dense, _, _ = _obs_table(observable)
    if zeroed:
        o_value = 0.0
    elif mode is MeasureMode.EXACT_TRACE:
        if dense is not None:
            o_value = float(np.real(np.vdot(psi, dense @ psi)))
        else:
            o_value = observable_expectation(psi, observable, n)
    else:
        o_value = _sample_eigenvalue(psi, observable, n, o_max, rng)
    x = w_total * (phase.real * o_value)
    if abs(x) > w_total * o_max + _BOUND_SLACK:
        raise AssertionError(f"shot value {x} exceeds bound {w_total * o_max}")
    return ShotRecord(phase=phase, observable_value=o_value, value=x)


def _sample_eigenvalue(
    psi: np.ndarray, observable: Observable, num_qubits: int, o_max: float, rng
) -> float:
    """Draw one term proportional to |coeff|, then its +-1 eigenvalue."""
    _, terms, cums = _obs_table(observable)
    pick = bisect_right(cums, rng.random() * cums[-1])
    if pick >= len(terms):
        pick = len(terms) - 1
    sign, pauli, term_matrix = terms[pick]
    if term_matrix is not None:
        mean = float(np.real(np.vdot(psi, term_matrix @ psi)))
    else:
        mean = pauli_string_expectation(psi, pauli, num_qubits)
    p_plus = min(1.0, max(0.0, 0.5 * (1.0 + mean)))
    eig = 1.0 if rng.random() < p_plus else -1.0
    return sign * eig * o_max


def estimate(
    circuit: Circuit,
    observable: Observable,
    config: EstimatorConfig,
) -> EstimatorResult:
    """Run the full estimator: decompose cuts, sample shots, reduce.

    The per-shot streams make the result a pure function of (circuit,
    observable, config).
    """
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError("observable width does not match circuit")
    decomps = {
        idx: decompose(pauli_coefficients(circuit.gates[idx].theta))
        for idx in circuit.cut_indices()
    }
    w_total = 1.0
    for d in decomps.values():
        w_total *= d.weight
    o_max = observable.o_max
    if config.shots is not None:
        shots = config.shots
    else:
        shots = plan_shots(config.epsilon, config.delta, o_max, w_total)

    values = np.empty(shots, dtype=float)
    for s in range(shots):
        record = run_shot(
            circuit, observable, decomps, ShotStream(config.seed, s), mode=config.mode
        )
        values[s] = record.value

    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / sqrt(shots)) if shots > 1 else 0.0
    return EstimatorResult(
        mean=mean,
        std_error=std_error,
        shots=shots,
        w_total=w_total,
        o_max=o_max,
        seed=config.seed,
    )
