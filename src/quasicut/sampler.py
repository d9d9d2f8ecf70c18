"""Monte-Carlo estimation of observables on circuits with cut gates.

Each shot runs the circuit once. An uncut gate is applied exactly. A cut
canonical gate is replaced by one term of its quasiprobability decomposition,
drawn proportionally to |coefficient|; the term's channel labels are realized
on the two qubits (projective branches and coin flips included) and the
coefficient's phase together with the realization weights, each +-1,
accumulate into a unit-modulus shot phase. The shot value is

    x_s = W_total * Re(phase_s * o_s'),

where W_total is the product of the cut weights and o_s' is either the exact
trace of the observable on the realized state (EXACT_TRACE) or a sampled
joint eigenvalue of one observable term scaled by o_max (EIGENVALUE_SAMPLE).
Averaged over shots this is unbiased for the exact expectation; taking the
real part is a refinement that only removes noise, since the imaginary part
has zero mean for a unitary target. |x_s| <= W_total * o_max holds per shot
and is asserted.

``estimate`` compiles (circuit, observable, decompositions, mode) once into a
shot plan and runs every shot from it: the state after the uncut gates before
the first cut, simulated once; per cut its qubits, weight, sampling table
and the uncut gates up to the next cut; and, up to 8 qubits, the gates V
after the last cut folded into the observable (V^+ O V, or V^+ P_k V per
term when sampling eigenvalues). Wider circuits keep the tail gates and
evaluate the observable per Pauli.

The shots run in blocks of about 2^15 amplitudes: the states of a block's
shots are the rows of one (B, 2^n) array. Per cut, a loop over the rows
draws each shot's term and runs its realization programs on that shot's own
stream; the uncut gates after the cut, and at the end the exact-mode
observable, then act on the whole block at once. In sample mode each shot
draws its observable term, and each drawn term is evaluated once on the rows
that drew it. A shot draws exactly what the per-gate simulation would, in the
same order, so neither the plan nor the blocks change a result beyond
rounding.
``run_shot`` compiles a plan on every call and runs it as a block of one.

Shot counts for a target (epsilon, delta) follow the two-sided Hoeffding
bound for samples bounded by W * o_max:

    S = ceil( 2 (W * o_max / epsilon)^2 * ln(2 / delta) ).

An estimate keeps one value per shot, so more than MAX_SHOTS shots, requested
or planned, raise ValueError before any are sampled.

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
from itertools import accumulate
from math import ceil, log, sqrt
from typing import Mapping

import numpy as np

from .circuit import (
    CanonicalGate,
    Circuit,
    Gate,
    Observable,
    apply_gate,
    initial_state,
    pauli_string_apply,
    pauli_string_matrix,
)
from .decomposition import QPDecomposition, decompose
from .canonical import pauli_coefficients
from .local_basis import RealizationStep, realization_program, run_program

_BOUND_SLACK = 1e-9

# the largest double below 1
_BELOW_ONE = 1.0 - 2.0**-53

# the gates after the last cut are folded into a dense observable up to this
# width (1 MB at 8 qubits); wider circuits apply them one by one and evaluate
# the observable per Pauli
_DENSE_QUBIT_LIMIT = 8

# estimate runs its shots in blocks of _BLOCK_AMPS >> n rows of 2^n amplitudes
# (512 KiB); at 10 qubits blocks of 2^16 amplitudes ran 1.5x slower per shot
_BLOCK_AMPS = 1 << 15

# an estimate keeps one float per shot: 800 MB at this count
MAX_SHOTS = 100_000_000


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
        for name, value in (("shots", self.shots if fixed else 0), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        targeted = self.epsilon is not None or self.delta is not None
        if fixed == targeted or (targeted and (self.epsilon is None or self.delta is None)):
            raise ValueError("set exactly one of shots or (epsilon, delta)")
        if fixed and self.shots < 1:
            raise ValueError("shots must be >= 1")
        _check_mode(self.mode)


def _check_mode(mode) -> None:
    if not isinstance(mode, MeasureMode):
        raise ValueError(f"mode must be a MeasureMode, got {mode!r}")


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
    try:
        return max(1, ceil(2.0 * (w_total * o_max / epsilon) ** 2 * log(2.0 / delta)))
    except OverflowError as exc:
        raise ValueError(f"epsilon {epsilon} needs more shots than a float can count") from exc


@dataclass(frozen=True)
class _Cut:
    """One cut gate's sampling table and the uncut segment that follows it.

    ``cums`` are cumulative |coefficient| cut points for a bisect draw,
    ``phases`` the unit phases c/|c|, and ``programs`` per term the
    realization programs in run order as (side, program) pairs, side 0 for
    the gate's first qubit. ``after`` holds the uncut gates up to the next
    cut (or the tail when it is not folded).
    """

    qubits: tuple[int, int]
    weight: float
    cums: tuple[float, ...]
    phases: tuple[complex, ...]
    programs: tuple[tuple[tuple[int, tuple[RealizationStep, ...]], ...], ...]
    after: tuple[Gate, ...]


@dataclass(frozen=True)
class _ShotPlan:
    """What every shot of one estimate shares, compiled once.

    ``prefix`` is the (read-only) state after the uncut gates before the
    first cut; every block of shots starts as copies of it. Exact mode
    reads ``dense``, the observable with the folded tail V^+ O V, or on
    wide circuits the observable per Pauli, on a whole block at once.
    Sample mode draws one of ``terms``, (sign, folded V^+ P V or on wide
    circuits the Pauli string), per shot with cut points ``term_cums``.
    """

    num_qubits: int
    mode: MeasureMode
    prefix: np.ndarray
    cuts: tuple[_Cut, ...]
    w_total: float
    observable: Observable
    dense: np.ndarray | None
    terms: tuple[tuple[float, np.ndarray | str], ...]
    term_cums: tuple[float, ...]


def _compile(
    circuit: Circuit,
    observable: Observable,
    decompositions: Mapping[int, QPDecomposition],
    mode: MeasureMode,
) -> _ShotPlan:
    """Split the circuit at its cuts and precompute everything shot-independent."""
    n = circuit.num_qubits
    small = n <= _DENSE_QUBIT_LIMIT
    segments: list[list[Gate]] = [[]]
    cut_decomps: list[tuple[tuple[int, int], QPDecomposition]] = []
    for idx, gate in enumerate(circuit.gates):
        if not (isinstance(gate, CanonicalGate) and gate.cut):
            segments[-1].append(gate)
            continue
        decomp = decompositions.get(idx)
        if decomp is None:
            raise ValueError(f"no decomposition provided for cut gate at index {idx}")
        cut_decomps.append((gate.qubits, decomp))
        segments.append([])

    prefix = initial_state(n)
    for gate in segments[0]:
        prefix = apply_gate(prefix, gate, n)
    prefix.setflags(write=False)

    # when small, the tail folds into the observable
    tail = _unitary(segments[-1], n) if small and cut_decomps and segments[-1] else None
    afters = [tuple(g) for g in segments[1:-1]]
    afters.append(() if small else tuple(segments[-1]))
    cuts = []
    w_total = 1.0
    for (qubits, decomp), after in zip(cut_decomps, afters):
        w_total *= decomp.weight
        cuts.append(
            _Cut(
                qubits=qubits,
                weight=decomp.weight,
                cums=tuple(accumulate(abs(t.coefficient) for t in decomp.terms)),
                phases=tuple(t.coefficient / abs(t.coefficient) for t in decomp.terms),
                programs=tuple(
                    tuple((0, realization_program(cid)) for cid in t.left)
                    + tuple((1, realization_program(cid)) for cid in t.right)
                    for t in decomp.terms
                ),
                after=after,
            )
        )

    def fold(matrix: np.ndarray) -> np.ndarray:
        return matrix if tail is None else tail.conj().T @ matrix @ tail

    exact = mode is MeasureMode.EXACT_TRACE
    live = () if exact else tuple((c, p) for c, p in observable.terms if c != 0.0)
    return _ShotPlan(
        num_qubits=n,
        mode=mode,
        prefix=prefix,
        cuts=tuple(cuts),
        w_total=w_total,
        observable=observable,
        dense=fold(observable.matrix()) if small and exact else None,
        terms=tuple(
            (1.0 if c > 0 else -1.0, fold(pauli_string_matrix(p)) if small else p)
            for c, p in live
        ),
        term_cums=tuple(accumulate(abs(c) for c, _ in live)),
    )


def _unitary(gates: list[Gate], num_qubits: int) -> np.ndarray:
    """The dense unitary of a gate sequence, built by ``apply_gate`` itself.

    The identity, read as a state of 2n qubits, has the row index on the
    first n; each gate acts there, so the result is U = G_k ... G_1.
    """
    dim = 1 << num_qubits
    m = np.eye(dim, dtype=complex).ravel()
    for gate in gates:
        m = apply_gate(m, gate, 2 * num_qubits)
    return m.reshape(dim, dim)


def _block(plan: _ShotPlan, rngs: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One shot per stream in ``rngs``: (phase, o', x = W Re(phase o')) arrays.

    The shots' states are the rows of one (B, 2^n) array. Per cut, in
    circuit order, each row draws its term and runs its side-0, then
    side-1 programs on its own stream. The uncut gates after the cut, and
    then the exact-mode observable, act on the whole block at once. Sample
    mode last draws, per row, the observable term and then its eigenvalue,
    with each drawn term's mean taken once on the rows that drew it.
    """
    n = plan.num_qubits
    psi = np.repeat(plan.prefix[np.newaxis], len(rngs), axis=0)
    phases = [1.0 + 0.0j] * len(rngs)
    for cut in plan.cuts:
        cums, last = cut.cums, len(cut.cums) - 1
        for i, rng in enumerate(rngs):
            # term draw proportional to |coefficient|
            pick = min(bisect_right(cums, rng.random() * cut.weight), last)
            phase = phases[i] * cut.phases[pick]
            row = psi[i]
            for side, program in cut.programs[pick]:
                row, w = run_program(row, program, cut.qubits[side], n, rng)
                phase *= w
            phases[i] = phase
            psi[i] = row
        for gate in cut.after:
            psi = apply_gate(psi, gate, n)

    o_max = plan.observable.o_max
    if plan.mode is MeasureMode.EXACT_TRACE:
        if plan.dense is not None:
            o_value = _row_means(psi, plan.dense, n)
        else:
            o_value = sum(
                coeff * _row_means(psi, pauli, n) for coeff, pauli in plan.observable.terms
            )
    else:
        o_value = np.zeros(len(rngs))
        # each row draws its term; a term's mean is taken only on the rows
        # that drew it, and each of them then draws its eigenvalue
        cums, last = plan.term_cums, len(plan.term_cums) - 1
        rows_by_term: dict[int, list[int]] = {}
        for i, rng in enumerate(rngs):
            pick = min(bisect_right(cums, rng.random() * cums[-1]), last)
            rows_by_term.setdefault(pick, []).append(i)
        for pick, rows in rows_by_term.items():
            sign, op = plan.terms[pick]
            for i, mean in zip(rows, _row_means(psi[rows], op, n).tolist()):
                p_plus = min(1.0, max(0.0, 0.5 * (1.0 + mean)))
                eig = 1.0 if rngs[i].random() < p_plus else -1.0
                o_value[i] = sign * eig * o_max
    phase = np.array(phases)
    x = plan.w_total * (phase.real * o_value)
    bound = plan.w_total * o_max
    over = np.abs(x) > bound + _BOUND_SLACK
    if over.any():
        raise AssertionError(f"shot value {x[over][0]} exceeds bound {bound}")
    return phase, o_value, x


def _row_means(psi: np.ndarray, op: np.ndarray | str, n: int) -> np.ndarray:
    """Re <psi_i|op|psi_i> for each row i; ``op`` is a dense matrix or a Pauli string."""
    image = pauli_string_apply(psi, op, n) if isinstance(op, str) else psi @ op.T
    return np.einsum("ij,ij->i", psi.conj(), image).real


def run_shot(
    circuit: Circuit,
    observable: Observable,
    decompositions: Mapping[int, QPDecomposition],
    rng,
    mode: MeasureMode = MeasureMode.EXACT_TRACE,
) -> ShotRecord:
    """One Monte-Carlo shot. ``decompositions`` maps cut gate index -> QPD.

    ``rng`` needs only a ``random()`` method. This is a one-shot wrapper:
    every call compiles a fresh shot plan (prefix state, sampling tables,
    folded observable) and runs it as a block of one shot, so a loop over
    shots should call ``estimate``, which compiles once per call and runs
    the shots in blocks.
    """
    _check_mode(mode)
    phase, o_value, x = _block(_compile(circuit, observable, decompositions, mode), [rng])
    return ShotRecord(
        phase=complex(phase[0]), observable_value=float(o_value[0]), value=float(x[0])
    )


def estimate(
    circuit: Circuit,
    observable: Observable,
    config: EstimatorConfig,
) -> EstimatorResult:
    """Run the full estimator: decompose cuts, compile the shot plan, sample, reduce.

    The per-shot streams make the result a pure function of (circuit,
    observable, config). More than ``MAX_SHOTS`` shots, requested or
    planned, raise ValueError before anything is sampled.
    """
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError("observable width does not match circuit")
    decomps = {
        idx: decompose(pauli_coefficients(circuit.gates[idx].theta))
        for idx in circuit.cut_indices()
    }
    plan = _compile(circuit, observable, decomps, config.mode)
    o_max = observable.o_max
    if config.shots is not None:
        shots = config.shots
    else:
        shots = plan_shots(config.epsilon, config.delta, o_max, plan.w_total)
    if shots > MAX_SHOTS:
        raise ValueError(f"{shots} shots exceed the limit of {MAX_SHOTS} per estimate")

    block = max(1, _BLOCK_AMPS >> plan.num_qubits)
    values = np.empty(shots, dtype=float)
    for start in range(0, shots, block):
        stop = min(start + block, shots)
        rngs = [ShotStream(config.seed, s) for s in range(start, stop)]
        values[start:stop] = _block(plan, rngs)[2]

    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / sqrt(shots)) if shots > 1 else 0.0
    return EstimatorResult(
        mean=mean,
        std_error=std_error,
        shots=shots,
        w_total=plan.w_total,
        o_max=o_max,
        seed=config.seed,
    )
