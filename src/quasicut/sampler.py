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
the first cut, simulated once, and per cut its qubits, weight, sampling table
and the uncut gates up to the next cut or the end. The observable is read per
Pauli string on the final states.

Every step a shot takes is picked from a small discrete set: the term, the
coin sides and measurement outcomes of its steps, and at the end the
observable term. So a shot's state depends only on its branch path, at most
about 100 paths per cut, not on the draws themselves. The shots of an
estimate walk a branch tree together (``_walk``), and each node's work (a
drawn term's (qubit, step) sequence, the uncut gates after its cut, the
observable) is done once, not once per shot. Only the open frontier holds
states, and the shots run in chunks of 2^16, so memory does not grow with
the tree or the shot count beyond one value per shot. A shot draws exactly
what the per-gate simulation would, in the same order, so neither the plan
nor the tree changes a result beyond rounding, and a shot's value does not
depend on the other shots of its chunk. ``run_shot`` compiles a plan on
every call and walks one path of its tree.

Shot counts for a target (epsilon, delta) follow the two-sided Hoeffding
bound for samples bounded by W * o_max:

    S = ceil( 2 (W * o_max / epsilon)^2 * ln(2 / delta) ).

An estimate keeps one value per shot, so more than MAX_SHOTS shots, requested
or planned, raise ValueError before any are sampled.

Reproducibility: every shot draws from its own uniform stream derived from
(seed, shot_index) by a fixed 64-bit mix (murmur-style initialization, then a
SplitMix64 walk). A result is therefore a pure function of the seed and
the inputs; the stream values themselves are pinned by test vectors.
``ShotStream`` is one shot's stream on Python ints; ``estimate`` keeps the
streams of a chunk as one uint64 array, and a tree node advances all its
shots' streams in one array operation, with the same draws bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from math import ceil, isfinite, log, sqrt
from numbers import Real
from typing import Callable, Mapping

import numpy as np

from .circuit import (
    CanonicalGate,
    Circuit,
    Gate,
    Observable,
    apply_gate,
    initial_state,
    pauli_string_apply,
)
from .decomposition import QPDecomposition, decompose
from .canonical import pauli_coefficients
from .local_basis import RealizationStep, realization_program, run_branches

_BOUND_SLACK = 1e-9

# the largest double below 1
_BELOW_ONE = 1.0 - 2.0**-53

# estimate walks its shots in chunks of this many; a chunk holds about 100
# bytes per shot (stream state, phase, o', x, indices) next to its tree
_CHUNK_SHOTS = 1 << 16

# an estimate keeps one float per shot: 800 MB at this count
MAX_SHOTS = 100_000_000


class MeasureMode(Enum):
    EXACT_TRACE = "exact"
    EIGENVALUE_SAMPLE = "sample"


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _stream_start(seed: int, shot_index):
    """The murmur-style finalizer of (seed, shot_index): a stream's first state.

    ``shot_index`` is an int or a uint64 array; the arithmetic is the same
    mod 2^64 on both.
    """
    key = (seed * 0x2545F4914F6CDD1D + 0x632BE59BD9B4E019) & _MASK
    h = (shot_index * _GAMMA + key) & _MASK
    h = ((h ^ (h >> 33)) * 0xFF51AFD7ED558CCD) & _MASK
    h = ((h ^ (h >> 33)) * 0xC4CEB9FE1A85EC53) & _MASK
    return h ^ (h >> 33)


def _stream_output(z):
    """The SplitMix64 finalizer of a stream state z, on ints or uint64 arrays."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class ShotStream:
    """Uniform draws for one shot, keyed by (seed, shot_index).

    The starting state is a murmur-style 64-bit finalizer of the key, so
    consecutive shots start at uncorrelated positions; each draw then
    advances by the SplitMix64 increment and finalizer. Values in [0, 1).
    """

    __slots__ = ("_z",)

    def __init__(self, seed: int, shot_index: int) -> None:
        self._z = _stream_start(seed, shot_index)

    def random(self) -> float:
        self._z = z = (self._z + _GAMMA) & _MASK
        u = _stream_output(z) / 18446744073709551616.0
        # z >= 2**64 - 1024 rounds up to 1.0; clamp to keep the [0, 1) contract
        return u if u < 1.0 else _BELOW_ONE


class _StreamArray:
    """The ``ShotStream`` of every shot in ``range(start, start + count)``.

    One uint64 state per shot; ``draw(idx)`` advances the listed shots
    (positions in the range) by one draw each, as one array operation, and
    returns their uniforms, bit for bit what ``ShotStream.random`` returns.
    """

    def __init__(self, seed: int, start: int, count: int) -> None:
        self._z = _stream_start(seed, np.arange(start, start + count, dtype=np.uint64))

    def draw(self, idx: np.ndarray) -> np.ndarray:
        z = self._z[idx] + np.uint64(_GAMMA)
        self._z[idx] = z
        # uint64 -> float64 rounds to nearest, as int / float does
        return np.minimum(_stream_output(z) / 18446744073709551616.0, _BELOW_ONE)


def _draw_from(rngs) -> Callable[[np.ndarray], np.ndarray]:
    """A ``draw`` over objects with ``random()``: shot i draws from ``rngs[i]``."""
    return lambda idx: np.array([rngs[i].random() for i in idx.tolist()], dtype=float)


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
        for name, value in (("epsilon", self.epsilon), ("delta", self.delta)):
            if value is not None and (isinstance(value, bool) or not isinstance(value, Real)):
                raise ValueError(f"{name} must be a real number, got {value!r}")
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
    if not (o_max > 0 and isfinite(o_max)):
        raise ValueError(f"o_max must be positive and finite, got {o_max}")
    if not (w_total >= 1 and isfinite(w_total)):
        raise ValueError(f"w_total must be finite and >= 1, got {w_total}")
    try:
        return max(1, ceil(2.0 * (w_total * o_max / epsilon) ** 2 * log(2.0 / delta)))
    except OverflowError as exc:
        raise ValueError(f"epsilon {epsilon} needs more shots than a float can count") from exc


@dataclass(frozen=True)
class _Cut:
    """One cut gate's sampling table and the uncut segment that follows it.

    ``cums`` are cumulative |coefficient| cut points for the term draw,
    ``phases`` the unit phases c/|c|, and ``steps`` per term one run of
    (qubit, step) pairs: the steps of its left channels on the gate's first
    qubit, then those of its right channels on the second. ``after`` holds
    the uncut gates up to the next cut, or to the end of the circuit.
    """

    weight: float
    cums: tuple[float, ...]
    phases: tuple[complex, ...]
    steps: tuple[tuple[tuple[int, RealizationStep], ...], ...]
    after: tuple[Gate, ...]


@dataclass(frozen=True)
class _ShotPlan:
    """What every shot of one estimate shares, compiled once.

    ``prefix`` is the (read-only) state after the uncut gates before the
    first cut, the root of every walk's branch tree. Exact mode reads
    ``observable`` per Pauli string on a stack of leaf states at once.
    Sample mode draws one of ``terms``, (sign, Pauli string), per shot with
    cut points ``term_cums``.
    """

    num_qubits: int
    mode: MeasureMode
    prefix: np.ndarray
    cuts: tuple[_Cut, ...]
    w_total: float
    observable: Observable
    terms: tuple[tuple[float, str], ...]
    term_cums: tuple[float, ...]


def _compile(
    circuit: Circuit,
    observable: Observable,
    decompositions: Mapping[int, QPDecomposition],
    mode: MeasureMode,
) -> _ShotPlan:
    """Split the circuit at its cuts and precompute everything shot-independent."""
    n = circuit.num_qubits
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

    cuts = []
    w_total = 1.0
    for (qubits, decomp), after in zip(cut_decomps, segments[1:]):
        w_total *= decomp.weight
        cuts.append(
            _Cut(
                weight=decomp.weight,
                cums=tuple(accumulate(abs(t.coefficient) for t in decomp.terms)),
                phases=tuple(t.coefficient / abs(t.coefficient) for t in decomp.terms),
                steps=tuple(
                    tuple(
                        (qubit, step)
                        for qubit, channels in zip(qubits, (t.left, t.right))
                        for cid in channels
                        for step in realization_program(cid)
                    )
                    for t in decomp.terms
                ),
                after=tuple(after),
            )
        )

    exact = mode is MeasureMode.EXACT_TRACE
    live = () if exact else tuple((c, p) for c, p in observable.terms if c != 0.0)
    return _ShotPlan(
        num_qubits=n,
        mode=mode,
        prefix=prefix,
        cuts=tuple(cuts),
        w_total=w_total,
        observable=observable,
        terms=tuple((1.0 if c > 0 else -1.0, p) for c, p in live),
        term_cums=tuple(accumulate(abs(c) for c, _ in live)),
    )


def _walk(
    plan: _ShotPlan, draw: Callable[[np.ndarray], np.ndarray], shots: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run ``shots`` shots down the plan's branch tree: (phase, o', x) arrays.

    ``draw(idx)`` returns one uniform per shot listed in the index array
    ``idx`` and advances each listed shot's stream by one. ``descend``
    starts at a one-row stack, the prefix with every shot. Before cut k
    each row's shots draw their terms, each drawn term's steps run once per
    branch (``run_branches``), and the branches are stacked for the uncut
    gates after the cut and the next descent, so only the open frontier
    holds states. After the last cut the stack holds the leaves; in sample
    mode each drawn observable term is evaluated once, on its leaves.
    """
    n = plan.num_qubits
    phase = np.empty(shots, dtype=complex)
    o_value = np.empty(shots)

    def descend(k: int, stack: np.ndarray, paths: list[tuple[complex, np.ndarray]]) -> None:
        # row r of stack is the state before cut k of the shots paths[r][1]
        if k == len(plan.cuts):
            leaves(stack, paths)
            return
        cut = plan.cuts[k]
        for psi, (path_phase, idx) in zip(stack, paths):
            states, children = [], []
            for term, drew in _draw_terms(draw, idx, cut.cums, cut.weight):
                for state, w, taken in run_branches(psi, cut.steps[term], n, draw, idx[drew]):
                    states.append(state)
                    children.append((path_phase * cut.phases[term] * w, taken))
            child = _stack(states, n)
            del states  # only the stack stays on the frontier
            for gate in cut.after:
                child = apply_gate(child, gate, n)
            descend(k + 1, child, children)

    def leaves(stack: np.ndarray, paths: list[tuple[complex, np.ndarray]]) -> None:
        for p, i in paths:
            phase[i] = p
        if plan.mode is MeasureMode.EXACT_TRACE:
            means = sum(c * _row_means(stack, pauli, n) for c, pauli in plan.observable.terms)
            for leaf, (_, i) in enumerate(paths):
                o_value[i] = means[leaf]
            return
        idx = np.concatenate([i for _, i in paths])
        leaf_of = np.repeat(np.arange(len(paths)), [len(i) for _, i in paths])
        for term, drew in _draw_terms(draw, idx, plan.term_cums, plan.term_cums[-1]):
            taken, at = idx[drew], leaf_of[drew]
            sign, pauli = plan.terms[term]
            used = np.unique(at)
            means = np.empty(len(paths))
            # a Pauli string's entries are 0, +-1 or +-i: exact in any row position
            means[used] = _row_means(stack[used], pauli, n)
            p_plus = np.clip(0.5 * (1.0 + means[at]), 0.0, 1.0)
            eig = np.where(draw(taken) < p_plus, 1.0, -1.0)
            o_value[taken] = sign * eig * plan.observable.o_max

    descend(0, _stack([plan.prefix], n), [(1.0 + 0.0j, np.arange(shots))])
    x = plan.w_total * (phase.real * o_value)
    bound = plan.w_total * plan.observable.o_max
    over = np.abs(x) > bound + _BOUND_SLACK
    if over.any():
        raise AssertionError(f"shot value {x[over][0]} exceeds bound {bound}")
    return phase, o_value, x


def _draw_terms(draw, idx: np.ndarray, cums: tuple[float, ...], total: float):
    """Each shot in ``idx`` draws a term by its cumulative weights ``cums``.

    Returns (term, mask over ``idx``) for every term drawn, as
    ``bisect_right(cums, u * total)`` per shot would pick them.
    """
    picks = np.minimum(np.searchsorted(cums, draw(idx) * total, side="right"), len(cums) - 1)
    return [(term, picks == term) for term in np.unique(picks).tolist()]


def _stack(states, n: int) -> np.ndarray:
    """The states as rows of one array, padded with copies of the first.

    A row of a stacked product rounds alike wherever it sits in the stack,
    except that OpenBLAS's zgemm rounds the columns of a trailing partial
    group of four differently. A gate on a stack of n-qubit states has
    2^(n-2) or more columns per row, so stacks of a multiple of
    max(16 >> n, 1) rows avoid it, and a shot's value depends on its path
    alone, not on the other shots of its chunk.
    """
    rows = list(states)
    quantum = max(16 >> n, 1)
    return np.stack(rows + rows[:1] * (-len(rows) % quantum))


def _row_means(psi: np.ndarray, pauli: str, n: int) -> np.ndarray:
    """Re <psi_i|P|psi_i> for each row i of ``psi`` and the Pauli string P."""
    return np.einsum("ij,ij->i", psi.conj(), pauli_string_apply(psi, pauli, n)).real


def run_shot(
    circuit: Circuit,
    observable: Observable,
    decompositions: Mapping[int, QPDecomposition],
    rng,
    mode: MeasureMode = MeasureMode.EXACT_TRACE,
) -> ShotRecord:
    """One Monte-Carlo shot. ``decompositions`` maps cut gate index -> QPD.

    ``rng`` needs only a ``random()`` method. Every call compiles a fresh
    shot plan (prefix state, sampling tables, uncut segments) and walks
    one path of its branch tree, so a loop over shots should call
    ``estimate``, which compiles once and walks all its shots together.
    With ``ShotStream(seed, s)`` the record's value is bit for bit shot s
    of ``estimate`` with that seed.
    """
    _check_mode(mode)
    phase, o_value, x = _walk(
        _compile(circuit, observable, decompositions, mode), _draw_from([rng]), 1
    )
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

    values = np.empty(shots, dtype=float)
    for start in range(0, shots, _CHUNK_SHOTS):
        count = min(_CHUNK_SHOTS, shots - start)
        streams = _StreamArray(config.seed, start, count)
        values[start : start + count] = _walk(plan, streams.draw, count)[2]

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
