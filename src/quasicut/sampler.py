"""Monte-Carlo estimation of observables on circuits with cut gates.

Each shot runs the circuit once. An uncut gate is applied exactly. A cut
canonical gate is replaced by one term of its quasiprobability decomposition,
drawn proportionally to |coefficient|; the term's channel labels are realized
on the two qubits (projective branches and coin flips included) and the
coefficient's sign together with the realization weights, each +-1,
multiply into the shot sign s_s = +-1. The shot value is

    x_s = W_total * s_s * o_s',

where W_total is the product of the cut weights and o_s' is either the exact
trace of the observable on the realized state (EXACT_TRACE) or a sampled
joint eigenvalue of one observable term scaled by o_max (EIGENVALUE_SAMPLE).
Averaged over shots this is unbiased for the exact expectation.
|x_s| <= W_total * o_max holds per shot and is asserted.

``estimate`` compiles (circuit, observable, mode) once into a shot plan,
decomposing each distinct cut angle once, and runs every shot from it: the
state after the uncut gates before the first cut, simulated once, and per
cut its qubits, sampling table (whose total is its weight) and the uncut
gates up to the next cut or the end. The segments after the cuts, which run once per batch of
states, are fused at compile time (``_fuse``): every 1-qubit gate on a
qubit that a 2-qubit gate of the segment touches is multiplied into such a
gate, so a segment becomes one 4x4 product per 2-qubit gate, followed by
the 1-qubit gates of the other qubits as they are. The prefix runs once,
on one state, where fusing costs more than it saves, so it is applied gate
by gate; the same loop of ``apply_gate`` calls runs both. The fused
products round differently from gate-by-gate application, in the last
bits only; the oracle (``statevector``, ``exact_expectation``) is not
fused, so the sampler is still judged against gate-by-gate simulation. The
oracle's own ``observable_expectation`` and ``pauli_string_expectation``
read the observable on a stack of final states at once.

Every step a shot takes is picked from a small discrete set: the term, the
coin sides and measurement outcomes of its steps, and at the end the
observable term. So a shot's state depends only on its branch path, at most
about 100 paths per cut, not on the draws themselves. The shots of an
estimate walk a branch tree together (``_walk``), and each node's work (a
drawn term's (qubit, step) sequence) is done once, not once per shot. The
children of a cut's nodes are stacked in batches across nodes, so the
uncut gates after the cut and the observable run once per batch, not once
per node. Only the open frontier holds states, at most one batch and one
node's children per cut, and the shots run in chunks of 2^16, so memory
does not grow with the tree or the shot count beyond one value per shot.
A shot draws exactly what the per-gate simulation would, in the same
order, so neither the plan nor the tree changes a result beyond rounding,
and a shot's value does not depend on the other shots of its chunk or
batch. All shots at a node have taken the same number of draws, so the
node alone fixes which of their uniforms it reads. ``run_shot(..., seed,
s)`` compiles a plan and walks shot s alone from the same stream table, so
it is shot s of ``estimate`` with that seed.

Shot counts for a target (epsilon, delta) follow the two-sided Hoeffding
bound for samples bounded by W * o_max:

    S = ceil( 2 (W * o_max / epsilon)^2 * ln(2 / delta) ).

An estimate keeps one value per shot, so more than MAX_SHOTS shots, requested
or planned, raise ValueError before any are sampled, as does an o_max so
large that S (2 W o_max)^2 overflows, which bounds both the sum behind the
mean and the squares behind the standard error.

Reproducibility: every shot draws from its own uniform stream derived from
(seed, shot_index) by a fixed 64-bit mix (murmur-style initialization, then a
SplitMix64 walk). A result is therefore a pure function of the seed and
the inputs; the stream values themselves are pinned by test vectors.
``ShotStream`` is one shot's stream on Python ints. SplitMix64 is
counter-based, so ``estimate`` computes a chunk's streams up front as one
table, each shot's first ``draws`` uniforms (the most any shot of the plan
takes), and a tree node reads one column for all its shots with one
gather: the same draws bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from math import ceil, isfinite, log, sqrt

import numpy as np

from .algebra import SIGMA_0, finite_real, integer
from .canonical import ThetaVector, pauli_coefficients
from .circuit import (
    CanonicalGate,
    Circuit,
    Gate,
    Observable,
    Raw2QGate,
    apply_gate,
    initial_state,
    observable_expectation,
    pauli_string_expectation,
)
from .decomposition import decompose
from .local_basis import RealizationStep, Unitary, realization_program, run_branches

_BOUND_SLACK = 1e-9

# the largest double below 1
_BELOW_ONE = 1.0 - 2.0**-53

# estimate walks its shots in chunks of this many; a chunk holds about 100
# bytes per shot (sign, o', x, indices) and 8 per entry of its stream
# table next to its tree
_CHUNK_SHOTS = 1 << 16

# a cut's children are stacked and simulated in batches of about this many
# amplitudes (1 MiB of complex128): one call per batch instead of one per
# parent row, while each tree level holds at most one batch plus one
# parent's children
_BATCH_AMPS = 1 << 16

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


def _uniforms(seed: int, start: int, count: int, draws: int) -> np.ndarray:
    """The first ``draws`` uniforms of every shot in ``range(start, start + count)``.

    Row i, column j holds the (j+1)-th ``ShotStream(seed, start + i).random()``,
    bit for bit: its start state plus (j + 1) increments, finalized. Built
    one column at a time, in place. Reading past ``draws`` raises IndexError.
    """
    z = _stream_start(seed, np.arange(start, start + count, dtype=np.uint64))
    table = np.empty((count, draws))
    for j in range(draws):
        z += np.uint64(_GAMMA)
        # uint64 -> float64 rounds to nearest, as int / float does
        np.divide(_stream_output(z), 18446744073709551616.0, out=table[:, j])
    return np.minimum(table, _BELOW_ONE, out=table)


@dataclass(frozen=True)
class EstimatorConfig:
    """Either a fixed shot count or an (epsilon, delta) accuracy target."""

    shots: int | None = None
    epsilon: float | None = None
    delta: float | None = None
    seed: int = 0
    mode: MeasureMode = MeasureMode.EXACT_TRACE

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", integer(self.seed, "seed"))
        for name, read in (("shots", integer), ("epsilon", finite_real), ("delta", finite_real)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, read(getattr(self, name), name))
        fixed = self.shots is not None
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
    """One shot: its sign +-1, observable sample o', and x = W * sign * o'."""

    sign: float
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
    if not (epsilon > 0 and isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
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

    ``cums`` are cumulative |coefficient| cut points for the term draw, so
    ``cums[-1]`` is the cut's weight W, ``signs`` the coefficients' signs
    c/|c|, each +-1.0 (both built by ``_table``), and ``steps`` per
    term one run of (qubit, step) pairs: the steps of its left channels on
    the gate's first qubit, then those of its right channels on the second,
    and ``draws`` per term their coins and measurements. Cuts with the same
    angle share one ``cums`` and one ``signs``. ``after`` holds the uncut
    gates up to the next cut, or to the end of the circuit, fused by
    ``_fuse`` into 2-qubit products and lone-qubit gates.
    """

    cums: tuple[float, ...]
    signs: tuple[float, ...]
    steps: tuple[tuple[tuple[int, RealizationStep], ...], ...]
    draws: tuple[int, ...]
    after: tuple[Raw2QGate | Gate, ...]


@dataclass(frozen=True, eq=False)
class _ShotPlan:
    """What every shot of one estimate shares, compiled once.

    ``prefix`` is the (read-only) state after the uncut gates before the
    first cut, the root of every walk's branch tree. Exact mode reads
    ``observable`` per Pauli string on a stack of leaf states at once.
    Sample mode draws one of ``terms``, (sign, Pauli string), per shot with
    cut points ``term_cums``. ``draws`` is the most uniforms any shot takes:
    per cut one for the term and one per coin or measurement of its
    busiest term, and in sample mode two more.
    """

    num_qubits: int
    mode: MeasureMode
    prefix: np.ndarray
    cuts: tuple[_Cut, ...]
    w_total: float
    observable: Observable
    terms: tuple[tuple[float, str], ...]
    term_cums: tuple[float, ...]
    draws: int


def _compile(circuit: Circuit, observable: Observable, mode: MeasureMode) -> _ShotPlan:
    """Decompose each cut angle once, split the circuit at its cuts, fuse the later segments."""
    _check_mode(mode)
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError("observable width does not match circuit")
    n = circuit.num_qubits
    segments: list[list[Gate]] = [[]]
    cut_gates = []
    for gate in circuit.gates:
        if not (isinstance(gate, CanonicalGate) and gate.cut):
            segments[-1].append(gate)
            continue
        cut_gates.append(gate)
        segments.append([])

    # the prefix runs once, on one state: fusing it would cost more than it saves
    prefix = _apply_steps(initial_state(n), segments[0], n)
    prefix.setflags(write=False)

    exact = mode is MeasureMode.EXACT_TRACE
    # cuts that share an angle share a decomposition and its tables
    tables: dict[ThetaVector, tuple] = {}
    cuts = []
    w_total = 1.0
    draws = 0 if exact else 2  # the observable term and its eigenvalue
    for gate, after in zip(cut_gates, segments[1:]):
        if gate.theta not in tables:
            decomp = decompose(pauli_coefficients(gate.theta))
            tables[gate.theta] = decomp, *_table([t.coefficient for t in decomp.terms])
        decomp, cums, signs = tables[gate.theta]
        w_total *= cums[-1]
        steps = tuple(
            tuple(
                (qubit, step)
                for qubit, channels in zip(gate.qubits, (t.left, t.right))
                for cid in channels
                for step in realization_program(cid)
            )
            for t in decomp.terms
        )
        term_draws = tuple(sum(not isinstance(s, Unitary) for _, s in seq) for seq in steps)
        draws += 1 + max(term_draws)
        cuts.append(
            _Cut(
                cums=cums,
                signs=signs,
                steps=steps,
                draws=term_draws,
                after=_fuse(after),
            )
        )

    live = () if exact else tuple((c, p) for c, p in observable.terms if c != 0.0)
    term_cums, term_signs = _table([c for c, _ in live])
    return _ShotPlan(
        num_qubits=n,
        mode=mode,
        prefix=prefix,
        cuts=tuple(cuts),
        w_total=w_total,
        observable=observable,
        terms=tuple(zip(term_signs, (p for _, p in live))),
        term_cums=term_cums,
        draws=draws,
    )


def _table(coefficients: list[float]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The sampling table of nonzero ``coefficients``: cumulative |c| and signs c/|c|."""
    cums = tuple(accumulate(abs(c) for c in coefficients))
    return cums, tuple(1.0 if c > 0 else -1.0 for c in coefficients)


def _fuse(segment: list[Gate]) -> tuple[Raw2QGate | Gate, ...]:
    """The uncut gates ``segment`` as fewer steps: one 4x4 product per 2-qubit gate.

    Each qubit's 1-qubit gates multiply into its next 2-qubit gate from the
    right, and those after its last 2-qubit gate into that gate from the
    left. The 1-qubit gates of a qubit that no 2-qubit gate touches stay the
    gates they are, applied in order after the 2-qubit steps (which do not
    touch that qubit). Applying the steps in order is applying ``segment``,
    up to rounding.
    """
    paired = {q for gate in segment if isinstance(gate, CanonicalGate) for q in gate.qubits}
    pending: dict[int, np.ndarray] = {}  # per paired qubit, its 1-qubit gates not yet placed
    pairs: list[tuple[int, int]] = []
    products: list[np.ndarray] = []
    last: dict[int, int] = {}  # per qubit, its last 2-qubit product
    lone = []
    for gate in segment:
        if isinstance(gate, CanonicalGate):
            a, b = gate.qubits
            product = gate.matrix
            if a in pending or b in pending:
                product = product @ _kron(pending.pop(a, SIGMA_0), pending.pop(b, SIGMA_0))
            last[a] = last[b] = len(products)
            pairs.append(gate.qubits)
            products.append(product)
        elif gate.qubit not in paired:
            lone.append(gate)
        else:
            held = pending.get(gate.qubit)
            pending[gate.qubit] = gate.matrix if held is None else gate.matrix @ held
    for qubit, u in pending.items():
        i = last[qubit]
        left = _kron(u, SIGMA_0) if pairs[i][0] == qubit else _kron(SIGMA_0, u)
        products[i] = left @ products[i]
    return tuple(Raw2QGate(p, m) for p, m in zip(pairs, products)) + tuple(lone)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b for 2x2 a and b, by broadcasting: a fraction of np.kron's cost."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _apply_steps(stack: np.ndarray, steps, n: int) -> np.ndarray:
    """Gates or fused steps, applied in order to a state or a stack of states."""
    for step in steps:
        stack = apply_gate(stack, step, n)
    return stack


def _walk(plan: _ShotPlan, table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the shot of each row of uniforms ``table`` down the plan's branch tree.

    Returns (sign, o', x) arrays. A path ``(sign, shots, j)`` is a node:
    the shots (rows) that reached it, each having taken j draws, so it
    reads column j. ``descend`` starts at a one-row stack, the prefix.
    Before cut k each row's shots draw their terms from column j, each
    drawn term's steps run once per branch (``run_branches``) on its next
    ``cut.draws[term]`` columns, and its children start after them.
    ``descend`` collects the branches of consecutive rows until they hold
    ``_BATCH_AMPS`` amplitudes or the last row is done. It then stacks the
    batch, runs the uncut gates after the cut on it and descends from it
    before drawing the next rows, so only the open frontier holds states.
    In sample mode a leaf's shots draw their observable term and eigenvalue
    from its column and the next, and each drawn term is evaluated once, on
    its leaves.
    """
    n = plan.num_qubits
    shots = len(table)
    sign = np.empty(shots)
    o_value = np.empty(shots)

    def descend(k: int, stack: np.ndarray, paths: list[tuple[float, np.ndarray, int]]) -> None:
        # row r of stack is the state before cut k of the shots paths[r][1]
        if k == len(plan.cuts):
            leaves(stack, paths)
            return
        cut, last = plan.cuts[k], len(paths) - 1
        states, children = [], []
        for row, (psi, (path_sign, idx, j)) in enumerate(zip(stack, paths)):
            for term, drew in _draw_terms(table[idx, j], cut.cums):
                taken, end = idx[drew], j + 1 + cut.draws[term]
                u = table[taken, j + 1 : end]
                for state, w, rows in run_branches(psi, cut.steps[term], n, u):
                    states.append(state)
                    children.append((path_sign * cut.signs[term] * w, taken[rows], end))
            if row == last or len(states) << n >= _BATCH_AMPS:
                batch = _apply_steps(_stack(states, n), cut.after, n)
                batch_paths, states, children = children, [], []
                descend(k + 1, batch, batch_paths)

    def leaves(stack: np.ndarray, paths: list[tuple[float, np.ndarray, int]]) -> None:
        idx = np.concatenate([i for _, i, _ in paths])
        leaf_of = np.repeat(np.arange(len(paths)), [len(i) for _, i, _ in paths])
        sign[idx] = np.array([s for s, _, _ in paths])[leaf_of]
        if plan.mode is MeasureMode.EXACT_TRACE:
            o_value[idx] = observable_expectation(stack, plan.observable, n)[leaf_of]
            return
        col = np.array([j for _, _, j in paths])[leaf_of]
        for term, drew in _draw_terms(table[idx, col], plan.term_cums):
            taken, at = idx[drew], leaf_of[drew]
            term_sign, pauli = plan.terms[term]
            used = np.unique(at)
            means = np.empty(len(paths))
            # a Pauli string's entries are 0, +-1 or +-i: exact in any row position
            means[used] = pauli_string_expectation(stack[used], pauli, n)
            p_plus = np.clip(0.5 * (1.0 + means[at]), 0.0, 1.0)
            eig = np.where(table[taken, col[drew] + 1] < p_plus, 1.0, -1.0)
            o_value[taken] = term_sign * eig * plan.observable.o_max

    descend(0, _stack([plan.prefix], n), [(1.0, np.arange(shots), 0)])
    x = plan.w_total * (sign * o_value)
    bound = plan.w_total * plan.observable.o_max
    over = np.abs(x) > bound + _BOUND_SLACK
    if over.any():
        raise AssertionError(f"shot value {x[over][0]} exceeds bound {bound}")
    return sign, o_value, x


def _draw_terms(u: np.ndarray, cums: tuple[float, ...]):
    """Draw a term per uniform in ``u`` by the cumulative weights ``cums``.

    Returns (term, mask over ``u``) for every term drawn, as
    ``bisect_right(cums, u * cums[-1])`` per uniform would pick them.
    """
    picks = np.minimum(np.searchsorted(cums, u * cums[-1], side="right"), len(cums) - 1)
    return [(term, picks == term) for term in np.unique(picks).tolist()]


def _stack(states, n: int) -> np.ndarray:
    """The states as rows of one array, padded with copies of the first.

    A row of a stacked product rounds alike wherever it sits in the stack,
    except that OpenBLAS's zgemm rounds the columns of a trailing partial
    group of four differently. A gate or fused step, on one qubit or two,
    has 2^(n-2) or more columns per row of a stack of n-qubit states, so
    stacks of a multiple of
    max(16 >> n, 1) rows avoid it, and a shot's value depends on its path
    alone, not on the other shots of its chunk.
    """
    rows = list(states)
    quantum = max(16 >> n, 1)
    return np.stack(rows + rows[:1] * (-len(rows) % quantum))


def run_shot(
    circuit: Circuit,
    observable: Observable,
    seed: int,
    shot_index: int,
    mode: MeasureMode = MeasureMode.EXACT_TRACE,
) -> ShotRecord:
    """Shot ``shot_index`` of ``estimate`` with ``seed``, alone.

    ``shot_index`` lies in ``range(MAX_SHOTS)``, the shots an estimate can
    run. Every call compiles a fresh shot plan (decompositions, prefix
    state, sampling tables, fused uncut segments) and walks one path of its
    branch tree, so a loop over shots should call ``estimate``, which
    compiles once and walks all its shots together.
    """
    seed = integer(seed, "seed")
    shot_index = integer(shot_index, "shot_index")
    if not 0 <= shot_index < MAX_SHOTS:
        raise ValueError(f"shot_index must lie in 0..{MAX_SHOTS - 1}, got {shot_index}")
    plan = _compile(circuit, observable, mode)
    table = _uniforms(seed, shot_index, 1, plan.draws)
    return ShotRecord(*(values[0].item() for values in _walk(plan, table)))


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
    plan = _compile(circuit, observable, config.mode)
    o_max = observable.o_max
    if config.shots is not None:
        shots = config.shots
    else:
        shots = plan_shots(config.epsilon, config.delta, o_max, plan.w_total)
    if shots > MAX_SHOTS:
        raise ValueError(f"{shots} shots exceed the limit of {MAX_SHOTS} per estimate")
    # bounds both the sum in the mean and the sum of squares in the std error
    spread = 2.0 * plan.w_total * o_max
    if not isfinite(shots * spread * spread):
        raise ValueError(
            f"o_max {o_max} is too large: {shots} shot values up to W_total * o_max "
            f"= {plan.w_total * o_max} overflow the mean or its standard error"
        )

    values = np.empty(shots, dtype=float)
    for start in range(0, shots, _CHUNK_SHOTS):
        count = min(_CHUNK_SHOTS, shots - start)
        table = _uniforms(config.seed, start, count, plan.draws)
        values[start : start + count] = _walk(plan, table)[2]

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
