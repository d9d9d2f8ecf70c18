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

``estimate`` and ``run_shot`` run every shot from a shot plan of
(circuit, observable, mode), split at the cuts ``Circuit.cut_indices()``
names: the state after the uncut gates before the
first cut, simulated once, and per cut its qubits, its angle's sampling
table (the terms' cut points, whose total is the weight, and the rows of
their channels' outcome tables, gathered as read-only arrays) and the
uncut gates up to the next cut or the end that lie in the cut's light
cone (``_light_cone``): those that act on its qubits, or on a qubit such
a gate reached before them. Every other uncut gate commutes with the cut
and with what it depends on, so it is carried to before the cut, and
across earlier cuts while it stays outside their cones, into the state
before the first cut; a child re-simulates only the gates the cut can
affect. Each distinct cut angle's
table is built once per compile, from its gate's matrix, without
building its decomposition (``_cut_terms``). The plan of the last call is kept (``_plan``) while the
same circuit, observable and mode objects come back, beside its node
table (``_Tree``): the branch-tree nodes its walks built, within
``_TREE_BYTES``. So a loop of estimates or shots on one circuit compiles
once and builds each kept node once; equal but distinct objects start
again. Only one plan and one tree are held. The
segments after the cuts, which run once per slice of states, are fused
at compile time (``_fuse``): every 1-qubit gate on a
qubit that a 2-qubit gate of the segment touches is multiplied into such a
gate, so a segment becomes one 4x4 product per 2-qubit gate, followed by
the 1-qubit gates of the other qubits as they are. The prefix runs once,
on one state, where fusing costs more than it saves, so it is applied gate
by gate; the same loop of ``apply_gate`` calls runs both. The fused
products and the carried gates' new order round differently from
gate-by-gate application, in the last bits only; the oracle
(``statevector``, ``exact_expectation``) keeps the circuit's order and
does not fuse, so the sampler is still judged against gate-by-gate
simulation. The
oracle's own ``observable_expectation`` (exact mode) or
``pauli_string_expectation`` per live term (sample mode) reads the
observable on a stack of leaf states at once, when the leaves are built.
In sample mode a leaf keeps each live term's chance of eigenvalue +1, and
the plan each term's readout, the sign of its coefficient times o_max, so
a shot compares one uniform and multiplies one eigenvalue.

Every step a shot takes is picked from a small discrete set: the term, the
outcome of each of its two channels (a coin side or a measurement
outcome; every outcome table has at most two outcomes), and at the
end the observable term. So a shot's state depends only on its branch
path, at most about 100 paths per cut, not on the draws themselves. The
shots of an estimate walk a branch tree together (``_walk``). At a cut,
the rows of the channels' outcome tables (``local_basis.KRAUS``,
``WEIGHTS``, ``OUTCOMES`` and ``EFFECT``: per outcome a 2x2 Kraus
operator, a weight +-1 and the index of its effect in
``local_basis.EFFECTS``) give the term's children as (K_a (x) K_b) psi,
and the outcome probabilities are ratios of traces against the 4x4
reduced density matrix of the cut pair. Each node keeps them in its
chance table: per term, the chance of the left outcome 0 and of the
right outcome 0 given either left outcome. So a whole level of the tree
is routed with a fixed number of array operations, one stream call
draws both channels' outcomes, and one batched product builds the
children of many nodes, each reached child once, not once per shot. The
uncut gates after the cut and the observable run once per slice of
children, not once per node. Besides the node table, only the open
frontier holds states, at most one slice of children per cut, and the
shots run in chunks of 2^16, so memory does not grow with the tree or
the shot count beyond one value per shot.
A shot draws exactly what the per-gate simulation would, in the same
order, so neither the plan nor the tree changes a result beyond rounding,
and a shot's value does not depend on the other shots of its chunk or
slice. All shots at a node have taken the same number of draws, so the
node alone fixes which of their uniforms it reads. ``run_shot(..., seed,
s)`` walks shot s alone, from the same plan and stream, so it is shot s
of ``estimate`` with that seed.

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
counter-based, so a draw is a pure function of the stream's start state
and its index: ``estimate`` keeps only each shot's start state, and
``_draw`` computes the draw a tree level reads, for just the shots that
read it, with one array call: the same draws bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import ceil, isfinite, log, sqrt

import numpy as np

from .algebra import SIGMA_0, finite_real, integer, running_norm
from .canonical import ThetaVector, pauli_projection
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
from .decomposition import _SLOTS, _slot_coefficients
from .local_basis import EFFECT, EFFECTS, KRAUS, OUTCOMES, WEIGHTS

# a shot's |x| may exceed W_total * o_max by this fraction of it: the
# rounding of a renormalized leaf state, whatever the observable's scale
_BOUND_SLACK = 1e-9

# the largest double below 1
_BELOW_ONE = 1.0 - 2.0**-53

# estimate walks its shots in chunks of this many; a chunk holds about 100
# bytes per shot (stream start, sign, o', x, indices) next to its tree
_CHUNK_SHOTS = 1 << 16

# a cut's children are built and simulated in slices of at most this many
# amplitudes (1 MiB of complex128, or one child if that is larger): one
# call per slice instead of one per child, while each tree level holds at
# most one slice of children
_BATCH_AMPS = 1 << 16

# the branch-tree nodes kept across walks on one plan (_Tree) allocate at
# most this many bytes: 8 MiB, about 460 10-qubit states with their chance
# tables and child ids at 28 terms
_TREE_BYTES = 1 << 23

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
    ``seed`` and ``shot_index`` are integers, not bools (ValueError otherwise).
    """

    __slots__ = ("_z",)

    def __init__(self, seed: int, shot_index: int) -> None:
        self._z = _stream_start(integer(seed, "seed"), integer(shot_index, "shot_index"))

    def random(self) -> float:
        self._z = z = (self._z + _GAMMA) & _MASK
        u = _stream_output(z) / 18446744073709551616.0
        # z >= 2**64 - 1024 rounds up to 1.0; clamp to keep the [0, 1) contract
        return u if u < 1.0 else _BELOW_ONE


def _draw(start: np.ndarray, column) -> np.ndarray:
    """The (column+1)-th ``ShotStream`` draw of each stream whose start state is in ``start``.

    ``start`` is a uint64 array of ``_stream_start`` states and ``column``
    an int or an int array of its shape. The draw is the start state plus
    (column + 1) increments, finalized and clamped as ``ShotStream.random``
    does, bit for bit; the arithmetic stays on arrays, where uint64
    overflow wraps silently.
    """
    z = start + np.asarray(column, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(_GAMMA)
    # uint64 -> float64 rounds to nearest, as int / float does
    return np.minimum(_stream_output(z) / 18446744073709551616.0, _BELOW_ONE)


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
    """Shots needed for |estimate - truth| < epsilon with confidence 1 - delta.

    Each argument is a finite real number that is not a bool (ValueError otherwise).
    """
    epsilon = finite_real(epsilon, "epsilon")
    delta = finite_real(delta, "delta")
    o_max = finite_real(o_max, "o_max")
    w_total = finite_real(w_total, "w_total")
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


@dataclass(frozen=True, eq=False)
class _Terms:
    """One cut angle's sampling table, gathered from its channels' rows in ``local_basis``.

    ``cums`` are the cumulative |coefficient| cut points of the term draw,
    so ``cums[-1]`` is the cut's weight W. Per term t, side s (0 for the
    left channel on the gate's first qubit, 1 for the right one on its
    second) and outcomes a and b of the left and right channel:
    ``draws[t, s]`` is 1 if the side draws its outcome and 0 if it has one
    outcome, ``effect[t, s, o]`` indexes the effect of the side's outcome o
    in ``local_basis.EFFECTS``, ``kraus[t, a, b]`` is K_a (x) K_b, and
    ``weights[t, a, b]`` the sign of the coefficient times both outcomes'
    weights, each +-1.
    """

    cums: np.ndarray
    kraus: np.ndarray
    weights: np.ndarray
    draws: np.ndarray
    effect: np.ndarray


def _cut_terms(matrix: np.ndarray) -> _Terms:
    """The sampling table of the cut canonical gate whose 4x4 unitary is ``matrix``.

    ``decompose``'s terms fill fixed slots (``decomposition._SLOTS``), whose
    rows ``_SLOT_*`` are gathered at import. The gate's matrix projects onto
    its ``pauli_coefficients`` bit for bit, ``decompose``'s arithmetic gives
    the slots it keeps, and their rows are gathered: the table of its terms.
    """
    kept = _slot_coefficients(pauli_projection(matrix).values)
    slots = np.array([slot for slot, _ in kept])
    cums, signs = _table([c for _, c in kept])
    table = (
        np.array(cums),
        _SLOT_KRAUS[slots],
        np.array(signs)[:, None, None] * _SLOT_WEIGHTS[slots],
        _SLOT_DRAWS[slots],
        _SLOT_EFFECT[slots],
    )
    for array in table:
        array.setflags(write=False)
    return _Terms(*table)


@dataclass(frozen=True, eq=False)
class _Cut:
    """One cut gate: its qubits, its angle's sampling table and the uncut segment after it.

    Cuts with the same angle share one ``terms``. ``after`` holds the uncut
    gates up to the next cut, or to the end of the circuit, that lie in the
    cut's forward light cone (``_light_cone``), fused by ``_fuse`` into
    2-qubit products and lone-qubit gates; the others run before the cut.
    """

    qubits: tuple[int, int]
    terms: _Terms
    after: tuple[Raw2QGate | Gate, ...]


@dataclass(frozen=True, eq=False)
class _ShotPlan:
    """What every shot of (circuit, observable, mode) shares, compiled once.

    ``root`` is the root of every walk's branch tree: the state after the
    uncut gates before the first cut, as a stack padded by ``_pad``. Every
    array is read-only, so one plan serves any number of walks; what they
    build is kept apart, in the plan's ``_Tree``. Exact mode reads
    ``observable`` per Pauli string on a stack of leaf states at once.
    Sample mode reads each of its live terms, with Pauli strings
    ``paulis``, on a stack of leaf states, and draws one per shot with cut
    points ``term_cums``; a shot's o' is its eigenvalue times the term's
    ``readout``, the sign of its coefficient times o_max.
    """

    num_qubits: int
    mode: MeasureMode
    root: np.ndarray
    cuts: tuple[_Cut, ...]
    w_total: float
    observable: Observable
    readout: np.ndarray
    paulis: tuple[str, ...]
    term_cums: tuple[float, ...]


def _compile(circuit: Circuit, observable: Observable, mode: MeasureMode) -> _ShotPlan:
    """Build each cut angle's table once, split at ``cut_indices()``, fuse the later segments.

    From the last cut to the first, each cut keeps as its ``after`` only
    the gates of its light cone (``_light_cone``), among its segment's and
    those carried up from the cut after it, and carries the rest to the
    segment before it, or to the prefix.
    """
    _check_mode(mode)
    if observable.num_qubits != circuit.num_qubits:
        raise ValueError("observable width does not match circuit")
    n, gates = circuit.num_qubits, circuit.gates
    at = circuit.cut_indices()
    ends = at + (len(gates),)

    afters, carried = [], []
    for i, end in reversed(tuple(zip(at, ends[1:]))):
        after, carried = _light_cone(gates[i].qubits, [*gates[i + 1 : end], *carried])
        afters.insert(0, after)

    # the prefix runs once, on one state: fusing it would cost more than it saves
    root = _apply_steps(initial_state(n), [*gates[: ends[0]], *carried], n)[None][_pad(1, n)]
    root.setflags(write=False)

    # cuts that share an angle share its sampling table
    tables: dict[ThetaVector, _Terms] = {}
    cuts = []
    w_total = 1.0
    for i, after in zip(at, afters):
        gate = gates[i]
        if gate.theta not in tables:
            tables[gate.theta] = _cut_terms(gate.matrix)
        terms = tables[gate.theta]
        w_total *= float(terms.cums[-1])
        cuts.append(_Cut(qubits=gate.qubits, terms=terms, after=_fuse(after)))

    live = () if mode is MeasureMode.EXACT_TRACE else [t for t in observable.terms if t[0] != 0.0]
    term_cums, signs = _table([c for c, _ in live])
    readout = np.array(signs, dtype=float) * observable.o_max
    readout.setflags(write=False)
    return _ShotPlan(
        num_qubits=n,
        mode=mode,
        root=root,
        cuts=tuple(cuts),
        w_total=w_total,
        observable=observable,
        readout=readout,
        paulis=tuple(p for _, p in live),
        term_cums=term_cums,
    )


# the objects of the last _plan call that compiled, their plan and {"tree": its _Tree}
_last: tuple = (None, None, None, None, None)


def _plan(circuit: Circuit, observable: Observable, mode: MeasureMode) -> tuple[_ShotPlan, _Tree]:
    """The shot plan of (circuit, observable, mode) and its ``_Tree``, kept while they come back.

    One slot holds the last compiled plan and its tree. A call with the
    same three objects, by identity, returns them; any other call compiles
    and replaces them, with an empty tree (a compile that raises leaves the
    slot as it was). Circuits and observables are frozen and every gate
    matrix is a read-only copy, so a plan stays valid while its objects
    live; equal but distinct objects compile again. The tree stays out of
    the slot until ``_keep`` puts it back after the walks, so a walk that
    raises leaves no half-grown tree and two estimates never share one.
    """
    global _last
    held_circuit, held_observable, held_mode, plan, kept = _last
    if not (held_circuit is circuit and held_observable is observable and held_mode is mode):
        plan, kept = _compile(circuit, observable, mode), {}
        _last = (circuit, observable, mode, plan, kept)
    tree = kept.pop("tree", None)  # one atomic step: two walks never take one tree
    return plan, _Tree(plan) if tree is None else tree


def _keep(plan: _ShotPlan, tree: _Tree) -> None:
    """Put ``tree`` back in the slot beside ``plan``, if the slot still holds ``plan``."""
    *_, held, kept = _last
    if held is plan:
        kept["tree"] = tree


def _table(coefficients: list[float]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The sampling table of nonzero ``coefficients``: cumulative |c| and signs c/|c|."""
    return running_norm(coefficients), tuple(1.0 if c > 0 else -1.0 for c in coefficients)


def _light_cone(qubits: tuple[int, int], segment: list[Gate]) -> tuple[list[Gate], list[Gate]]:
    """``segment``, the uncut gates after a cut on ``qubits``, split into (kept, carried).

    A gate is kept if it touches the cone, which starts as the cut's two
    qubits and takes in the qubits of every kept gate; the others are
    carried. A carried gate acts outside the cone, where every kept gate
    before it, the cut's Kraus operators, the renormalization and the
    chances Tr((E (x) E) rho_pair) do not, so it commutes with all of them
    and may run before the cut: each keeps its order.
    """
    cone, kept, carried = set(qubits), [], []
    for gate in segment:
        touched = gate.qubits if isinstance(gate, CanonicalGate) else (gate.qubit,)
        if cone.isdisjoint(touched):
            carried.append(gate)
        else:
            kept.append(gate)
            cone.update(touched)
    return kept, carried


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
    """a (x) b for 2x2 a and b, or broadcast stacks of them: a fraction of np.kron's cost."""
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (4, 4))


def _slot_rows() -> tuple[np.ndarray, ...]:
    """Per slot of ``_SLOTS``, read-only: (kraus, weights, draws, effect), weights unsigned."""
    rows = np.array([(left.value, right.value) for left, right in _SLOTS])
    left, right = rows[:, 0], rows[:, 1]
    slot_rows = (
        _kron(KRAUS[left][:, :, None], KRAUS[right][:, None, :]),
        WEIGHTS[left][:, :, None] * WEIGHTS[right][:, None, :],
        OUTCOMES[rows] - 1,
        EFFECT[rows],
    )
    for array in slot_rows:
        array.setflags(write=False)
    return slot_rows


_SLOT_KRAUS, _SLOT_WEIGHTS, _SLOT_DRAWS, _SLOT_EFFECT = _slot_rows()


def _apply_steps(stack: np.ndarray, steps, n: int) -> np.ndarray:
    """Gates or fused steps, applied in order to a state or a stack of states."""
    for step in steps:
        stack = apply_gate(stack, step, n)
    return stack


class _Tree:
    """A plan's node table: the branch-tree nodes its walks built, kept for its later walks.

    ``levels[k]`` holds the kept nodes before cut k (level 0 is the root,
    kept when the plan has a cut and it fits; the last level the leaves),
    one row per node in each array: ``sign`` and ``col`` (the draws its
    shots have taken). A node before a cut also has ``phi`` (its
    ``_pair_front`` state), ``chance`` (its ``_chances`` table) and
    ``children``, per ``_route`` key the id of its kept child or -1. A
    leaf has ``value``, its o', or in sample mode ``chance``: per live
    observable term P, the chance clip((1 + <P>) / 2, 0, 1) of eigenvalue
    +1, read when the leaf is built. Only a kept node's children are kept.

    Each array of a level is a view of the first rows of a block that
    holds room for more, so keeping a node copies it once, and the level's
    held rows again only when its blocks fill. A full level's blocks grow
    to twice their rows, or to the rows needed if that is more, but never
    past what ``_TREE_BYTES`` leaves: ``allocated``, the bytes of all
    blocks, stays within it.
    """

    def __init__(self, plan: _ShotPlan) -> None:
        self.levels: list[dict[str, np.ndarray]] = [{} for _ in range(len(plan.cuts) + 1)]
        self.blocks: list[dict[str, np.ndarray]] = [{} for _ in self.levels]
        self.width = [4 * len(cut.terms.cums) for cut in plan.cuts]
        self.allocated = 0
        if plan.cuts:
            self.add(0, _root(plan), 1)

    def add(self, k: int, rows: dict, count: int) -> np.ndarray:
        """Keep what fits of the first ``count`` nodes of ``rows`` at level k, with no children.

        Returns the kept nodes' ids: all ``count``, fewer once the level's
        blocks are full and ``_TREE_BYTES`` leaves no room for more, or none.
        """
        level, blocks = self.levels[k], self.blocks[k]
        per = sum(array[:1].nbytes for array in rows.values()) + 8 * (self.width + [0])[k]
        used, held = len(level.get("sign", ())), len(blocks.get("sign", ()))
        count = min(count, held - used + (_TREE_BYTES - self.allocated) // per)
        if count <= 0:
            return np.arange(0)
        if k < len(self.width):
            rows = {**rows, "children": np.full((count, self.width[k]), -1)}
        if used + count > held:
            grown = min(max(2 * held, used + count), held + (_TREE_BYTES - self.allocated) // per)
            for name, array in rows.items():
                blocks[name] = np.empty((grown,) + array.shape[1:], dtype=array.dtype)
                if used:
                    blocks[name][:used] = level[name]
            self.allocated += (grown - held) * per
        for name, array in rows.items():
            blocks[name][used : used + count] = array[:count]
            level[name] = blocks[name][: used + count]
        return np.arange(used, used + count)


def _root(plan: _ShotPlan) -> dict:
    """The root's node data (``_rows`` of level 0): the state before the first cut."""
    origin = np.zeros(1, dtype=np.intp)
    return _rows(plan, 0, plan.root, np.ones(1), origin)


def _rows(plan: _ShotPlan, k: int, stack: np.ndarray, sign, col) -> dict:
    """Level k's data of the nodes whose states are the rows of ``stack``: see ``_Tree``.

    Everything a shot compares against is computed here, once per node:
    an inner node's outcome chances, a leaf's o' or its eigenvalue chances.
    """
    n = plan.num_qubits
    rows = {"sign": sign, "col": col}
    if k < len(plan.cuts):
        rows["phi"] = _pair_front(stack, plan.cuts[k].qubits, n)
        rows["chance"] = _chances(plan.cuts[k].terms, _traces(rows["phi"]))
    elif plan.mode is MeasureMode.EXACT_TRACE:
        rows["value"] = observable_expectation(stack, plan.observable, n)
    else:
        means = np.stack([pauli_string_expectation(stack, p, n) for p in plan.paulis], 1)
        rows["chance"] = np.clip(0.5 * (1.0 + means), 0.0, 1.0)
    return rows


def _children(cut: _Cut, rows: dict, key: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """The children ``key`` (``_route`` keys) of ``rows``: states after the cut, signs, draws."""
    terms = cut.terms
    parent, term = np.divmod(key >> 2, len(terms.cums))
    a, b = (key >> 1) & 1, key & 1
    states = terms.kraus[term, a, b] @ rows["phi"][parent]
    # renormalizes a measured child; a unitary one keeps its norm, up to rounding
    states /= np.linalg.norm(states.reshape(len(key), -1), axis=1)[:, None, None]
    sign = rows["sign"][parent] * terms.weights[term, a, b]
    col = rows["col"][parent] + 1 + terms.draws[term].sum(axis=1)
    return _apply_steps(_pair_back(states, cut.qubits, n), cut.after, n), sign, col


def _walk(plan: _ShotPlan, tree: _Tree, start: np.ndarray) -> tuple[np.ndarray, ...]:
    """Run the shot of each stream start state in ``start`` down the plan's branch tree.

    Returns (sign, o', x) arrays. ``descend`` is the one traversal: it
    takes one tree level's nodes (``_rows``), kept in ``tree`` or just
    built, and the shots (indices into ``start``) at them with the node of
    each. A node's shots have taken the same draws, so it reads the same
    columns of all their streams (``_draw``). Before cut k, ``_route``
    sends each shot to a child: a term and the outcomes of its two
    channels, drawn from the node's next columns with the chances its
    ``chance`` table holds. The children ``tree`` lacks, one per (node,
    term, outcomes) reached, are built as ``_BATCH_AMPS``-amplitude slices
    of one batched product each; below a kept node ``tree`` keeps what
    fits of them, and the shots at a slice's other children descend from
    it before the next slice is built, so besides the tree only the open
    frontier holds states. Then the shots at kept children descend from
    ``tree``'s next level together. A leaf reads the observable when it
    is built, so a leaf's shots need only its row: in sample mode they
    draw their observable term and eigenvalue from its column and the
    next, in one stream call, against the leaf's ``chance`` row, and o'
    is the eigenvalue times the term's ``readout``. |x| may exceed
    W_total * o_max only by the relative ``_BOUND_SLACK``, the rounding of
    a renormalized state; more raises AssertionError.
    """
    n, depth = plan.num_qubits, len(plan.cuts)
    shots = len(start)
    sign, o_value = np.empty(shots), np.empty(shots)
    per = max(1, _BATCH_AMPS >> n)

    def descend(k: int, rows: dict, idx, node) -> None:
        # row r of rows is the node of shots idx[node == r]
        if k == depth:
            leaves(rows, idx, node)
            return
        cut, kept = plan.cuts[k], rows is tree.levels[k]
        key = _route(cut.terms, rows["chance"], start[idx], node, rows["col"][node])
        child_id = rows["children"].reshape(-1)[key] if kept else np.full(len(key), -1)
        new = np.flatnonzero(child_id < 0)
        if len(new):
            new = new[np.argsort(key[new])]
            starts = np.flatnonzero(np.diff(key[new], prepend=-1))
            child = key[new[starts]]
            bounds = np.append(starts, len(new))
            for first in range(0, len(child), per):
                last = min(first + per, len(child))
                keys = child[first + _pad(last - first, n)]
                level = _rows(plan, k + 1, *_children(cut, rows, keys, n))
                ids = tree.add(k + 1, level, last - first) if kept else ()
                if len(ids):
                    rows["children"].reshape(-1)[keys[: len(ids)]] = ids
                at = np.repeat(np.arange(last - first), np.diff(bounds[first : last + 1]))
                stay = at >= len(ids)
                if stay.any():
                    descend(k + 1, level, idx[new[bounds[first] : bounds[last]]][stay], at[stay])
            if not kept:
                return
            child_id = rows["children"].reshape(-1)[key]
            went = child_id >= 0
            idx, child_id = idx[went], child_id[went]
        if len(idx):
            descend(k + 1, tree.levels[k + 1], idx, child_id)

    def leaves(rows, idx, node) -> None:
        sign[idx] = rows["sign"][node]
        if plan.mode is MeasureMode.EXACT_TRACE:
            o_value[idx] = rows["value"][node]
            return
        z, col = start[idx], rows["col"][node]
        u = _draw(np.concatenate((z, z)), np.concatenate((col, col + 1)))
        picks = _draw_terms(u[: len(idx)], plan.term_cums)
        eig = np.where(u[len(idx) :] < rows["chance"][node, picks], 1.0, -1.0)
        o_value[idx] = eig * plan.readout[picks]

    descend(0, tree.levels[0] or _root(plan), np.arange(shots), np.zeros(shots, dtype=np.intp))
    x = plan.w_total * (sign * o_value)
    bound = plan.w_total * plan.observable.o_max
    over = np.abs(x) > bound * (1.0 + _BOUND_SLACK)
    if over.any():
        raise AssertionError(f"shot value {x[over][0]} exceeds bound {bound}")
    return sign, o_value, x


def _route(terms: _Terms, chance: np.ndarray, z, node, col) -> np.ndarray:
    """Each shot's child of its node, as the key ((node * T + term) * 2 + a) * 2 + b.

    Shot i is at ``node[i]`` and reads its term from column ``col[i]`` of
    the stream that starts at ``z[i]``, then its left channel's outcome a,
    if that draws, from the next column, and its right one's b, if that
    draws, from the one after; a side that draws nothing reads no column,
    and both sides' columns are read in one ``_draw`` call. A side's
    outcome is 1 iff its draw is >= its chance of outcome 0, read from the
    node's row of ``chance`` (``_chances``): column 0 on the left, and
    column 1 + a on the right.
    """
    term = _draw_terms(_draw(z, col), terms.cums)
    at = node * len(terms.cums) + term  # the shot's row of chance.reshape(-1, 3)
    draws_left, draws_right = terms.draws[:, 0][term], terms.draws[:, 1][term]
    left, right = np.flatnonzero(draws_left), np.flatnonzero(draws_right)
    columns = np.concatenate((col[left], col[right] + draws_left[right])) + 1
    u = _draw(np.concatenate((z[left], z[right])), columns)
    chance = chance.reshape(-1)
    a, b = np.zeros((2, len(z)), dtype=np.intp)
    a[left] = u[: len(left)] >= chance[3 * at[left]]
    b[right] = u[len(left) :] >= chance[3 * at[right] + 1 + a[right]]
    return (at * 2 + a) * 2 + b


def _pair_front(stack: np.ndarray, qubits: tuple[int, int], n: int) -> np.ndarray:
    """The stack's states as (rows, 4, 2^(n-2)) arrays, the cut pair first, in gate order."""
    a, b = qubits
    psi = stack.reshape((len(stack),) + (2,) * n)
    return np.moveaxis(psi, (a + 1, b + 1), (1, 2)).reshape(len(stack), 4, 1 << (n - 2))


def _pair_back(states: np.ndarray, qubits: tuple[int, int], n: int) -> np.ndarray:
    """The inverse of ``_pair_front``: a stack of statevectors."""
    a, b = qubits
    psi = states.reshape((len(states), 2, 2) + (2,) * (n - 2))
    return np.moveaxis(psi, (1, 2), (a + 1, b + 1)).reshape(len(states), 1 << n)


def _traces(phi: np.ndarray) -> np.ndarray:
    """Tr((E_x (x) E_y) rho), real, for every two ``EFFECTS`` E_x and E_y, per row of ``phi``.

    A row of ``phi`` is a state with the cut pair first (``_pair_front``),
    and rho = phi phi^+ is the pair's 4x4 reduced density matrix.
    """
    rho = (phi @ phi.conj().transpose(0, 2, 1)).reshape(-1, 2, 2, 2, 2)
    left = np.einsum("xji,pikjl->pxkl", EFFECTS, rho)
    return np.einsum("ylk,pxkl->pxy", EFFECTS, left).real


def _chances(terms: _Terms, traces: np.ndarray) -> np.ndarray:
    """Per row of ``traces`` (``_traces``) and term, each side's chance of outcome 0.

    Column 0 is the left side's t_0 / (t_0 + t_1), with t_o =
    Tr((E_o (x) I) rho); columns 1 and 2 are the right side's, with t_o =
    Tr((E_a (x) E_o) rho) given the left outcome a = 0 and a = 1, E_o the
    effect of the side's outcome o and E_a that of the left outcome. That
    is exactly 1/2 for a coin. For a measurement of the projector Pi it is
    Tr((Pi (x) I) rho), or Tr((E_a (x) Pi) rho) / Tr((E_a (x) I) rho), up
    to rounding, and exactly 1 on an eigenstate of Pi, whose other outcome
    has trace 0 and is never drawn. An entry of a side that draws nothing,
    or that cannot be reached (0 / 0), is never read.
    """
    (x0, x1), (y0, y1) = terms.effect[:, 0].T, terms.effect[:, 1].T
    origin = np.zeros_like(x0)
    zero = traces[:, np.stack((x0, x0, x1), 1), np.stack((origin, y0, y0), 1)]
    one = traces[:, np.stack((x1, x0, x1), 1), np.stack((origin, y1, y1), 1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        return zero / (zero + one)


def _draw_terms(u: np.ndarray, cums) -> np.ndarray:
    """The term each uniform in ``u`` draws by the cumulative weights ``cums``.

    Picks what ``bisect_right(cums, u * cums[-1])`` per uniform would.
    """
    return np.minimum(np.searchsorted(cums, u * cums[-1], side="right"), len(cums) - 1)


def _pad(count: int, n: int) -> np.ndarray:
    """Row indices 0..count-1, then 0s up to a multiple of max(16 >> n, 1) rows.

    A row of a stacked product rounds alike wherever it sits in the stack,
    except that OpenBLAS's zgemm rounds the columns of a trailing partial
    group of four differently. A gate or fused step, on one qubit or two,
    has 2^(n-2) or more columns per row of a stack of n-qubit states, so
    stacks of a multiple of max(16 >> n, 1) rows, padded with copies of
    their first row, avoid it, and a shot's value depends on its path
    alone, not on the other shots of its chunk.
    """
    return np.concatenate([np.arange(count), np.zeros(-count % max(16 >> n, 1), dtype=int)])


def run_shot(
    circuit: Circuit,
    observable: Observable,
    seed: int,
    shot_index: int,
    mode: MeasureMode = MeasureMode.EXACT_TRACE,
) -> ShotRecord:
    """Shot ``shot_index`` of ``estimate`` with ``seed``, alone.

    ``shot_index`` lies in ``range(MAX_SHOTS)``, the shots an estimate can
    run. It walks one path of the shot plan's branch tree from the shot's
    stream start state. The plan and its node table are kept while the
    same circuit, observable and mode objects come back (``_plan``), so a
    loop of shots compiles once and builds each kept node once; one
    ``estimate`` is still faster, as it walks all its shots together.
    """
    seed = integer(seed, "seed")
    shot_index = integer(shot_index, "shot_index")
    if not 0 <= shot_index < MAX_SHOTS:
        raise ValueError(f"shot_index must lie in 0..{MAX_SHOTS - 1}, got {shot_index}")
    plan, tree = _plan(circuit, observable, mode)
    start = _stream_start(seed, np.array([shot_index], dtype=np.uint64))
    record = ShotRecord(*(values[0].item() for values in _walk(plan, tree, start)))
    _keep(plan, tree)
    return record


def estimate(
    circuit: Circuit,
    observable: Observable,
    config: EstimatorConfig,
) -> EstimatorResult:
    """Run the full estimator: compile the shot plan (or reuse it and its tree), sample, reduce.

    The per-shot streams make the result a pure function of (circuit,
    observable, config). More than ``MAX_SHOTS`` shots, requested or
    planned, raise ValueError before anything is sampled.
    """
    plan, tree = _plan(circuit, observable, config.mode)
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
    for first in range(0, shots, _CHUNK_SHOTS):
        last = min(first + _CHUNK_SHOTS, shots)
        start = _stream_start(config.seed, np.arange(first, last, dtype=np.uint64))
        values[first:last] = _walk(plan, tree, start)[2]
    _keep(plan, tree)

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
