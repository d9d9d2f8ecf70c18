"""The 16 local channels: definitions, PTMs, and outcome tables.

Two independent oracles run here. The first recomputes every channel PTM
from the defining conjugation formulas with explicit trace loops. The second
is the realization programs of ``programs``: each is averaged analytically
over all coin and measurement branches and checked against the channel, and
the package's outcome tables and ``realize`` are checked against them.
"""

import numpy as np
import pytest

from quasicut.algebra import PAULIS, SIGMA_0, QuantumState
from quasicut.circuit import apply_1q
from quasicut.local_basis import (
    ALL_CHANNELS,
    EFFECT,
    EFFECTS,
    KRAUS,
    OUTCOMES,
    WEIGHTS,
    BasisChannelId,
    ChannelKind,
    a_channel,
    b_channel,
    basis_ptm,
    channel_action,
    pauli_channel,
    projector,
    realize,
)

from programs import (
    Coin,
    SignedMeasurement,
    Unitary,
    build_table,
    realization_program,
    run_program,
)


def outcomes(channel):
    """The channel's row of the package's outcome tables, cut to its outcomes.

    Returns (Kraus operators, weights, effects), one entry per outcome.
    """
    c = channel.value
    count = OUTCOMES[c]
    return KRAUS[c, :count], WEIGHTS[c, :count].tolist(), EFFECTS[EFFECT[c, :count]]


class FixedDraws:
    """rng stub feeding a fixed uniform sequence."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self):
        return self._draws.pop(0)


def defining_action(channel, m):
    """The channel formulas written out directly."""
    if channel.kind is ChannelKind.PAULI:
        p = PAULIS[channel.alpha]
        return p @ m @ p
    a, b = PAULIS[channel.alpha], PAULIS[channel.alpha_prime]
    if channel.kind is ChannelKind.A:
        return 0.5 * (a @ m @ b + b @ m @ a)
    return (a @ m @ b - b @ m @ a) / 2j


def ptm_by_traces(apply):
    out = np.zeros((4, 4))
    for j in range(4):
        for k in range(4):
            val = np.trace(PAULIS[j] @ apply(PAULIS[k])) / 2.0
            assert abs(val.imag) < 1e-12
            out[j, k] = val.real
    return out


def expected_program_map(program):
    """Average a program over all its branches, as a map on 2x2 matrices.

    A signed measurement contributes P m P - P' m P' in expectation (the
    branch probability cancels against the renormalization), a fair coin
    half the difference of its two unitaries' conjugations.
    """

    def run(m):
        out = m.astype(complex)
        for step in program:
            if isinstance(step, Unitary):
                out = step.matrix @ out @ step.matrix.conj().T
            elif isinstance(step, Coin):
                u, v = step.plus.matrix, step.minus.matrix
                out = 0.5 * (u @ out @ u.conj().T) - 0.5 * (v @ out @ v.conj().T)
            else:
                p_plus = projector(step.axis)
                p_minus = np.eye(2, dtype=complex) - p_plus
                out = p_plus @ out @ p_plus - p_minus @ out @ p_minus
        return out

    return run


# --- identifiers ----------------------------------------------------------


def test_channel_count_and_order():
    assert len(ALL_CHANNELS) == 16
    labels = [c.name for c in ALL_CHANNELS]
    assert labels[:4] == ["s0", "s1", "s2", "s3"]
    assert len(set(labels)) == 16


def test_label_roundtrip():
    for channel in ALL_CHANNELS:
        assert BasisChannelId.from_label(channel.name) == channel


def test_from_label_rejects_garbage():
    for bad in ["", "s4", "A00", "A10", "B33", "C01", "A0", "s01"]:
        with pytest.raises(ValueError):
            BasisChannelId.from_label(bad)


def test_id_validation():
    with pytest.raises(ValueError):
        pauli_channel(5)
    with pytest.raises(ValueError):
        a_channel(2, 2)  # indices must differ
    with pytest.raises(ValueError):
        b_channel(3, 1)  # stored with alpha < alpha_prime
    # indices are integers, never a bool or a float that would label "sTrue" or "A01.0"
    for build in (
        lambda: pauli_channel(True),
        lambda: pauli_channel(1.0),
        lambda: pauli_channel("1"),
        lambda: a_channel(0, 1.0),
        lambda: b_channel(False, 1),
    ):
        with pytest.raises(ValueError, match="integer"):
            build()
    assert type(pauli_channel(np.int64(2)).alpha) is int
    assert a_channel(np.int64(0), np.int64(1)).name == "A01"
    # the helpers return the members themselves, and a member's value is its row
    assert a_channel(0, 1) is BasisChannelId.A01
    assert b_channel(2, 3) is BasisChannelId.B23
    assert pauli_channel(np.int64(3)) is BasisChannelId.s3
    assert ALL_CHANNELS == tuple(BasisChannelId)
    assert all(channel.value == row for row, channel in enumerate(ALL_CHANNELS))
    assert not isinstance(BasisChannelId.s1, int) and BasisChannelId.s1 != 1
    for bad in (5, None, b"s0", ["s0"]):
        with pytest.raises(ValueError, match="unrecognized"):
            BasisChannelId.from_label(bad)


# --- exact channel maps ---------------------------------------------------


def test_channel_action_matches_definitions():
    rng = np.random.default_rng(21)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for channel in ALL_CHANNELS:
        np.testing.assert_allclose(
            channel_action(channel, m), defining_action(channel, m), atol=1e-13
        )


def test_basis_ptm_against_trace_oracle():
    for channel in ALL_CHANNELS:
        oracle = ptm_by_traces(lambda m, c=channel: defining_action(c, m))
        np.testing.assert_allclose(basis_ptm(channel), oracle, atol=1e-13)


def test_frozen_ptms():
    np.testing.assert_allclose(basis_ptm(pauli_channel(0)), np.eye(4), atol=1e-15)
    np.testing.assert_allclose(
        basis_ptm(pauli_channel(3)), np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-15
    )
    # A(0,3) exchanges the identity and Z components and kills X, Y
    expected = np.zeros((4, 4))
    expected[0, 3] = expected[3, 0] = 1.0
    np.testing.assert_allclose(basis_ptm(a_channel(0, 3)), expected, atol=1e-15)


def test_b_channel_trace_rows():
    # Tr B_ab(rho) = Tr([s_b, s_a] rho)/2i: zero when a = 0, else -eps <s_c>
    levi = {(1, 2): (1, 3), (1, 3): (-1, 2), (2, 3): (1, 1)}
    for channel in ALL_CHANNELS:
        if channel.kind is not ChannelKind.B:
            continue
        row = basis_ptm(channel)[0]
        expected = np.zeros(4)
        if channel.alpha > 0:
            eps, c = levi[(channel.alpha, channel.alpha_prime)]
            expected[c] = -eps
        np.testing.assert_allclose(row, expected, atol=1e-14, err_msg=channel.name)


def test_completeness_rank():
    stack = np.stack([basis_ptm(c).ravel() for c in ALL_CHANNELS])
    assert np.linalg.matrix_rank(stack) == 16
    assert np.linalg.matrix_rank(stack, tol=1e-10) == 16
    # dropping any one channel loses a dimension: no redundancy
    for skip in range(16):
        sub = np.delete(stack, skip, axis=0)
        assert np.linalg.matrix_rank(sub, tol=1e-10) == 15


# --- realization programs -------------------------------------------------


def test_every_program_reproduces_its_channel_in_expectation():
    for channel in ALL_CHANNELS:
        run = expected_program_map(realization_program(channel))
        oracle = ptm_by_traces(run)
        np.testing.assert_allclose(
            oracle, basis_ptm(channel), atol=1e-12, err_msg=channel.name
        )


def test_program_shapes():
    # Paulis are a single unitary; A(0,b) one signed measurement;
    # A(a,b) one coin; B(0,b) one coin; B(a,b) measurement then unitary
    assert [type(s) for s in realization_program(pauli_channel(2))] == [Unitary]
    assert [type(s) for s in realization_program(a_channel(0, 2))] == [SignedMeasurement]
    assert [type(s) for s in realization_program(a_channel(1, 3))] == [Coin]
    assert [type(s) for s in realization_program(b_channel(0, 1))] == [Coin]
    assert [type(s) for s in realization_program(b_channel(2, 3))] == [
        SignedMeasurement,
        Unitary,
    ]


# --- single-sample realization --------------------------------------------


def ket(*amps):
    return QuantumState.pure(np.array(amps, dtype=complex))


def test_channel_functions_reject_non_members():
    """A label, an int or None is no channel: ValueError, never a lookup by value."""
    for bad in ("s0", 0, None):
        with pytest.raises(ValueError, match="BasisChannelId"):
            realize(bad, ket(1.0, 0.0), FixedDraws([]))
        with pytest.raises(ValueError, match="BasisChannelId"):
            basis_ptm(bad)
        with pytest.raises(ValueError, match="BasisChannelId"):
            channel_action(bad, np.eye(2))


def test_realize_pauli_flip():
    out = realize(pauli_channel(1), ket(1.0, 0.0), FixedDraws([]))
    assert out.weight == 1.0
    np.testing.assert_allclose(out.state.vector, [0.0, 1.0], atol=0)


def test_realize_pauli_z_on_plus():
    r = np.sqrt(0.5)
    out = realize(pauli_channel(3), ket(r, r), FixedDraws([]))
    np.testing.assert_allclose(out.state.vector, [r, -r], atol=1e-15)


def test_realize_measurement_branches():
    r = np.sqrt(0.5)
    # A(0,3) on |+>: draw below 1/2 projects onto |0> with weight +1,
    # a high draw projects onto |1> with weight -1
    plus_branch = realize(a_channel(0, 3), ket(r, r), FixedDraws([0.2]))
    assert plus_branch.weight == 1.0
    np.testing.assert_allclose(plus_branch.state.vector, [1.0, 0.0], atol=1e-12)
    minus_branch = realize(a_channel(0, 3), ket(r, r), FixedDraws([0.9]))
    assert minus_branch.weight == -1.0
    np.testing.assert_allclose(minus_branch.state.vector, [0.0, 1.0], atol=1e-12)


def test_realize_measurement_on_eigenstates_is_deterministic():
    up = realize(a_channel(0, 3), ket(1.0, 0.0), FixedDraws([0.999999]))
    assert up.weight == 1.0
    np.testing.assert_allclose(up.state.vector, [1.0, 0.0], atol=1e-12)
    down = realize(a_channel(0, 3), ket(0.0, 1.0), FixedDraws([0.0]))
    assert down.weight == -1.0
    np.testing.assert_allclose(down.state.vector, [0.0, 1.0], atol=1e-12)


def test_realize_coin_branches():
    # A(1,2) tosses a fair coin between (X+Y)/sqrt(2) and (X-Y)/sqrt(2)
    u_plus = (PAULIS[1] + PAULIS[2]) / np.sqrt(2.0)
    u_minus = (PAULIS[1] - PAULIS[2]) / np.sqrt(2.0)
    np.testing.assert_allclose(KRAUS[a_channel(1, 2).value], [u_plus, u_minus], atol=1e-15)
    state = ket(1.0, 0.0)
    # the coin is fair: heads below 1/2, tails from 1/2 on
    heads = realize(a_channel(1, 2), state, FixedDraws([0.1]))
    edge = realize(a_channel(1, 2), state, FixedDraws([0.5]))
    tails = realize(a_channel(1, 2), state, FixedDraws([0.9]))
    assert heads.weight == 1.0
    assert edge.weight == tails.weight == -1.0
    np.testing.assert_allclose(heads.state.vector, u_plus @ [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(tails.state.vector, u_minus @ [1.0, 0.0], atol=1e-12)


def test_realize_b_mixed_channel():
    # B(1,2): measure along -z (signs +1/-1), then apply X
    out = realize(b_channel(1, 2), ket(1.0, 0.0), FixedDraws([0.5]))
    # |0> has zero overlap with the -z projector, so the minus branch fires
    assert out.weight == -1.0
    np.testing.assert_allclose(out.state.vector, [0.0, 1.0], atol=1e-12)


def test_realize_rejects_multi_qubit_states():
    with pytest.raises(ValueError):
        realize(pauli_channel(0), QuantumState.pure(np.eye(4)[0]), FixedDraws([]))


def test_realize_monte_carlo_means_match_channels():
    """Empirical weight x density averages converge to the exact action."""
    rng = np.random.default_rng(33)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    state = QuantumState.pure(v / np.linalg.norm(v))
    target_of = lambda c: channel_action(c, state.density_matrix())
    shots = 20000
    for channel in (a_channel(1, 2), b_channel(0, 2), b_channel(1, 3)):
        acc = np.zeros((2, 2), dtype=complex)
        for _ in range(shots):
            out = realize(channel, state, rng)
            acc += out.weight * out.state.density_matrix()
        np.testing.assert_allclose(
            acc / shots, target_of(channel), atol=0.05, err_msg=channel.name
        )


def test_signed_measurement_validation():
    with pytest.raises(ValueError):
        SignedMeasurement((0.0, 0.0, 2.0))  # axis not unit
    with pytest.raises(ValueError, match="finite"):
        SignedMeasurement((float("nan"), 0.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        Unitary(np.array([[float("nan"), 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="2x2"):
        Unitary(np.eye(4))
    m = SignedMeasurement((0.0, 0.0, 1.0))
    np.testing.assert_allclose(m.projector_matrix, np.diag([1.0, 0.0]), atol=1e-15)


def test_coin_sides_must_be_unitary_steps():
    with pytest.raises(TypeError):
        Coin(np.eye(2), np.eye(2))
    with pytest.raises(TypeError):
        Coin(Unitary(np.eye(2)), SignedMeasurement((0.0, 0.0, 1.0)))
    coin = Coin(Unitary(np.eye(2)), Unitary(PAULIS[1]))
    assert isinstance(coin.minus, Unitary)


def test_interpreters_reject_unknown_steps():
    """The oracle's interpreter and table reader refuse what no program holds."""
    psi = np.array([1.0, 0.0], dtype=complex)
    program = (Unitary(PAULIS[1]), np.eye(2))
    with pytest.raises(TypeError, match="unknown realization step"):
        run_program(psi, program, 0, 1, FixedDraws([]))
    with pytest.raises(TypeError, match="unknown realization step"):
        build_table(program)
    # a table holds at most two outcomes: one coin or measurement per program
    coin = realization_program(a_channel(1, 2))[0]
    with pytest.raises(ValueError, match="at most one"):
        build_table((coin, Unitary(PAULIS[1]), coin))


def run_tables(psi, sides, u, shot, num_qubits):
    """The outcome tables of the (qubit, channel) ``sides``, in order, on one shot.

    A table with two outcomes reads the shot's next uniform from row
    ``shot`` of ``u``: outcome 1 iff it is >= t_0 / (t_0 + t_1), where
    t_o = <psi|E_o|psi> for the effect E_o of outcome o. The post state is
    renormalized by sqrt(t_o). Returns (state, weight, uniforms read).
    """
    weight, taken = 1.0, 0
    for qubit, channel in sides:
        kraus, weights, effects = outcomes(channel)
        t = [np.vdot(psi, apply_1q(psi, e, qubit, num_qubits)).real for e in effects]
        outcome = 0
        if len(t) == 2:
            outcome = int(u[shot, taken] >= t[0] / (t[0] + t[1]))
            taken += 1
        psi = apply_1q(psi, kraus[outcome], qubit, num_qubits) / np.sqrt(t[outcome])
        weight *= weights[outcome]
    return psi, weight, taken


def tables_against_run_program(psi, sides, draws, read_marks):
    """The outcome tables of the (qubit, channel) ``sides`` next to ``run_program``.

    Each shot (a row of ``draws``) must get the weight that ``run_program``
    gives it, one side after the other, exactly, its state to 1e-15, and
    take the same draws. Returns the outcomes' weights per shot.
    """
    num_qubits = int(len(psi)).bit_length() - 1
    u = read_marks(draws)
    runs = [run_tables(psi, sides, u, shot, num_qubits) for shot in range(len(draws))]
    used = u.counts()
    for shot, (state, weight, taken) in enumerate(runs):
        ref_rng = FixedDraws(draws[shot])
        ref, ref_weight = psi, 1.0
        for qubit, channel in sides:
            ref, w = run_program(ref, realization_program(channel), qubit, num_qubits, ref_rng)
            ref_weight *= w
        assert weight == ref_weight
        assert np.abs(state - ref).max() < 1e-15
        # the same number of draws
        assert used[shot] == taken == len(draws[shot]) - len(ref_rng._draws)
    return [weight for _, weight, _ in runs]


def random_state(rng, num_qubits):
    psi = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("channel", ALL_CHANNELS, ids=str)
def test_branches_match_one_run_per_shot(channel, read_marks):
    """Each outcome of a channel's table is what ``run_program`` gives a shot that draws it.

    The first two shots force outcome 0 and outcome 1 (a draw of 0 and
    the largest draw below 1); the others draw at random. ``realize`` runs
    the same draws on random single-qubit states: its weight equals
    ``run_program``'s exactly, its state to 1e-15, and it takes as many draws.
    """
    rng = np.random.default_rng(17)
    psi = random_state(rng, 3)
    draws = np.vstack([[[0.0, 0.0], [1.0 - 2.0**-53, 0.0]], rng.random((12, 2))])
    weights = tables_against_run_program(psi, [(1, channel)], draws, read_marks)
    _, table_weights, _ = outcomes(channel)
    assert weights[: len(table_weights)] == table_weights
    for row in draws:
        vector = random_state(rng, 1)
        ours, theirs = FixedDraws(row), FixedDraws(row)
        out = realize(channel, QuantumState.pure(vector), ours)
        ref, ref_weight = run_program(vector, realization_program(channel), 0, 1, theirs)
        assert out.weight == ref_weight and type(out.weight) is float
        assert np.abs(out.state.vector - ref).max() < 1e-15
        assert len(ours._draws) == len(theirs._draws)


@pytest.mark.parametrize(
    "left, right",
    [("A12", "B13"), ("s2,B02", "A03,B12,s1"), ("B23,A01", "s0")],
)
def test_one_sequence_spans_two_qubits(left, right, read_marks):
    """A cut term's left channels' tables on qubit 0, then its right ones' on qubit 2."""
    rng = np.random.default_rng(23)
    psi = random_state(rng, 3)
    sides = [
        (qubit, BasisChannelId.from_label(label))
        for qubit, labels in ((0, left), (2, right))
        for label in labels.split(",")
    ]
    tables_against_run_program(psi, sides, rng.random((40, len(sides))), read_marks)


def random_density_matrix(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("channel", ALL_CHANNELS, ids=str)
def test_outcome_tables_reproduce_their_channels(channel):
    """sum over outcomes of p w K rho K^+ / Tr(K rho K^+) is the channel, to 1e-14.

    p = t_o / (t_0 + t_1), t_o = Tr(E_o rho) for the effect E_o of outcome o:
    1 for the one outcome of a unitary, 1/2 per side of a coin, and
    Tr(E rho) for a measurement outcome, E the projector or I minus it.
    """
    kraus, weights, effects = outcomes(channel)
    rng = np.random.default_rng([31, channel.value])
    for _ in range(5):
        rho = random_density_matrix(rng)
        t = [np.trace(e @ rho).real for e in effects]
        total = np.zeros((2, 2), dtype=complex)
        for k, w, t_o in zip(kraus, weights, t):
            post = k @ rho @ k.conj().T
            total += t_o / sum(t) * w * post / np.trace(post).real
        assert np.abs(total - channel_action(channel, rho)).max() < 1e-14, channel.name


@pytest.mark.parametrize("channel", ALL_CHANNELS, ids=str)
def test_outcome_table_invariants(channel):
    """One or two outcomes, weights exactly +-1, E_o = K_o^+ K_o to 1e-15, zero padding.

    E_o = K_o^+ K_o is what lets ``realize`` renormalize K_o psi by
    sqrt(<psi|E_o|psi>) without computing its norm. A missing second
    outcome is zero in every row: its Kraus operator, its weight and its
    effect index.
    """
    c = channel.value
    count = OUTCOMES[c]
    assert count in (1, 2)
    kraus, weights, effects = outcomes(channel)
    assert kraus.shape == effects.shape == (count, 2, 2)
    assert all(w in (1.0, -1.0) for w in weights)
    gram = kraus.conj().transpose(0, 2, 1) @ kraus
    assert np.abs(gram - effects).max() <= 1e-15
    assert not KRAUS[c, count:].any()
    assert not WEIGHTS[c, count:].any()
    assert not EFFECT[c, count:].any()


def test_outcome_tables_are_read_from_the_programs():
    """Each row is what ``build_table`` reads off the channel's program; rows are read-only.

    Kraus operators are value-equal, weights equal, and the effects are the
    program's projector and I minus it, or I for each outcome without one.
    ``EFFECTS`` holds I first and then each measurement's two effects, once,
    in row order.
    """
    rows = (KRAUS, WEIGHTS, OUTCOMES, EFFECTS, EFFECT)
    assert not any(array.flags.writeable for array in rows)
    assert KRAUS.shape == (len(ALL_CHANNELS), 2, 2, 2)
    assert WEIGHTS.shape == EFFECT.shape == (len(ALL_CHANNELS), 2)
    assert np.array_equal(EFFECTS[0], SIGMA_0)
    assert EFFECT[EFFECT != 0].tolist() == list(range(1, len(EFFECTS)))
    for channel in ALL_CHANNELS:
        kraus, weights, projector_matrix = build_table(realization_program(channel))
        table_kraus, table_weights, table_effects = outcomes(channel)
        assert np.array_equal(table_kraus, np.stack(kraus))
        assert table_weights == list(weights)
        if projector_matrix is None:
            expected = [SIGMA_0] * len(weights)
        else:
            expected = [projector_matrix, SIGMA_0 - projector_matrix]
        assert np.array_equal(table_effects, np.stack(expected)), channel.name


def test_projector_formula():
    np.testing.assert_allclose(projector((1.0, 0.0, 0.0)), 0.5 * (SIGMA_0 + PAULIS[1]), atol=0)
