"""The 16 local channels: definitions, PTMs, and sampling programs.

Two independent oracles run here. The first recomputes every channel PTM
from the defining conjugation formulas with explicit trace loops. The second
takes each realization program, averages it analytically over all coin and
measurement branches, and checks that the expected map equals the channel.
"""

import numpy as np
import pytest

from quasicut.algebra import PAULIS, SIGMA_0, QuantumState
from quasicut.local_basis import (
    ALL_CHANNELS,
    BasisChannelId,
    ChannelKind,
    Coin,
    SignedMeasurement,
    Unitary,
    a_channel,
    b_channel,
    basis_ptm,
    channel_action,
    check_basis_completeness,
    pauli_channel,
    projector,
    realization_program,
    realize,
    run_branches,
    run_program,
)


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
    labels = [c.label() for c in ALL_CHANNELS]
    assert labels[:4] == ["s0", "s1", "s2", "s3"]
    assert len(set(labels)) == 16


def test_label_roundtrip():
    for channel in ALL_CHANNELS:
        assert BasisChannelId.from_label(channel.label()) == channel


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
    with pytest.raises(ValueError):
        BasisChannelId(ChannelKind.PAULI, 1, 2)  # no second index on a Pauli


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
        np.testing.assert_allclose(row, expected, atol=1e-14, err_msg=channel.label())


def test_completeness_rank():
    assert check_basis_completeness()
    stack = np.stack([basis_ptm(c).ravel() for c in ALL_CHANNELS])
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
            oracle, basis_ptm(channel), atol=1e-12, err_msg=channel.label()
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


def test_programs_are_cached():
    c = a_channel(1, 2)
    assert realization_program(c) is realization_program(c)


# --- single-sample realization --------------------------------------------


def ket(*amps):
    return QuantumState.pure(np.array(amps, dtype=complex))


def test_realize_pauli_flip():
    out = realize(pauli_channel(1), ket(1.0, 0.0), FixedDraws([]))
    assert out.weight == 1.0 + 0.0j
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
    assert plus_branch.weight == 1.0 + 0.0j
    np.testing.assert_allclose(plus_branch.state.vector, [1.0, 0.0], atol=1e-12)
    minus_branch = realize(a_channel(0, 3), ket(r, r), FixedDraws([0.9]))
    assert minus_branch.weight == -1.0 + 0.0j
    np.testing.assert_allclose(minus_branch.state.vector, [0.0, 1.0], atol=1e-12)


def test_realize_measurement_on_eigenstates_is_deterministic():
    up = realize(a_channel(0, 3), ket(1.0, 0.0), FixedDraws([0.999999]))
    assert up.weight == 1.0 + 0.0j
    np.testing.assert_allclose(up.state.vector, [1.0, 0.0], atol=1e-12)
    down = realize(a_channel(0, 3), ket(0.0, 1.0), FixedDraws([0.0]))
    assert down.weight == -1.0 + 0.0j
    np.testing.assert_allclose(down.state.vector, [0.0, 1.0], atol=1e-12)


def test_realize_coin_branches():
    # A(1,2) tosses a fair coin between (X+Y)/sqrt(2) and (X-Y)/sqrt(2)
    (coin,) = realization_program(a_channel(1, 2))
    u_plus = (PAULIS[1] + PAULIS[2]) / np.sqrt(2.0)
    u_minus = (PAULIS[1] - PAULIS[2]) / np.sqrt(2.0)
    np.testing.assert_allclose(coin.plus.matrix, u_plus, atol=1e-15)
    np.testing.assert_allclose(coin.minus.matrix, u_minus, atol=1e-15)
    state = ket(1.0, 0.0)
    # the coin is fair: heads below 1/2, tails from 1/2 on
    heads = realize(a_channel(1, 2), state, FixedDraws([0.1]))
    edge = realize(a_channel(1, 2), state, FixedDraws([0.5]))
    tails = realize(a_channel(1, 2), state, FixedDraws([0.9]))
    assert heads.weight == 1.0 + 0.0j
    assert edge.weight == tails.weight == -1.0 + 0.0j
    np.testing.assert_allclose(heads.state.vector, u_plus @ [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(tails.state.vector, u_minus @ [1.0, 0.0], atol=1e-12)


def test_realize_b_mixed_channel():
    # B(1,2): measure along -z (signs +1/-1), then apply X
    out = realize(b_channel(1, 2), ket(1.0, 0.0), FixedDraws([0.5]))
    # |0> has zero overlap with the -z projector, so the minus branch fires
    assert out.weight == -1.0 + 0.0j
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
            acc / shots, target_of(channel), atol=0.05, err_msg=channel.label()
        )


def test_signed_measurement_validation():
    with pytest.raises(ValueError):
        SignedMeasurement((0.0, 0.0, 2.0))  # axis not unit
    with pytest.raises(ValueError, match="finite"):
        SignedMeasurement((float("nan"), 0.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        Unitary(np.array([[float("nan"), 0.0], [0.0, 1.0]]))
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
    psi = np.array([1.0, 0.0], dtype=complex)
    program = (Unitary(PAULIS[1]), np.eye(2))
    with pytest.raises(TypeError, match="unknown realization step"):
        run_program(psi, program, 0, 1, FixedDraws([]))
    steps = tuple((0, step) for step in program)
    with pytest.raises(TypeError, match="unknown realization step"):
        run_branches(psi, steps, 1, lambda idx: np.zeros(len(idx)), np.arange(3))


def branches_against_run_program(psi, sides, draws):
    """``run_branches`` on the (qubit, program) ``sides`` next to ``run_program``.

    The sequence is every program's steps on its qubit, in order. Each shot
    (a row of ``draws``) must get the state and weight that ``run_program``
    gives it, one side after the other, bit for bit, from the same draws.
    """
    shots, num_qubits = len(draws), int(len(psi)).bit_length() - 1
    used = np.zeros(shots, dtype=int)

    def draw(idx):
        out = draws[idx, used[idx]]
        used[idx] += 1
        return out

    steps = tuple((qubit, step) for qubit, program in sides for step in program)
    branches = run_branches(psi, steps, num_qubits, draw, np.arange(shots))
    assert sorted(i for _, _, taken in branches for i in taken.tolist()) == list(range(shots))
    for state, weight, taken in branches:
        for shot in taken.tolist():
            ref_rng = FixedDraws(draws[shot])
            ref, ref_weight = psi, 1.0
            for qubit, program in sides:
                ref, w = run_program(ref, program, qubit, num_qubits, ref_rng)
                ref_weight *= w
            assert weight == ref_weight
            assert np.array_equal(state, ref)
            # the same number of draws
            assert used[shot] == len(draws[shot]) - len(ref_rng._draws)


def random_state(rng, num_qubits):
    psi = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("channel", ALL_CHANNELS, ids=str)
def test_branches_match_one_run_per_shot(channel):
    """``run_branches`` gives every shot what ``run_program`` gives it, bit for bit."""
    rng = np.random.default_rng(17)
    psi = random_state(rng, 3)
    branches_against_run_program(psi, [(1, realization_program(channel))], rng.random((12, 2)))


@pytest.mark.parametrize(
    "left, right",
    [("A12", "B13"), ("s2,B02", "A03,B12,s1"), ("B23,A01", "s0")],
)
def test_one_sequence_spans_two_qubits(left, right):
    """A cut term's left channels on qubit 0, then its right ones on qubit 2."""
    rng = np.random.default_rng(23)
    psi = random_state(rng, 3)
    sides = [
        (qubit, realization_program(BasisChannelId.from_label(label)))
        for qubit, labels in ((0, left), (2, right))
        for label in labels.split(",")
    ]
    branches_against_run_program(psi, sides, rng.random((40, len(sides))))


def test_projector_formula():
    np.testing.assert_allclose(projector((1.0, 0.0, 0.0)), 0.5 * (SIGMA_0 + PAULIS[1]), atol=0)
