"""Quasiprobability decompositions: terms, weights, and reconstruction.

The reconstruction oracle is the dense PTM of the exact gate conjugation,
computed through a different code path than the per-term channel PTMs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasicut.algebra import ptm_of_unitary
from quasicut.analysis import sweep
from quasicut.canonical import PauliCoeffs, ThetaVector, canonical_unitary, pauli_coefficients
from quasicut.decomposition import (
    QPDecomposition,
    QPTerm,
    compose,
    decompose,
    legacy_decompose,
    reconstruct_ptm,
    weight_formula,
)
from quasicut.documents import FormatError, decomposition_from_doc, decomposition_to_doc
from quasicut.local_basis import a_channel, b_channel, pauli_channel

PI = np.pi


def random_unit_coeffs(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return PauliCoeffs(v / np.linalg.norm(v))


def weight_oracle(values):
    """1 + sum over ordered pairs of |x + conj(x)| + |x - conj(x)|."""
    total = 1.0
    for a in range(4):
        for b in range(4):
            if a == b:
                continue
            x = values[a] * np.conj(values[b])
            total += abs(x + np.conj(x)) + abs(x - np.conj(x))
    return total


def test_weight_matches_independent_formula():
    rng = np.random.default_rng(40)
    for _ in range(1000):
        u = random_unit_coeffs(rng)
        d = decompose(u)
        w = weight_formula(u)
        assert abs(d.weight - w) < 1e-12
        assert abs(w - weight_oracle(np.asarray(u.values))) < 1e-12
        # the weight is exactly the total sampled mass
        assert abs(sum(abs(t.coefficient) for t in d.terms) - w) < 1e-12


def test_reconstruction_equals_exact_gate_ptm():
    rng = np.random.default_rng(41)
    for _ in range(60):
        theta = ThetaVector(*rng.uniform(0.0, PI / 4, size=3))
        d = decompose(pauli_coefficients(theta))
        target = ptm_of_unitary(canonical_unitary(theta), 2)
        np.testing.assert_allclose(reconstruct_ptm(d), target, atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(theta=st.tuples(*[st.floats(-10.0, 10.0)] * 3))
def test_decompose_is_exact_at_any_finite_angle(theta):
    """Inside or outside the Weyl domain: the gate's PTM to 1e-9, W from its formula."""
    u = pauli_coefficients(ThetaVector(*theta))
    d = decompose(u)
    target = ptm_of_unitary(canonical_unitary(ThetaVector(*theta)), 2)
    np.testing.assert_allclose(reconstruct_ptm(d), target, rtol=0, atol=1e-9)
    assert d.weight == pytest.approx(weight_formula(u), rel=1e-12, abs=0)


def test_frozen_terms_at_quarter_pi():
    d = decompose(pauli_coefficients(ThetaVector(PI / 4, 0.0, 0.0)))
    got = {
        (t.left[0].name, t.right[0].name): t.coefficient for t in d.terms
    }
    expected = {
        ("s0", "s0"): 0.5,
        ("s1", "s1"): 0.5,
        ("A01", "B01"): 1.0,
        ("B01", "A01"): 1.0,
    }
    assert set(got) == set(expected)
    for key, val in expected.items():
        assert abs(got[key] - val) < 1e-12
        assert got[key].imag == 0.0
    assert abs(d.weight - 3.0) < 1e-12


def test_landmark_weights():
    assert decompose(pauli_coefficients(ThetaVector(0.0, 0.0, 0.0))).weight == 1.0
    assert abs(decompose(pauli_coefficients(ThetaVector(PI / 4, 0, 0))).weight - 3.0) < 1e-12
    assert (
        abs(decompose(pauli_coefficients(ThetaVector(PI / 4, PI / 4, PI / 4))).weight - 7.0)
        < 1e-12
    )
    # the two-axis point already saturates the swap-class weight
    assert abs(decompose(pauli_coefficients(ThetaVector(PI / 4, PI / 4, 0))).weight - 7.0) < 1e-12


def test_identity_decomposes_to_single_term():
    d = decompose(pauli_coefficients(ThetaVector(0.0, 0.0, 0.0)))
    assert d.num_terms == 1
    term = d.terms[0]
    assert term.coefficient == 1.0
    assert term.left == (pauli_channel(0),) and term.right == (pauli_channel(0),)


def test_global_phase_invariance():
    rng = np.random.default_rng(42)
    u = pauli_coefficients(ThetaVector(0.3, 0.2, 0.1))
    d = decompose(u)
    for _ in range(5):
        phase = np.exp(1j * rng.uniform(0, 2 * PI))
        rotated = PauliCoeffs(np.asarray(u.values) * phase)
        d2 = decompose(rotated)
        assert abs(d2.weight - d.weight) < 1e-12
        np.testing.assert_allclose(reconstruct_ptm(d2), reconstruct_ptm(d), atol=1e-10)


def test_term_count_generic_point():
    # generic angles: 4 diagonal terms plus 4 terms per off-diagonal pair
    d = decompose(pauli_coefficients(ThetaVector(0.3, 0.2, 0.1)))
    assert d.num_terms == 4 + 6 * 4


def test_decompose_drops_negligible_terms():
    d = decompose(pauli_coefficients(ThetaVector(PI / 4, 0.0, 0.0)))
    assert all(abs(t.coefficient) > 1e-14 for t in d.terms)
    assert d.num_terms == 4


def test_compose_weight_is_exact_product():
    rng = np.random.default_rng(43)
    for _ in range(20):
        d1 = decompose(random_unit_coeffs(rng))
        d2 = decompose(random_unit_coeffs(rng))
        combined = compose(d2, d1)
        assert combined.weight == d2.weight * d1.weight  # bitwise, not approximate
        assert combined.num_terms == d1.num_terms * d2.num_terms


def test_compose_reconstruction_is_ptm_product():
    rng = np.random.default_rng(44)
    t1 = ThetaVector(*rng.uniform(0, PI / 4, size=3))
    t2 = ThetaVector(*rng.uniform(0, PI / 4, size=3))
    d1 = decompose(pauli_coefficients(t1))
    d2 = decompose(pauli_coefficients(t2))
    combined = compose(d2, d1)
    np.testing.assert_allclose(
        reconstruct_ptm(combined),
        reconstruct_ptm(d2) @ reconstruct_ptm(d1),
        atol=1e-9,
    )


def test_compose_concatenates_labels_in_application_order():
    d1 = decompose(pauli_coefficients(ThetaVector(PI / 4, 0, 0)))
    combined = compose(d1, d1)
    assert combined.terms[0].left == d1.terms[0].left + d1.terms[0].left
    lengths = {len(t.left) for t in combined.terms}
    assert lengths == {2}


def test_legacy_decomposition_weights():
    theta = ThetaVector(PI / 4, PI / 4, PI / 4)
    d, w = legacy_decompose(theta)
    assert abs(w - 27.0) < 1e-12
    assert abs(d.weight - 27.0) < 1e-12
    assert d.num_terms == 4**3
    # single-axis case collapses to the direct decomposition's weight
    _, w1 = legacy_decompose(ThetaVector(0.2, 0.0, 0.0))
    assert abs(w1 - (1.0 + 2.0 * abs(np.sin(0.4)))) < 1e-12


def test_legacy_reconstruction_is_also_exact():
    rng = np.random.default_rng(45)
    for _ in range(10):
        theta = ThetaVector(*rng.uniform(0, PI / 4, size=3))
        d, _ = legacy_decompose(theta)
        target = ptm_of_unitary(canonical_unitary(theta), 2)
        np.testing.assert_allclose(reconstruct_ptm(d), target, atol=1e-9)


def test_legacy_never_beats_direct():
    grid = np.linspace(0.0, PI / 4, 6)
    for t1 in grid:
        for t2 in grid:
            for t3 in grid:
                if not (t1 >= t2 >= t3):
                    continue
                theta = ThetaVector(t1, t2, t3)
                _, w_legacy = legacy_decompose(theta)
                w_direct = decompose(pauli_coefficients(theta)).weight
                assert w_direct <= w_legacy + 1e-10


def test_identity_legacy_is_trivial():
    d, w = legacy_decompose(ThetaVector(0.0, 0.0, 0.0))
    assert w == 1.0 and d.num_terms == 1


def test_term_validation():
    with pytest.raises(ValueError):
        QPTerm(0.0, (pauli_channel(0),), (pauli_channel(0),))
    # a coefficient is a finite real number, never coerced from another type
    for coefficient in (1j, float("nan"), float("inf"), True, "1.0"):
        with pytest.raises(ValueError, match="coefficient"):
            QPTerm(coefficient, (pauli_channel(0),), (pauli_channel(0),))
    term = QPTerm(np.float64(0.5), (pauli_channel(0),), (pauli_channel(0),))
    assert type(term.coefficient) is float
    with pytest.raises(ValueError):
        QPTerm(1.0, (), (pauli_channel(0),))
    # labels that are not channel ids fail here, not later in reconstruct_ptm
    for build in (
        lambda: QPTerm(1.0, 5, 5),
        lambda: QPTerm(1.0, ("x",), ("y",)),
        lambda: QPTerm(1.0, (pauli_channel(0),), "s0"),
        lambda: QPDecomposition((QPTerm(1.0, 5, 5),), 1.0),
    ):
        with pytest.raises(ValueError, match="channel ids"):
            build()
    # any sequence of ids is stored as the term's own tuple
    labels = [pauli_channel(1)]
    term = QPTerm(1.0, labels, (pauli_channel(2),))
    labels.append(pauli_channel(3))
    assert term.left == (pauli_channel(1),)
    with pytest.raises(ValueError):
        QPDecomposition((QPTerm(1.0, (pauli_channel(0),), (pauli_channel(0),)),), 0.0)
    with pytest.raises(ValueError, match="at least one term"):
        QPDecomposition((), 1.0)
    # the weight is the one-norm sum |c| = 5.593..., to a relative 1e-9
    terms = decompose(pauli_coefficients((0.5, 0.3, 0.1))).terms
    norm = sum(abs(t.coefficient) for t in terms)
    for weight in (1.0, norm * (1.0 + 1e-6)):
        with pytest.raises(ValueError, match="one-norm"):
            QPDecomposition(terms, weight)
    assert QPDecomposition(terms, norm * (1.0 + 1e-12)).weight > norm
    # terms are stored as the decomposition's own tuple, so a generator is
    # read once, by the norm check, and still holds every term afterwards
    direct = QPDecomposition(terms, norm)
    built = QPDecomposition((t for t in terms), norm)
    assert built == direct and built.num_terms == len(terms)
    np.testing.assert_array_equal(reconstruct_ptm(built), reconstruct_ptm(direct))
    for container in (5, None, [1.0], (terms[0], "s0")):
        with pytest.raises(ValueError, match="QPTerm"):
            QPDecomposition(container, 1.0)
    # the weight is a finite real number, read as a float
    one = (QPTerm(1.0, (pauli_channel(0),), (pauli_channel(0),)),)
    assert type(QPDecomposition(one, 1).weight) is float
    assert type(QPDecomposition(one, np.float64(1.0)).weight) is float
    for weight in (True, "1.0", None, 10**400, float("nan"), 1j):
        with pytest.raises(ValueError, match="weight"):
            QPDecomposition(one, weight)


def test_every_construction_keeps_its_one_norm_on_the_sweep_lattice():
    # decompose, compose and legacy_decompose build through the same check
    for row in sweep(9):
        theta = ThetaVector(row.theta1, row.theta2, row.theta3)
        direct = decompose(pauli_coefficients(theta))
        legacy, _ = legacy_decompose(theta)
        composed = compose(direct, legacy)
        assert composed.weight == direct.weight * legacy.weight


def test_reconstruct_rejects_complex_coefficients():
    # the term itself refuses the coefficient, before any PTM is formed
    with pytest.raises(ValueError):
        bad = QPDecomposition(
            (QPTerm(1j, (a_channel(0, 1),), (b_channel(0, 1),)),), 1.0
        )
        reconstruct_ptm(bad)


def test_doc_roundtrip():
    u = pauli_coefficients(ThetaVector(0.3, 0.2, 0.1))
    d = decompose(u)
    doc = decomposition_to_doc(d, u)
    back, u_back = decomposition_from_doc(doc)
    assert back == d
    np.testing.assert_allclose(np.asarray(u_back.values), np.asarray(u.values), atol=0)
    no_u, missing = decomposition_from_doc(decomposition_to_doc(d))
    assert no_u == d and missing is None


def test_doc_roundtrip_preserves_sequences():
    d1 = decompose(pauli_coefficients(ThetaVector(PI / 4, 0, 0)))
    combined = compose(d1, d1)
    back, _ = decomposition_from_doc(decomposition_to_doc(combined))
    assert back == combined


def test_doc_rejects_malformed_input():
    with pytest.raises(ValueError):
        decomposition_from_doc({"W": 1.0})
    with pytest.raises(ValueError):
        decomposition_from_doc({"terms": [{"c": [1.0], "left": "s0", "right": "s0"}], "W": 1.0})
    with pytest.raises(ValueError):
        decomposition_from_doc(
            {"terms": [{"c": [1.0, 0.0], "left": "nope", "right": "s0"}], "W": 1.0}
        )


# a well-formed term whose zero coefficient is invalid
ZERO_TERM = {"c": [0.0, 0.0], "left": "s0", "right": "s0"}


def _term(**fields):
    term = {"c": [1.0, 0.0], "left": "s0", "right": "s0"}
    term.update(fields)
    return {"terms": [term], "W": 1.0}


@pytest.mark.parametrize(
    "doc",
    [
        {"W": 1.0},
        [1.0],
        {"terms": "s0", "W": 1.0},
        {"terms": [], "W": "1.0"},
        {"terms": [], "W": True},
        _term(c=[1.0]),
        _term(c=["1.0", 0.0]),
        _term(c=[True, 0.0]),
        _term(left=0),
        _term(right=["s0"]),
        _term(left="nope"),
        dict(_term(), u=[[1.0, 0.0], ["0", 0.0], [0.0, 0.0], [0.0, 0.0]]),
        dict(_term(), u=None),
        dict(_term(), u={}),
        dict(_term(), u=""),
        dict(_term(), format=1),
        _term(weight=1.0),
        # a missing field is reported before an invalid value
        {"terms": [{"c": [0.0, 0.0], "left": "s0", "right": "s0"}]},
        {"terms": [{"c": [0.0, 0.0], "left": "s0"}], "W": 1.0},
        # and a structural fault anywhere before an invalid value anywhere else
        {"terms": [ZERO_TERM, {"c": [1.0, 0.0], "left": "s0"}], "W": 1.0},
        {"terms": [ZERO_TERM], "W": "x"},
    ],
)
def test_doc_structural_errors_are_format_errors(doc):
    """Missing or unknown fields and wrong JSON types are malformed input, never coerced."""
    with pytest.raises(FormatError):
        decomposition_from_doc(doc)


def test_doc_semantic_errors_stay_value_errors():
    with pytest.raises(ValueError) as info:
        decomposition_from_doc(_term(c=[0.0, 0.0]))
    assert not isinstance(info.value, FormatError)
    with pytest.raises(ValueError) as info:
        decomposition_from_doc(dict(_term(), W=-1.0))
    assert not isinstance(info.value, FormatError)
    # a coefficient is real: a nonzero imaginary part is invalid, not malformed
    with pytest.raises(ValueError, match="real") as info:
        decomposition_from_doc(_term(c=[1.0, 0.5]))
    assert not isinstance(info.value, FormatError)
    decomposition, _ = decomposition_from_doc(_term(c=[1.0, -0.0]))
    assert decomposition.terms[0].coefficient == 1.0
