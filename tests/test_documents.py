"""Property tests for the three document parsers.

On any JSON value, and on valid documents with one value replaced or one key
dropped, ``circuit_from_doc``, ``observable_from_doc`` and
``decomposition_from_doc`` raise only ``FormatError`` or ``ValueError``, the
two exceptions the CLI maps to exit codes 2 and 3. A value replaced by one of
another JSON kind (null, bool, number, string, array, object) is always a
``FormatError``, even when a number in another object is NaN as well. Valid
documents survive a trip through JSON text bit for bit.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasicut.canonical import pauli_coefficients
from quasicut.circuit import CanonicalGate, Circuit, Observable, Raw1QGate, SingleGate, statevector
from quasicut.decomposition import compose, decompose, reconstruct_ptm
from quasicut.documents import (
    FormatError,
    circuit_from_doc,
    circuit_to_doc,
    decomposition_from_doc,
    decomposition_to_doc,
    observable_from_doc,
    observable_to_doc,
)

FUZZ = settings(max_examples=300, deadline=None)
ROUND_TRIP = settings(max_examples=150, deadline=None)

# the documents' field names, so fuzzed objects often carry one
FIELDS = "format qubits gates terms type q qs axis theta cut matrix coeff pauli c left right W u"
FIELDS = FIELDS.split()

# everything json.loads can return, big integers and NaN / Infinity included
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**1023, max_value=2**1100)
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["single", "canonical", "raw1q", "I", "Z", "XY", "s0", "A01", "B13,s2"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=3), children, max_size=4),
    max_leaves=12,
)

ANGLES = st.floats(-4.0, 4.0)
QUBITS = st.integers(1, 3)


@st.composite
def circuits(draw):
    n = draw(QUBITS)
    gates = []
    for _ in range(draw(st.integers(0, 5))):
        q = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["single", "raw1q", "canonical"][: 2 + (n > 1)]))
        axis = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
        if np.linalg.norm(axis) < 0.1:
            axis = np.array([0.0, 0.0, 1.0])
        single = SingleGate(q, tuple(axis / np.linalg.norm(axis)), draw(ANGLES))
        if kind == "single":
            gates.append(single)
        elif kind == "raw1q":
            gates.append(Raw1QGate(q, np.exp(1j * draw(ANGLES)) * single.matrix))
        else:
            other = draw(st.integers(0, n - 1).filter(lambda p: p != q))
            theta = draw(st.tuples(ANGLES, ANGLES, ANGLES))
            gates.append(CanonicalGate((q, other), theta, draw(st.booleans())))
    return Circuit(n, tuple(gates))


@st.composite
def observables(draw):
    n = draw(QUBITS)
    strings = st.text("IXYZ", min_size=n, max_size=n)
    coeffs = st.floats(-1e3, 1e3).filter(lambda c: c != 0.0)
    return Observable(tuple(draw(st.lists(st.tuples(coeffs, strings), min_size=1, max_size=4))))


@st.composite
def decompositions(draw):
    """A decomposition with its coefficients, or a composition of two one-angle factors."""
    u = pauli_coefficients(draw(st.tuples(ANGLES, ANGLES, ANGLES)))
    if draw(st.booleans()):
        return decompose(u), u
    first, second = (decompose(pauli_coefficients((draw(ANGLES), 0.0, 0.0))) for _ in range(2))
    return compose(second, first), None


def json_kind(value) -> str:
    """null, bool, number, string, array or object; a bool is not a number."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    return {int: "number", float: "number", str: "string", list: "array", dict: "object"}[
        type(value)
    ]


def entries(node, path=()):
    """Every (path, value) below ``node``; a path is a tuple of keys and indices."""
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,), value
            yield from entries(value, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def near_valid(draw, documents):
    """A valid document with one value replaced or its key dropped.

    The value's path is drawn from all of the document's values alike, so
    deep leaves are reached as often as shallow ones. Returns the document
    and whether the replacement is of another JSON kind.
    """
    doc = copy.deepcopy(draw(documents))
    path = draw(st.sampled_from([p for p, _ in entries(doc)]))
    parent, key = at(doc, path[:-1]), path[-1]
    node = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
        return doc, False
    value = draw(JSON_VALUES)
    parent[key] = value
    return doc, json_kind(value) != json_kind(node)


def through_json(doc):
    return json.loads(json.dumps(doc))


CIRCUIT_DOCS = circuits().map(circuit_to_doc)
OBSERVABLE_DOCS = observables().map(observable_to_doc)
DECOMPOSITION_DOCS = decompositions().map(lambda d: decomposition_to_doc(*d))


def any_value_or_near_valid(documents):
    """A JSON value (any outcome allowed), or a near-valid document."""
    return st.one_of(JSON_VALUES.map(lambda value: (value, False)), near_valid(documents))


def raises_only_documented_errors(parse, case):
    """FormatError or ValueError at most, and FormatError if a value changed its JSON kind."""
    doc, kind_changed = case
    try:
        parse(doc)
    except FormatError:
        return
    except ValueError:
        assert not kind_changed, "a value of the wrong JSON kind raised ValueError"
        return
    assert not kind_changed, "a value of the wrong JSON kind was parsed"


@FUZZ
@given(any_value_or_near_valid(CIRCUIT_DOCS))
def test_circuit_parser_raises_only_format_or_value_errors(case):
    raises_only_documented_errors(circuit_from_doc, case)


@FUZZ
@given(any_value_or_near_valid(OBSERVABLE_DOCS))
def test_observable_parser_raises_only_format_or_value_errors(case):
    raises_only_documented_errors(observable_from_doc, case)


@FUZZ
@given(any_value_or_near_valid(DECOMPOSITION_DOCS))
def test_decomposition_parser_raises_only_format_or_value_errors(case):
    raises_only_documented_errors(decomposition_from_doc, case)


# one value of each JSON kind: empty strings and containers are what a coercing reader lets by
KIND_SAMPLES = (None, False, 0, "", [], {})

PARSERS = pytest.mark.parametrize(
    "parse, documents",
    [
        (circuit_from_doc, CIRCUIT_DOCS),
        (observable_from_doc, OBSERVABLE_DOCS),
        (decomposition_from_doc, DECOMPOSITION_DOCS),
    ],
    ids=["circuit", "observable", "decomposition"],
)


@PARSERS
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_each_value_replaced_by_each_other_json_kind_is_a_format_error(parse, documents, data):
    """Every value of a valid document in turn, replaced by one value of each other JSON kind.

    ``near_valid`` draws one replacement per example, so a fault at one
    field (``"gates": ""``, ``"axis": {}``, ``"u": null``) can escape its
    300 examples; this walk reaches every field of every drawn document.
    """
    doc = data.draw(documents)
    for path, value in list(entries(doc)):
        parent = at(doc, path[:-1])
        for sample in KIND_SAMPLES:
            if json_kind(sample) != json_kind(value):
                parent[path[-1]] = sample
                with pytest.raises(FormatError):
                    parse(doc)
        parent[path[-1]] = value


def owner(doc, path):
    """The path of the innermost JSON object that holds the value at ``path``."""
    return max((path[:i] for i in range(len(path)) if isinstance(at(doc, path[:i]), dict)), key=len)


@st.composite
def two_faults(draw, documents):
    """A valid document with one number made NaN and, in another JSON object,
    a value replaced by one of another JSON kind.

    Each path is drawn from all of the document's values alike, so deep
    leaves are reached as often as shallow ones.
    """
    doc = copy.deepcopy(draw(documents))
    values = list(entries(doc))
    number = draw(st.sampled_from([p for p, v in values if json_kind(v) == "number"]))
    others = [
        p for p, _ in values if owner(doc, p) != owner(doc, number) and number[: len(p)] != p
    ]
    assume(others)
    target = draw(st.sampled_from(others))
    kind = json_kind(at(doc, target))
    at(doc, number[:-1])[number[-1]] = float("nan")
    at(doc, target[:-1])[target[-1]] = draw(JSON_VALUES.filter(lambda v: json_kind(v) != kind))
    return doc


@PARSERS
@FUZZ
@given(data=st.data())
def test_a_wrong_json_kind_anywhere_outranks_a_nan_elsewhere(parse, documents, data):
    """The whole document's structure is checked before any of its values."""
    with pytest.raises(FormatError):
        parse(data.draw(two_faults(documents)))


BIG = 10**400  # a JSON integer that float() cannot convert


@pytest.mark.parametrize(
    "parse, doc",
    [
        (
            circuit_from_doc,
            {
                "format": 1,
                "qubits": 1,
                "gates": [{"type": "single", "q": 0, "axis": [0, 0, 1], "theta": BIG}],
            },
        ),
        (observable_from_doc, {"format": 1, "terms": [{"coeff": BIG, "pauli": "Z"}]}),
        (decomposition_from_doc, {"terms": [{"c": [BIG, 0], "left": "s0", "right": "s0"}], "W": 1}),
    ],
    ids=["circuit", "observable", "decomposition"],
)
def test_a_number_too_large_for_a_float_is_a_value_error(parse, doc):
    with pytest.raises(ValueError) as info:
        parse(doc)
    assert not isinstance(info.value, FormatError)


@ROUND_TRIP
@given(circuits())
def test_circuit_documents_round_trip(circuit):
    back = circuit_from_doc(through_json(circuit_to_doc(circuit)))
    assert back.num_qubits == circuit.num_qubits
    assert back.cut_indices() == circuit.cut_indices()
    assert statevector(back).tobytes() == statevector(circuit).tobytes()


@ROUND_TRIP
@given(observables())
def test_observable_documents_round_trip(observable):
    back = observable_from_doc(through_json(observable_to_doc(observable)))
    assert [(c.hex(), p) for c, p in back.terms] == [(c.hex(), p) for c, p in observable.terms]


@ROUND_TRIP
@given(decompositions())
def test_decomposition_documents_round_trip(pair):
    decomposition, u = pair
    back, u_back = decomposition_from_doc(through_json(decomposition_to_doc(decomposition, u)))
    assert back == decomposition
    assert reconstruct_ptm(back).tobytes() == reconstruct_ptm(decomposition).tobytes()
    assert (u_back is None) is (u is None)
    if u is not None:
        assert u_back.values.tobytes() == u.values.tobytes()
