"""JSON documents: circuits, observables and quasiprobability decompositions.

The three formats (``cut`` and ``u`` are optional, every other field shown is
required, and no other field is allowed at any level):

    circuit:        {"format": 1, "qubits": n, "gates": [
                      {"type": "single", "q": 0, "axis": [x, y, z], "theta": t},
                      {"type": "canonical", "qs": [a, b], "theta": [t1, t2, t3],
                       "cut": true},
                      {"type": "raw1q", "q": 2, "matrix": [[[re, im], ...], ...]}]}
    observable:     {"format": 1, "terms": [{"coeff": 1.0, "pauli": "ZZ"}]}
    decomposition:  {"terms": [{"c": [re, 0.0], "left": "A01,s2", "right": "B01"}],
                     "W": w, "u": [[re, im], [re, im], [re, im], [re, im]]}

Circuits and observables carry "format", the JSON integer 1; a decomposition
has no "format" field. Complex numbers are ``[re, im]`` pairs, a channel
sequence is comma-separated channel labels, and every array field must be a
JSON array. Structural problems raise FormatError: a missing or unknown
field, a value of the wrong JSON kind, an unknown gate type or channel label.
Semantically invalid values raise ValueError: a bad qubit index, a non-unit
axis, a NaN, infinite or too large number, too many qubits, a zero or
complex coefficient, a weight that is not the coefficients' one-norm. Each
object's fields are checked, missing and unknown alike, before any of its
values is read, so an object with a structural fault raises FormatError
even when one of its values is also invalid.
"""

from __future__ import annotations

import numpy as np

from .algebra import finite_real
from .canonical import PauliCoeffs, ThetaVector
from .circuit import CanonicalGate, Circuit, Gate, Observable, Raw1QGate, SingleGate
from .decomposition import ChannelSequence, QPDecomposition, QPTerm
from .local_basis import BasisChannelId

_NUMBER = (int, float)

# per gate type, its (required, optional) fields
_GATE_FIELDS = {
    "single": (("type", "q", "axis", "theta"), ()),
    "canonical": (("type", "qs", "theta"), ("cut",)),
    "raw1q": (("type", "q", "matrix"), ()),
}


class FormatError(ValueError):
    """A document is structurally malformed (bad schema, not bad physics)."""


# --- circuits and observables ---------------------------------------------


def circuit_to_doc(circuit: Circuit) -> dict:
    gates = []
    for gate in circuit.gates:
        if isinstance(gate, SingleGate):
            gates.append(
                {"type": "single", "q": gate.qubit, "axis": list(gate.axis), "theta": gate.theta}
            )
        elif isinstance(gate, CanonicalGate):
            qs, theta = list(gate.qubits), list(gate.theta)
            gates.append({"type": "canonical", "qs": qs, "theta": theta, "cut": gate.cut})
        else:
            matrix = [[_pair_doc(v) for v in row] for row in gate.matrix]
            gates.append({"type": "raw1q", "q": gate.qubit, "matrix": matrix})
    return {"format": 1, "qubits": circuit.num_qubits, "gates": gates}


def circuit_from_doc(doc: dict) -> Circuit:
    _require_format(doc, ("format", "qubits", "gates"), "circuit document")
    num_qubits = _typed(doc["qubits"], int, "qubits")
    raw_gates = _typed(doc["gates"], list, "gates")
    return Circuit(num_qubits, tuple(_gate_from_doc(entry) for entry in raw_gates))


def _gate_from_doc(entry) -> Gate:
    kind = entry.get("type") if isinstance(entry, dict) else None
    if not isinstance(kind, str) or kind not in _GATE_FIELDS:
        raise FormatError(f"gate {entry!r} is not a JSON object with a known type")
    required, optional = _GATE_FIELDS[kind]
    _fields(entry, required, f"{kind} gate", optional)
    if kind == "single":
        q = _typed(entry["q"], int, "q")
        axis = tuple(_number(x, "axis") for x in _typed(entry["axis"], list, "axis"))
        return SingleGate(q, axis, _number(entry["theta"], "theta"))
    if kind == "canonical":
        qubits = tuple(_typed(q, int, "qs") for q in _typed(entry["qs"], list, "qs"))
        theta = _typed(entry["theta"], list, "theta")
        theta = ThetaVector.coerce([_number(t, "theta") for t in theta])
        return CanonicalGate(qubits, theta, _typed(entry.get("cut", False), bool, "cut"))
    rows = [_typed(row, list, "matrix") for row in _typed(entry["matrix"], list, "matrix")]
    if [len(row) for row in rows] != [2, 2]:
        raise FormatError(f"raw1q matrix must be 2 x 2, got {rows!r}")
    matrix = np.array([[_complex_pair(v, "matrix") for v in row] for row in rows])
    return Raw1QGate(_typed(entry["q"], int, "q"), matrix)


def observable_to_doc(observable: Observable) -> dict:
    return {
        "format": 1,
        "terms": [{"coeff": c, "pauli": p} for c, p in observable.terms],
    }


def observable_from_doc(doc: dict) -> Observable:
    _require_format(doc, ("format", "terms"), "observable document")
    terms = []
    for t in _typed(doc["terms"], list, "terms"):
        _fields(t, ("coeff", "pauli"), "observable term")
        terms.append((_number(t["coeff"], "coeff"), _typed(t["pauli"], str, "pauli")))
    return Observable(tuple(terms))


# --- decompositions --------------------------------------------------------


def decomposition_to_doc(
    decomposition: QPDecomposition, u: PauliCoeffs | None = None
) -> dict:
    """Plain-JSON document: numbers become [re, im] pairs, a coefficient's im 0.0."""
    doc: dict = {
        "terms": [
            {
                "c": _pair_doc(term.coefficient),
                "left": ",".join(cid.label() for cid in term.left),
                "right": ",".join(cid.label() for cid in term.right),
            }
            for term in decomposition.terms
        ],
        "W": decomposition.weight,
    }
    if u is not None:
        doc["u"] = [_pair_doc(v) for v in u.values]
    return doc


def decomposition_from_doc(doc: dict) -> tuple[QPDecomposition, PauliCoeffs | None]:
    """Inverse of decomposition_to_doc."""
    _fields(doc, ("terms", "W"), "decomposition document", optional=("u",))
    terms = tuple(_term_from_doc(entry) for entry in _typed(doc["terms"], list, "terms"))
    weight = _number(doc["W"], "W")
    u = None
    if "u" in doc:
        u = PauliCoeffs(np.array([_complex_pair(v, "u") for v in _typed(doc["u"], list, "u")]))
    return QPDecomposition(terms, weight), u


def _term_from_doc(entry) -> QPTerm:
    _fields(entry, ("c", "left", "right"), "decomposition term")
    c = _complex_pair(entry["c"], "c")
    if c.imag != 0.0:
        raise ValueError(f"c must be real, got imaginary part {c.imag}")
    return QPTerm(
        c.real, _channel_sequence(entry["left"], "left"), _channel_sequence(entry["right"], "right")
    )


# --- field readers and writers ----------------------------------------------


def _require_format(doc, fields, what: str) -> None:
    """FormatError unless ``doc`` has exactly ``fields`` and "format" is the integer 1."""
    _fields(doc, fields, what)
    if _typed(doc["format"], int, "format") != 1:
        raise FormatError(f"unsupported document format {doc['format']!r}")


def _fields(obj, required, what: str, optional=()) -> None:
    """FormatError unless ``obj`` is a JSON object with every key of ``required``
    and none outside ``required`` and ``optional``.

    Called before any value of ``obj`` is read, so that a structural fault is
    reported before an invalid value.
    """
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object, got {obj!r}")
    unknown = [key for key in obj if key not in required and key not in optional]
    if unknown:
        raise FormatError(f"unknown {what} fields: {unknown!r}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise FormatError(f"{what} is missing fields {missing!r}")


def _typed(value, kind, field: str):
    """``value`` if its JSON type is ``kind``: never truncated or converted.

    With ``kind`` list, this is the reader of every array field.
    """
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise FormatError(f"{field} has the wrong JSON type: {value!r}")
    return value


def _number(value, field: str) -> float:
    """A JSON number as a float; one too large for a float, NaN or infinite raises ValueError."""
    return finite_real(_typed(value, _NUMBER, field), field)


def _complex_pair(value, field: str) -> complex:
    """A complex number stored as a JSON ``[re, im]`` pair of numbers."""
    if len(_typed(value, list, field)) != 2:
        raise FormatError(f"{field} entry must be an [re, im] pair, got {value!r}")
    return complex(_number(value[0], field), _number(value[1], field))


def _pair_doc(value) -> list[float]:
    """The ``[re, im]`` pair that ``_complex_pair`` reads back."""
    c = complex(value)
    return [c.real, c.imag]


def _channel_sequence(value, field: str) -> ChannelSequence:
    """Comma-separated channel labels, e.g. ``"A01,s2"``."""
    labels = _typed(value, str, field).split(",")
    try:
        return tuple(BasisChannelId.from_label(p) for p in labels)
    except ValueError as exc:
        raise FormatError(f"{field}: {exc}") from exc
