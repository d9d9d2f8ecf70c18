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
complex coefficient, a weight that is not the coefficients' one-norm. The
whole document's structure is checked against its format's schema before
any value is read, so a document with a structural fault anywhere raises
FormatError even when one of its values is also invalid. ``load`` reads a
file's JSON and rejects a file that is not UTF-8 text, a key repeated in
one object, so a second "cut" cannot silently overrule the first, and
nesting too deep for the JSON decoder as malformed too.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import finite_real
from .canonical import PauliCoeffs, ThetaVector
from .circuit import CanonicalGate, Circuit, Gate, Observable, Raw1QGate, SingleGate
from .decomposition import ChannelSequence, QPDecomposition, QPTerm
from .local_basis import BasisChannelId


class FormatError(ValueError):
    """A document is structurally malformed (bad schema, not bad physics)."""


def load(path) -> object:
    """The JSON in ``path``; non-UTF-8 text, a repeated key or deep nesting is a FormatError."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle, object_pairs_hook=_object)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc
        except RecursionError as exc:
            raise FormatError(f"{path} nests its JSON too deeply: {exc}") from exc


def _object(pairs: list[tuple[str, object]]) -> dict:
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise FormatError(f"JSON object key {key!r} is repeated")
        obj[key] = value
    return obj


# --- the three formats' structure -------------------------------------------


def _check(value, schema, where: str) -> None:
    """FormatError unless ``value`` has the structure that ``schema`` declares.

    A schema is one of:
      * a JSON kind: ``str``, ``int``, ``bool`` or ``_NUMBER`` (a bool is
        neither an int nor a number);
      * a list: ``[item]`` is an array of any length whose entries match
        ``item``, and ``[first, second, ...]`` an array of exactly those;
      * a dict: an object with exactly these fields, where a name ending in
        "?" may be left out; fields, missing and unknown alike, are checked
        before their values;
      * a function ``check(value, where)``.
    """
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise FormatError(f"{where} must be a JSON object, got {value!r}")
        fields = {name.rstrip("?"): item for name, item in schema.items()}
        unknown = [key for key in value if key not in fields]
        if unknown:
            raise FormatError(f"{where} has unknown fields {unknown!r}")
        missing = [name for name in schema if not name.endswith("?") and name not in value]
        if missing:
            raise FormatError(f"{where} is missing fields {missing!r}")
        for key, item in value.items():
            _check(item, fields[key], f"{where}.{key}")
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise FormatError(f"{where} must be a JSON array, got {value!r}")
        if len(schema) > 1 and len(value) != len(schema):
            raise FormatError(f"{where} must have {len(schema)} entries, got {value!r}")
        items = schema * len(value) if len(schema) == 1 else schema
        for i, (entry, item) in enumerate(zip(value, items)):
            _check(entry, item, f"{where}[{i}]")
    elif isinstance(schema, (type, tuple)):
        if isinstance(value, bool) != (schema is bool) or not isinstance(value, schema):
            raise FormatError(f"{where} has the wrong JSON type: {value!r}")
    else:
        schema(value, where)


def _format(value, where: str) -> None:
    # the JSON integer 1, not a value equal to it
    _check(value, int, where)
    if value != 1:
        raise FormatError(f"unsupported document format {value!r}")


def _gate(value, where: str) -> None:
    kind = value.get("type") if isinstance(value, dict) else None
    if not isinstance(kind, str) or kind not in _GATES:
        raise FormatError(f"{where} {value!r} is not a JSON object with a known gate type")
    _check(value, _GATES[kind], f"{where} ({kind} gate)")


def _channels(value, where: str) -> ChannelSequence:
    """Comma-separated channel labels, e.g. ``"A01,s2"``."""
    _check(value, str, where)
    try:
        return tuple(BasisChannelId.from_label(p) for p in value.split(","))
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


_NUMBER = (int, float)
_PAIR = [_NUMBER, _NUMBER]  # a complex number, [re, im]
_GATES = {
    "single": {"type": str, "q": int, "axis": [_NUMBER], "theta": _NUMBER},
    "canonical": {"type": str, "qs": [int], "theta": [_NUMBER], "cut?": bool},
    "raw1q": {"type": str, "q": int, "matrix": [[_PAIR, _PAIR], [_PAIR, _PAIR]]},
}
_CIRCUIT = {"format": _format, "qubits": int, "gates": [_gate]}
_OBSERVABLE = {"format": _format, "terms": [{"coeff": _NUMBER, "pauli": str}]}
_DECOMPOSITION = {
    "terms": [{"c": _PAIR, "left": _channels, "right": _channels}],
    "W": _NUMBER,
    "u?": [_PAIR],
}


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
    _check(doc, _CIRCUIT, "circuit")
    return Circuit(doc["qubits"], tuple(_gate_from_doc(entry) for entry in doc["gates"]))


def _gate_from_doc(entry: dict) -> Gate:
    if entry["type"] == "single":
        return SingleGate(entry["q"], entry["axis"], entry["theta"])
    if entry["type"] == "canonical":
        theta = ThetaVector.coerce(entry["theta"])
        return CanonicalGate(tuple(entry["qs"]), theta, entry.get("cut", False))
    matrix = np.array([[_complex(v, "matrix") for v in row] for row in entry["matrix"]])
    return Raw1QGate(entry["q"], matrix)


def observable_to_doc(observable: Observable) -> dict:
    return {
        "format": 1,
        "terms": [{"coeff": c, "pauli": p} for c, p in observable.terms],
    }


def observable_from_doc(doc: dict) -> Observable:
    _check(doc, _OBSERVABLE, "observable")
    return Observable(tuple((t["coeff"], t["pauli"]) for t in doc["terms"]))


# --- decompositions --------------------------------------------------------


def decomposition_to_doc(
    decomposition: QPDecomposition, u: PauliCoeffs | None = None
) -> dict:
    """Plain-JSON document: numbers become [re, im] pairs, a coefficient's im 0.0."""
    doc: dict = {
        "terms": [
            {
                "c": _pair_doc(term.coefficient),
                "left": ",".join(cid.name for cid in term.left),
                "right": ",".join(cid.name for cid in term.right),
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
    _check(doc, _DECOMPOSITION, "decomposition")
    terms = tuple(_term_from_doc(entry) for entry in doc["terms"])
    u = None
    if "u" in doc:
        u = PauliCoeffs(np.array([_complex(v, "u") for v in doc["u"]]))
    return QPDecomposition(terms, doc["W"]), u


def _term_from_doc(entry: dict) -> QPTerm:
    c = _complex(entry["c"], "c")
    if c.imag != 0.0:
        raise ValueError(f"c must be real, got imaginary part {c.imag}")
    return QPTerm(c.real, _channels(entry["left"], "left"), _channels(entry["right"], "right"))


def _complex(pair: list, field: str) -> complex:
    """A complex number from its checked ``[re, im]`` pair of JSON numbers."""
    return complex(finite_real(pair[0], field), finite_real(pair[1], field))


def _pair_doc(value) -> list[float]:
    """The ``[re, im]`` pair that ``_complex`` reads back."""
    c = complex(value)
    return [c.real, c.imag]
