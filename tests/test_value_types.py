"""One rule for the package's dataclasses: frozen, data set once, comparable.

Derived data such as a gate's matrix is a declared field built in
``__post_init__``; a class that holds an array in a compared field compares
by identity (``eq=False``), since numpy's elementwise ``==`` has no truth
value. Every public value type therefore supports ``==`` and ``hash``.
"""

import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np

import quasicut
from quasicut.algebra import QuantumState
from quasicut.canonical import PauliCoeffs, ThetaVector
from quasicut.circuit import CanonicalGate, Circuit, Observable, Raw1QGate, SingleGate, statevector
from quasicut.decomposition import QPDecomposition, QPTerm
from quasicut.local_basis import a_channel, pauli_channel

Y_AXIS = (0.0, 1.0, 0.0)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def package_dataclasses():
    for info in pkgutil.iter_modules(quasicut.__path__):
        module = importlib.import_module(f"quasicut.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                yield cls


def test_every_dataclass_is_frozen_and_compares_no_array():
    classes = list(package_dataclasses())
    assert {SingleGate, Observable, QuantumState, QPDecomposition} <= set(classes)
    for cls in classes:
        params = cls.__dataclass_params__
        assert params.frozen, cls.__name__
        if params.eq:
            compared = [
                f.name for f in dataclasses.fields(cls) if f.compare and "ndarray" in str(f.type)
            ]
            assert not compared, (cls.__name__, compared)


def module_arrays():
    """(name, array) for every numpy array bound at module level in the package.

    An array counts alone or as an item of a tuple, list or dict value.
    """
    modules = [quasicut] + [
        importlib.import_module(f"quasicut.{info.name}")
        for info in pkgutil.iter_modules(quasicut.__path__)
    ]
    for module in modules:
        for name, value in vars(module).items():
            if isinstance(value, dict):
                items = value.values()
            elif isinstance(value, (tuple, list)):
                items = value
            else:
                items = (value,)
            for item in items:
                if isinstance(item, np.ndarray):
                    yield f"{module.__name__}.{name}", item


def test_every_module_array_is_read_only():
    """A module-level array is shared by every call, so no caller may write to it."""
    arrays = list(module_arrays())
    names = {name for name, _ in arrays}
    assert {"quasicut.algebra.PAULIS", "quasicut.local_basis.KRAUS"} <= names
    writable = sorted({name for name, array in arrays if array.flags.writeable})
    assert not writable


def test_no_field_is_complex():
    """Coefficients, weights and shot signs are real numbers, so no field is complex."""
    fields = [
        f"{cls.__name__}.{f.name}"
        for cls in package_dataclasses()
        for f in dataclasses.fields(cls)
        if "complex" in str(f.type)
    ]
    assert not fields


def gates():
    return (
        SingleGate(0, Y_AXIS, 0.3),
        CanonicalGate((0, 1), ThetaVector(0.3, 0.2, 0.1), cut=True),
        Raw1QGate(1, HADAMARD),
    )


# one factory per public frozen type; each call builds a new, equal-valued instance
VALUES = {
    "SingleGate": lambda: gates()[0],
    "CanonicalGate": lambda: gates()[1],
    "Raw1QGate": lambda: gates()[2],
    "Circuit": lambda: Circuit(2, gates()),
    "Observable": lambda: Observable(((0.5, "XZ"), (-1.0, "ZI"))),
    "QuantumState": lambda: QuantumState.pure(np.array([1.0, 0.0])),
    "PauliCoeffs": lambda: PauliCoeffs([1.0, 0.0, 0.0, 0.0]),
    "QPTerm": lambda: QPTerm(0.5, (a_channel(0, 1),), (pauli_channel(2),)),
    "QPDecomposition": lambda: QPDecomposition(
        (QPTerm(1.0, (pauli_channel(0),), (pauli_channel(0),)),), 1.0
    ),
}

# these hold an array in a compared field (or a value that does): identity
BY_IDENTITY = {"Raw1QGate", "Circuit", "QuantumState", "PauliCoeffs"}


def test_equality_and_hash_never_raise():
    for name, build in VALUES.items():
        first, second = build(), build()
        assert first == first and hash(first) == hash(first), name
        # a circuit with a raw gate compares that gate, and so itself, by identity
        assert (first == second) is (name not in BY_IDENTITY), name
        if first == second:
            assert hash(first) == hash(second), name


def test_sequence_fields_are_their_own_tuples():
    """A list or generator argument is stored as a tuple: later changes to it cannot leak in."""
    cases = (
        ("gates", lambda seq: Circuit(2, seq), list(gates())),
        ("terms", Observable, [(0.5, "XZ"), (-1.0, "ZI")]),
        ("left", lambda seq: QPTerm(0.5, seq, (pauli_channel(2),)), [a_channel(0, 1)]),
        ("terms", lambda seq: QPDecomposition(seq, 0.5), [VALUES["QPTerm"]()]),
    )
    for field, build, items in cases:
        from_generator = getattr(build(item for item in items), field)
        listed = list(items)
        value = build(listed)
        listed.append(items[0])
        assert getattr(value, field) == from_generator == tuple(items), (field, items)


def test_running_a_gate_leaves_it_unchanged():
    circuit = Circuit(2, gates())
    before = [set(vars(g)) for g in circuit.gates]
    statevector(circuit)
    assert [set(vars(g)) for g in circuit.gates] == before
    for gate in circuit.gates:
        assert not gate.matrix.flags.writeable


def test_no_module_builds_an_instance_past_its_post_init():
    """``object.__new__`` would make a value whose ``__post_init__`` never ran."""
    sources = sorted(Path(quasicut.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    callers = [path.name for path in sources if "__new__" in path.read_text(encoding="utf-8")]
    assert not callers
