"""The package names that the benchmark in ``perfbench/`` reads.

The benchmark runs the committed package, so a name it calls, traces or
reads a field of must not disappear in a refactor. Each name below is one
that ``perfbench/`` uses; removing or renaming it fails here, in tier 1,
before a benchmark run fails or a traced layer silently reads zero. A name
that still resolves can still be routed around, so each sampler call site
that the tracer times must also be called by a small ``estimate``, and each
analysis call site by ``compare_costs``, ``sweep`` or ``find_max_w``.
"""

import dataclasses
import importlib
from collections import Counter

import pytest

from quasicut import analysis, sampler
from quasicut.canonical import ThetaVector
from quasicut.circuit import CanonicalGate, Circuit, Observable, SingleGate
from quasicut.sampler import EstimatorConfig, MeasureMode, estimate

BENCHMARK_NAMES = (
    # selftest.py traces this and checks the tracer restores it
    "quasicut.sampler.run_shot",
    # probe.py
    "quasicut.cli",
    "quasicut.circuit_from_doc",
    "quasicut.observable_from_doc",
    "quasicut.EstimatorConfig",
    "quasicut.MeasureMode",
    "quasicut.estimate",
    "quasicut.decompose",
    "quasicut.pauli_coefficients",
    "quasicut.reconstruct_ptm",
    "quasicut.canonical_unitary",
    "quasicut.ptm_of_unitary",
    "quasicut.QuantumState.pure",
    "quasicut.ALL_CHANNELS",
    "quasicut.realize",
    # run.py: calls
    "quasicut.cli.main",
    "quasicut.exact_expectation",
    "quasicut.weight_formula",
    "quasicut.plan_shots",
    "quasicut.legacy_decompose",
    "quasicut.local_basis.channel_action",
    "quasicut.sweep",
    "quasicut.find_max_w",
    "quasicut.Circuit.cut_indices",
    "quasicut.QPDecomposition.num_terms",
    # run.py: fields of the values it checks
    "quasicut.Circuit.gates",
    "quasicut.CanonicalGate.theta",
    "quasicut.Observable.o_max",
    "quasicut.EstimatorResult.mean",
    "quasicut.EstimatorResult.std_error",
    "quasicut.EstimatorResult.shots",
    "quasicut.EstimatorResult.w_total",
    "quasicut.QPDecomposition.weight",
    "quasicut.RealizationOutcome.state",
    "quasicut.RealizationOutcome.weight",
    "quasicut.QuantumState.vector",
    "quasicut.QuantumState.density_matrix",
    "quasicut.ThetaVector.theta1",
    "quasicut.SweepRow.theta1",
    "quasicut.SweepRow.w",
    "quasicut.SweepRow.legacy",
    "quasicut.SweepRow.g",
    # tracing.py: the call sites whose spans feed the per-layer metrics
    "quasicut.sampler.ShotStream.__init__",
    "quasicut.sampler.ShotStream.random",
    "quasicut.sampler.initial_state",
    "quasicut.sampler.apply_gate",
    "quasicut.sampler.observable_expectation",
    "quasicut.sampler.pauli_string_expectation",
    "quasicut.cli.estimate",
    "quasicut.cli.exact_expectation",
    "quasicut.cli.circuit_from_doc",
    "quasicut.cli.observable_from_doc",
    "quasicut.cli.decompose",
    "quasicut.cli.reconstruct_ptm",
    "quasicut.cli.pauli_coefficients",
    "quasicut.cli.canonical_unitary",
    "quasicut.cli.ptm_of_unitary",
    "quasicut.cli.sweep",
    "quasicut.analysis.weight_formula",
    "quasicut.analysis.pauli_coefficients",
    "quasicut.analysis.gate_based_cost",
    "quasicut.decomposition.pauli_coefficients",
    "quasicut.decomposition.basis_ptm",
)


def resolves(dotted: str) -> bool:
    """True iff ``dotted`` names a module, an attribute in one, or a dataclass field."""
    parts = dotted.split(".")
    # the longest prefix that imports is the module; the rest are attributes
    cut = len(parts)
    while True:
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
            break
        except ImportError:
            cut -= 1
    if cut == len(parts):
        return True
    *path, leaf = parts[cut:]
    for name in path:
        owner = getattr(owner, name, None)
    fields = {f.name for f in dataclasses.fields(owner)} if dataclasses.is_dataclass(owner) else ()
    return hasattr(owner, leaf) or leaf in fields


@pytest.mark.parametrize("dotted", BENCHMARK_NAMES)
def test_benchmark_name_resolves(dotted):
    assert resolves(dotted), f"{dotted} is read by perfbench/ but no longer exists"


def test_a_missing_name_does_not_resolve():
    for dotted in (
        "quasicut.no_such_name",
        "quasicut.sampler.no_such_name",
        "quasicut.EstimatorResult.no_such_field",
    ):
        assert not resolves(dotted)


def test_the_sampler_no_longer_decomposes():
    """A cut's table is built from slot rows, so the tracer reports these sites as absent.

    perfbench/tracing.py lists ``quasicut.sampler.decompose`` and
    ``.pauli_coefficients`` as absent call sites rather than timing them.
    """
    assert not resolves("quasicut.sampler.decompose")
    assert not resolves("quasicut.sampler.pauli_coefficients")


# the sampler-namespace call sites that perfbench/tracing.py times, per mode
_TRACED_IN_BOTH = ("initial_state", "apply_gate")
TRACED_SAMPLER_CALLS = {
    MeasureMode.EXACT_TRACE: _TRACED_IN_BOTH + ("observable_expectation",),
    MeasureMode.EIGENVALUE_SAMPLE: _TRACED_IN_BOTH + ("pauli_string_expectation",),
}


@pytest.mark.parametrize("mode", list(MeasureMode))
def test_every_traced_sampler_call_site_is_called(monkeypatch, mode):
    """A name that resolves but that the walk routes around would read 0 in its layer."""
    calls = Counter()
    for name in TRACED_SAMPLER_CALLS[mode]:
        real = getattr(sampler, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(sampler, name, counted)
    y_axis = (0.0, 1.0, 0.0)
    circuit = Circuit(2, (
        SingleGate(0, y_axis, 0.3),
        CanonicalGate((0, 1), ThetaVector(0.4, 0.2, 0.1), cut=True),
        SingleGate(1, y_axis, 0.2),
    ))
    observable = Observable(((1.0, "ZZ"), (0.5, "XI")))
    estimate(circuit, observable, EstimatorConfig(shots=16, seed=1, mode=mode))
    assert {name: calls[name] for name in TRACED_SAMPLER_CALLS[mode] if not calls[name]} == {}


# the analysis-namespace call sites that perfbench/tracing.py times, per entry point
TRACED_ANALYSIS_CALLS = {
    "compare_costs": ("weight_formula", "pauli_coefficients", "gate_based_cost"),
    "sweep": ("weight_formula", "pauli_coefficients", "gate_based_cost"),
    "find_max_w": ("weight_formula", "pauli_coefficients"),
}

ANALYSIS_CALLS = {
    "compare_costs": lambda: analysis.compare_costs((0.3, 0.2, 0.1)),
    "sweep": lambda: analysis.sweep(3),
    "find_max_w": analysis.find_max_w,
}


@pytest.mark.parametrize("entry", list(TRACED_ANALYSIS_CALLS))
def test_every_traced_analysis_call_site_is_called(monkeypatch, entry):
    """A W path that routes around these names would zero verify_survey's traced layers."""
    calls = Counter()
    for name in TRACED_ANALYSIS_CALLS[entry]:
        real = getattr(analysis, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(analysis, name, counted)
    ANALYSIS_CALLS[entry]()
    assert {name: calls[name] for name in TRACED_ANALYSIS_CALLS[entry] if not calls[name]} == {}
