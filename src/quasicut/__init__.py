"""Quasiprobability cutting of two-qubit canonical gates into local channels.

A canonical gate exp[i (t1 XX + t2 YY + t3 ZZ)] is written as a signed
mixture of products of 16 locally-implementable single-qubit channels. A
Monte-Carlo sampler draws mixture terms, realizes them with local unitaries,
projective branches, and coin flips, and recovers unbiased observable
estimates at a shot-count overhead of W(U)^2. Exact dense simulation and
Pauli transfer matrices verify every piece; the analysis module surveys W
against a per-factor legacy cost and the gate-based overlap cost G.
"""

from .algebra import PAULIS, QuantumState, ptm_from_action, ptm_of_unitary
from .analysis import SweepRow, compare_costs, find_max_w, rows_to_csv, rows_to_json, sweep
from .canonical import (
    PauliCoeffs,
    ThetaVector,
    canonical_unitary,
    pauli_coefficients,
)
from .circuit import (
    CanonicalGate,
    Circuit,
    Observable,
    Raw1QGate,
    SingleGate,
    exact_expectation,
    gate_based_cost,
    gate_based_estimate,
)
from .decomposition import (
    QPDecomposition,
    QPTerm,
    compose,
    decompose,
    legacy_decompose,
    reconstruct_ptm,
    weight_formula,
)
from .documents import (
    FormatError,
    circuit_from_doc,
    circuit_to_doc,
    decomposition_from_doc,
    decomposition_to_doc,
    observable_from_doc,
    observable_to_doc,
)
from .local_basis import (
    ALL_CHANNELS,
    BasisChannelId,
    ChannelKind,
    RealizationOutcome,
    a_channel,
    b_channel,
    basis_ptm,
    pauli_channel,
    realize,
)
from .sampler import (
    EstimatorConfig,
    EstimatorResult,
    MeasureMode,
    ShotRecord,
    ShotStream,
    estimate,
    plan_shots,
    run_shot,
)

__all__ = [
    "ALL_CHANNELS",
    "BasisChannelId",
    "CanonicalGate",
    "ChannelKind",
    "Circuit",
    "EstimatorConfig",
    "EstimatorResult",
    "FormatError",
    "MeasureMode",
    "Observable",
    "PAULIS",
    "PauliCoeffs",
    "QPDecomposition",
    "QPTerm",
    "QuantumState",
    "Raw1QGate",
    "RealizationOutcome",
    "ShotRecord",
    "ShotStream",
    "SingleGate",
    "SweepRow",
    "ThetaVector",
    "a_channel",
    "b_channel",
    "basis_ptm",
    "canonical_unitary",
    "circuit_from_doc",
    "circuit_to_doc",
    "compare_costs",
    "compose",
    "decompose",
    "decomposition_from_doc",
    "decomposition_to_doc",
    "estimate",
    "exact_expectation",
    "find_max_w",
    "gate_based_cost",
    "gate_based_estimate",
    "legacy_decompose",
    "observable_from_doc",
    "observable_to_doc",
    "pauli_channel",
    "pauli_coefficients",
    "plan_shots",
    "ptm_from_action",
    "ptm_of_unitary",
    "realize",
    "reconstruct_ptm",
    "rows_to_csv",
    "rows_to_json",
    "run_shot",
    "sweep",
    "weight_formula",
]

__version__ = "0.1.0"
