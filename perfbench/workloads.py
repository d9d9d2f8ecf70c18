"""Seeded workload generators for the quasicut benchmark.

A ``CutSpec`` names the shape of a circuit-cutting workload: width, number of
brickwork layers, where the cut gates sit, their interaction angles and the
observable's term magnitudes. ``cut_documents`` turns a spec and a seed into
the plain circuit and observable documents that both the API calls and the
``quasicut estimate`` CLI runs read, so the program only ever sees generated
inputs.

What the seed does and does not move matters for run-to-run stability: the
seed picks every uncut rotation and canonical gate, the observable's Pauli
strings and signs, and the verification points. The cut angles and the
observable's term magnitudes are fixed by the spec, so ``W_total`` and
``o_max`` (and with them the shot count ``plan_shots`` gives for a fixed
epsilon) are the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np


@dataclass(frozen=True)
class CutSpec:
    """Shape of one circuit-cutting workload.

    ``cuts`` lists (brickwork layer, qubit pair) positions. ``shots_per_call``
    sizes the timed fixed-shot ``estimate`` calls, about 40 ms each at the
    seed commit on 2 cores, so a run makes over 100 of them. ``epsilon`` is
    the accuracy target of the time-to-accuracy calls, at ``DELTA``, chosen
    so that one such call takes about 100 ms there.
    """

    name: str
    width: int
    layers: int
    cuts: tuple[tuple[int, tuple[int, int]], ...]
    cut_theta: tuple[float, float, float]
    term_weights: tuple[float, ...]
    mode: str
    shots_per_call: int
    cli_shots: int
    epsilon: float
    trace_calls: int


@dataclass(frozen=True)
class VerifySpec:
    """Shape of the verification workload (no ``estimate`` calls)."""

    name: str
    points: int
    sweep_points: int
    trace_points: int
    trace_rounds: int


# Failure probability of the time-to-accuracy calls. Hoeffding is loose, so
# at 1e-6 a false failure is out of reach for every run the benchmark makes.
DELTA = 1e-6

CUT_SPECS = {
    spec.name: spec
    for spec in (
        CutSpec(
            name="cut2q_exact",
            width=2,
            layers=3,
            cuts=((1, (0, 1)),),
            cut_theta=(0.55, 0.3, 0.12),
            term_weights=(0.5, 0.3, 0.2),
            mode="exact",
            shots_per_call=1000,
            cli_shots=2000,
            epsilon=0.7,
            trace_calls=8,
        ),
        CutSpec(
            name="cut6q_exact",
            width=6,
            layers=4,
            cuts=((2, (2, 3)),),
            cut_theta=(0.4, 0.2, 0.1),
            term_weights=(0.4, 0.3, 0.2, 0.1),
            mode="exact",
            shots_per_call=128,
            cli_shots=300,
            epsilon=1.4,
            trace_calls=8,
        ),
        CutSpec(
            name="cut10q_sample",
            width=10,
            layers=4,
            cuts=((0, (4, 5)), (2, (4, 5))),
            cut_theta=(0.12, 0.06, 0.02),
            term_weights=(0.4, 0.3, 0.2, 0.1),
            mode="sample",
            shots_per_call=32,
            cli_shots=100,
            epsilon=2.0,
            trace_calls=12,
        ),
    )
}

VERIFY_SPEC = VerifySpec(
    name="verify_survey", points=512, sweep_points=21, trace_points=40, trace_rounds=200
)

WORKLOADS = tuple(CUT_SPECS) + (VERIFY_SPEC.name,)


def layer_pairs(width: int, layer: int) -> list[tuple[int, int]]:
    """Qubit pairs of one brickwork layer; on two qubits every layer has (0, 1)."""
    if width == 2:
        return [(0, 1)]
    return [(a, a + 1) for a in range(layer % 2, width - 1, 2)]


def _unit_axis(rng: np.random.Generator) -> list[float]:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return [float(x) for x in v]


def cut_documents(spec: CutSpec, seed: int) -> tuple[dict, dict]:
    """The circuit and observable documents of ``spec`` for ``seed``.

    Raises ValueError when a cut position names no gate of its layer, or when
    the built circuit does not carry exactly ``len(spec.cuts)`` cuts.
    """
    for layer, pair in spec.cuts:
        if not 0 <= layer < spec.layers or pair not in layer_pairs(spec.width, layer):
            raise ValueError(f"{spec.name}: no gate on {pair} in layer {layer}")
    rng = np.random.default_rng([seed, spec.width])
    gates: list[dict] = []
    for layer in range(spec.layers):
        for q in range(spec.width):
            gates.append(
                {
                    "type": "single",
                    "q": q,
                    "axis": _unit_axis(rng),
                    "theta": float(rng.uniform(0.0, pi)),
                }
            )
        for pair in layer_pairs(spec.width, layer):
            cut = (layer, pair) in spec.cuts
            theta = list(spec.cut_theta) if cut else [float(t) for t in rng.uniform(0, pi / 4, 3)]
            gates.append({"type": "canonical", "qs": list(pair), "theta": theta, "cut": cut})
    made = sum(1 for g in gates if g.get("cut"))
    if made != len(spec.cuts):
        raise ValueError(f"{spec.name}: built {made} cuts, spec names {len(spec.cuts)}")

    terms: list[dict] = []
    seen: set[str] = set()
    while len(terms) < len(spec.term_weights):
        size = int(rng.integers(1, min(3, spec.width) + 1))
        support = rng.choice(spec.width, size=size, replace=False)
        chars = ["I"] * spec.width
        for q in support:
            chars[int(q)] = "XYZ"[int(rng.integers(3))]
        pauli = "".join(chars)
        if pauli in seen:
            continue
        seen.add(pauli)
        weight = spec.term_weights[len(terms)]
        sign = 1.0 if rng.random() < 0.5 else -1.0
        terms.append({"coeff": sign * weight, "pauli": pauli})
    circuit = {"format": 1, "qubits": spec.width, "gates": gates}
    observable = {"format": 1, "terms": terms}
    return circuit, observable


def tetrahedron_points(count: int, seed: int) -> list[list[float]]:
    """Seeded points of the Weyl tetrahedron pi/4 >= t1 >= t2 >= t3 >= 0."""
    rng = np.random.default_rng([seed, 7])
    raw = np.sort(rng.uniform(0.0, pi / 4, size=(count, 3)), axis=1)[:, ::-1]
    return [[float(t) for t in row] for row in raw]
