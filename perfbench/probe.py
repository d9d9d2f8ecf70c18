"""Set-up probes run in a fresh interpreter; each prints elapsed seconds.

    python3 perfbench/probe.py import-cli
    python3 perfbench/probe.py setup-cut CIRCUIT.json OBSERVABLE.json MODE
    python3 perfbench/probe.py setup-verify POINTS.json

``import-cli`` times ``import quasicut.cli``. The ``setup-*`` probes time
what a new process pays before its first useful result: importing the
package, parsing the workload's documents and one small call that fills the
decomposition and sampling-table caches. ``quasicut`` must be importable
(run.py sets PYTHONPATH to the checkout's ``src``).
"""

import sys
import time

# the clock starts before any quasicut import
_START = time.perf_counter()

import json  # noqa: E402


def main(argv: list[str]) -> None:
    kind = argv[0]
    if kind == "import-cli":
        import quasicut.cli  # noqa: F401
    elif kind == "setup-cut":
        import quasicut as qc

        with open(argv[1], encoding="utf-8") as handle:
            circuit = qc.circuit_from_doc(json.load(handle))
        with open(argv[2], encoding="utf-8") as handle:
            observable = qc.observable_from_doc(json.load(handle))
        qc.estimate(circuit, observable, qc.EstimatorConfig(shots=2, mode=qc.MeasureMode(argv[3])))
    elif kind == "setup-verify":
        import quasicut as qc

        with open(argv[1], encoding="utf-8") as handle:
            theta = json.load(handle)[0]
        qc.reconstruct_ptm(qc.decompose(qc.pauli_coefficients(theta)))
        qc.ptm_of_unitary(qc.canonical_unitary(theta), 2)
        state = qc.QuantumState.pure([1.0, 0.0])
        qc.realize(qc.ALL_CHANNELS[-1], state, _Half())
    else:
        raise SystemExit(f"unknown probe {kind!r}")
    print(repr(time.perf_counter() - _START))


class _Half:
    def random(self) -> float:
        return 0.5


if __name__ == "__main__":
    main(sys.argv[1:])
