"""Command-line interface.

Subcommands:

    decompose T1 T2 T3      emit the local-channel decomposition as JSON
    verify T1 T2 T3         check the reconstruction against the exact PTM
    estimate                Monte-Carlo estimate for a circuit + observable
    plan EPS DELTA OMAX W   print the Hoeffding shot count
    sweep M                 cost survey on an M^3 tetrahedron lattice
    compare T1 T2 T3        one cost row at a single point

Angles are radians. Exit codes: 0 success, 1 verification failure, 2 malformed
input (bad flags, unparsable documents, values of the wrong JSON type), 3
semantically invalid input (bad qubit indices, non-unit axes, NaN or infinite
parameters, mismatched widths, more shots than ``sampler.MAX_SHOTS``). The estimate seed defaults
to 0, can be set with --seed, or with the QUASICUT_SEED environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .algebra import ptm_of_unitary
from .analysis import compare_costs, rows_to_csv, rows_to_json, sweep
from .canonical import ThetaVector, canonical_unitary, pauli_coefficients
from .circuit import FormatError, circuit_from_doc, exact_expectation, observable_from_doc
from .decomposition import (
    decompose,
    decomposition_from_doc,
    decomposition_to_doc,
    reconstruct_ptm,
)
from .sampler import EstimatorConfig, MeasureMode, estimate, plan_shots

VERIFY_THRESHOLD = 1e-9


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasicut",
        description="Cut two-qubit canonical gates into sampled local channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="emit the decomposition of one gate")
    _add_theta(p_dec)
    p_dec.add_argument("--output", help="write JSON here instead of stdout")
    p_dec.set_defaults(func=cmd_decompose)

    p_ver = sub.add_parser("verify", help="compare reconstruction to the exact PTM")
    _add_theta(p_ver)
    p_ver.add_argument("--from-file", dest="from_file", help="verify a stored decomposition")
    p_ver.set_defaults(func=cmd_verify)

    p_est = sub.add_parser("estimate", help="Monte-Carlo observable estimate")
    p_est.add_argument("--circuit", required=True, help="circuit JSON file")
    p_est.add_argument("--observable", required=True, help="observable JSON file")
    p_est.add_argument("--shots", type=int, default=None)
    p_est.add_argument("--epsilon", type=float, default=None)
    p_est.add_argument("--delta", type=float, default=None)
    p_est.add_argument("--seed", type=int, default=None)
    p_est.add_argument("--mode", choices=["exact", "sample"], default="exact")
    p_est.add_argument("--output", help="write JSON here instead of stdout")
    p_est.set_defaults(func=cmd_estimate)

    p_plan = sub.add_parser("plan", help="Hoeffding shot count")
    p_plan.add_argument("epsilon", type=float)
    p_plan.add_argument("delta", type=float)
    p_plan.add_argument("o_max", type=float)
    p_plan.add_argument("w", type=float)
    p_plan.set_defaults(func=cmd_plan)

    p_sweep = sub.add_parser("sweep", help="cost survey over the tetrahedron")
    p_sweep.add_argument("points", type=int, help="lattice points per axis")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("--output", help="write here instead of stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="cost row at one point")
    _add_theta(p_cmp)
    p_cmp.add_argument("--format", choices=["csv", "json"], default="csv")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def _add_theta(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("theta1", type=float)
    parser.add_argument("theta2", type=float)
    parser.add_argument("theta3", type=float)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _theta_of(args: argparse.Namespace) -> ThetaVector:
    return ThetaVector(args.theta1, args.theta2, args.theta3)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_decompose(args: argparse.Namespace) -> int:
    u = pauli_coefficients(_theta_of(args))
    doc = decomposition_to_doc(decompose(u), u)
    _emit(_json_text(doc), args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    theta = _theta_of(args)
    if args.from_file:
        with open(args.from_file, encoding="utf-8") as handle:
            decomposition, _ = decomposition_from_doc(json.load(handle))
    else:
        decomposition = decompose(pauli_coefficients(theta))
    target = ptm_of_unitary(canonical_unitary(theta), 2)
    deviation = float(np.max(np.abs(reconstruct_ptm(decomposition) - target)))
    ok = deviation < VERIFY_THRESHOLD
    _emit(
        _json_text(
            {"max_abs_deviation": deviation, "threshold": VERIFY_THRESHOLD, "ok": ok}
        ),
        None,
    )
    return 0 if ok else 1


def cmd_estimate(args: argparse.Namespace) -> int:
    with open(args.circuit, encoding="utf-8") as handle:
        circuit = circuit_from_doc(json.load(handle))
    with open(args.observable, encoding="utf-8") as handle:
        observable = observable_from_doc(json.load(handle))
    seed = args.seed
    if seed is None:
        text = os.environ.get("QUASICUT_SEED", "0")
        try:
            seed = int(text)
        except ValueError as exc:
            raise FormatError(f"QUASICUT_SEED must be an integer, got {text!r}") from exc
    mode = MeasureMode.EXACT_TRACE if args.mode == "exact" else MeasureMode.EIGENVALUE_SAMPLE
    config = EstimatorConfig(
        shots=args.shots, epsilon=args.epsilon, delta=args.delta, seed=seed, mode=mode
    )
    result = estimate(circuit, observable, config)
    doc = result.to_doc()
    doc["exact"] = exact_expectation(circuit, observable)
    _emit(_json_text(doc), args.output)
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    print(plan_shots(args.epsilon, args.delta, args.o_max, args.w))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = sweep(args.points)
    if args.format == "csv":
        _emit(rows_to_csv(rows), args.output)
    else:
        _emit(_json_text(rows_to_json(rows)), args.output)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    row = compare_costs(_theta_of(args))
    if args.format == "csv":
        _emit(rows_to_csv([row]), None)
    else:
        _emit(_json_text(row.to_dict()), None)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
