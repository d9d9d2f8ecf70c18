"""End-to-end CLI behavior through main(), including exit codes."""

import json
import tracemalloc

import pytest

from quasicut.cli import main
from quasicut.sampler import MAX_SHOTS

PI_4 = "0.7853981633974483"

CIRCUIT_DOC = {
    "format": 1,
    "qubits": 2,
    "gates": [
        {"type": "single", "q": 0, "axis": [0.0, 1.0, 0.0], "theta": 0.3},
        {"type": "canonical", "qs": [0, 1], "theta": [0.7853981633974483, 0.0, 0.0], "cut": True},
    ],
}

OBSERVABLE_DOC = {"format": 1, "terms": [{"coeff": 1.0, "pauli": "ZZ"}]}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_emits_terms_and_weight(capsys):
    code, out, _ = run_cli(capsys, "decompose", PI_4, "0", "0")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["W"] - 3.0) < 1e-12
    labels = {(t["left"], t["right"]) for t in doc["terms"]}
    assert ("A01", "B01") in labels and ("s0", "s0") in labels
    assert len(doc["u"]) == 4


def test_decompose_writes_file(tmp_path, capsys):
    target = tmp_path / "d.json"
    code, out, _ = run_cli(capsys, "decompose", "0.3", "0.2", "0.1", "--output", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["W"] > 1.0


def test_verify_accepts_own_decomposition(capsys):
    code, out, _ = run_cli(capsys, "verify", "0.3", "0.2", "0.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["max_abs_deviation"] < doc["threshold"] == 1e-9


def test_verify_roundtrips_saved_file(tmp_path, capsys):
    stored = tmp_path / "d.json"
    assert main(["decompose", "0.3", "0.2", "0.1", "--output", str(stored)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(
        capsys, "verify", "0.3", "0.2", "0.1", "--from-file", str(stored)
    )
    assert code == 0 and json.loads(out)["ok"] is True


def test_verify_flags_tampered_decomposition(tmp_path, capsys):
    stored = tmp_path / "d.json"
    main(["decompose", "0.3", "0.2", "0.1", "--output", str(stored)])
    capsys.readouterr()
    doc = json.loads(stored.read_text(encoding="utf-8"))
    doc["terms"][0]["c"][0] += 0.05
    doc["W"] += 0.05  # still the one-norm, so the PTM check is what fails
    write_json(stored, doc)
    code, out, _ = run_cli(
        capsys, "verify", "0.3", "0.2", "0.1", "--from-file", str(stored)
    )
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_verify_rejects_a_weight_that_is_not_the_one_norm(tmp_path, capsys):
    stored = tmp_path / "d.json"
    main(["decompose", "0.5", "0.3", "0.1", "--output", str(stored)])
    capsys.readouterr()
    doc = json.loads(stored.read_text(encoding="utf-8"))
    doc["W"] = 1.0
    write_json(stored, doc)
    code, out, err = run_cli(
        capsys, "verify", "0.5", "0.3", "0.1", "--from-file", str(stored)
    )
    assert code == 3 and out == "" and "one-norm" in err


def test_plan_frozen_shot_counts(capsys):
    code, out, _ = run_cli(capsys, "plan", "1.0", "0.2706705664732254", "1.0", "1.0")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run_cli(capsys, "plan", "0.01", "0.05", "1.0", "7.0")
    assert code == 0 and out.strip() == "3615102"


def test_plan_rejects_bad_arguments(capsys):
    code, _, err = run_cli(capsys, "plan", "0.0", "0.05", "1.0", "1.0")
    assert code == 3 and "epsilon" in err
    code, _, err = run_cli(capsys, "plan", "1e-300", "0.05", "1.0", "1.0")  # float overflow
    assert code == 3 and "epsilon" in err
    code, _, err = run_cli(capsys, "plan", "0.1", "0.05", "inf", "1")
    assert code == 3 and "o_max" in err
    code, _, err = run_cli(capsys, "plan", "0.1", "0.05", "1", "inf")
    assert code == 3 and "w_total" in err


def test_estimate_runs_and_reports(tmp_path, capsys):
    circuit = write_json(tmp_path / "c.json", CIRCUIT_DOC)
    observable = write_json(tmp_path / "o.json", OBSERVABLE_DOC)
    code, out, _ = run_cli(
        capsys,
        "estimate",
        "--circuit", circuit,
        "--observable", observable,
        "--shots", "4000",
        "--seed", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"mean", "std_error", "shots", "W_total", "o_max", "seed", "exact"}
    assert doc["shots"] == 4000 and doc["seed"] == 3
    assert doc["W_total"] == 3.0
    assert abs(doc["mean"] - doc["exact"]) < 5.0 * max(doc["std_error"], 1e-4)


def test_estimate_output_is_deterministic(tmp_path, capsys):
    circuit = write_json(tmp_path / "c.json", CIRCUIT_DOC)
    observable = write_json(tmp_path / "o.json", OBSERVABLE_DOC)
    argv = [
        "estimate",
        "--circuit", circuit,
        "--observable", observable,
        "--shots", "2000",
        "--mode", "sample",
    ]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second == (0, first[1], "")


def test_estimate_seed_from_environment(tmp_path, capsys, monkeypatch):
    circuit = write_json(tmp_path / "c.json", CIRCUIT_DOC)
    observable = write_json(tmp_path / "o.json", OBSERVABLE_DOC)
    argv = ["estimate", "--circuit", circuit, "--observable", observable, "--shots", "500"]
    monkeypatch.setenv("QUASICUT_SEED", "41")
    env_doc = json.loads(run_cli(capsys, *argv)[1])
    assert env_doc["seed"] == 41
    # an explicit flag wins over the environment
    flag_doc = json.loads(run_cli(capsys, *argv, "--seed", "2")[1])
    assert flag_doc["seed"] == 2


def test_estimate_malformed_seed_environment_exits_2(tmp_path, capsys, monkeypatch):
    circuit = write_json(tmp_path / "c.json", CIRCUIT_DOC)
    observable = write_json(tmp_path / "o.json", OBSERVABLE_DOC)
    monkeypatch.setenv("QUASICUT_SEED", "abc")
    code, _, err = run_cli(
        capsys, "estimate", "--circuit", circuit, "--observable", observable, "--shots", "10"
    )
    assert code == 2 and "QUASICUT_SEED" in err


def test_estimate_accuracy_target(tmp_path, capsys):
    circuit = write_json(tmp_path / "c.json", CIRCUIT_DOC)
    observable = write_json(tmp_path / "o.json", OBSERVABLE_DOC)
    code, out, _ = run_cli(
        capsys,
        "estimate",
        "--circuit", circuit,
        "--observable", observable,
        "--epsilon", "0.5",
        "--delta", "0.5",
    )
    assert code == 0
    assert json.loads(out)["shots"] == 100


def test_estimate_exit_codes(tmp_path, capsys):
    observable = write_json(tmp_path / "o.json", OBSERVABLE_DOC)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "estimate", "--circuit", str(broken), "--observable", observable,
        "--shots", "10",
    )
    assert code == 2 and err.startswith("error:")

    unknown = write_json(
        tmp_path / "u.json",
        {"format": 1, "qubits": 2, "gates": [{"type": "warp", "q": 0}]},
    )
    code, _, _ = run_cli(
        capsys, "estimate", "--circuit", unknown, "--observable", observable,
        "--shots", "10",
    )
    assert code == 2

    string_cut = json.loads(json.dumps(CIRCUIT_DOC))
    string_cut["gates"][-1]["cut"] = "false"
    mistyped = write_json(tmp_path / "t.json", string_cut)
    code, _, _ = run_cli(
        capsys, "estimate", "--circuit", mistyped, "--observable", observable,
        "--shots", "10",
    )
    assert code == 2

    bad_qubit = json.loads(json.dumps(CIRCUIT_DOC))
    bad_qubit["gates"][0]["q"] = 9
    semantic = write_json(tmp_path / "s.json", bad_qubit)
    code, _, _ = run_cli(
        capsys, "estimate", "--circuit", semantic, "--observable", observable,
        "--shots", "10",
    )
    assert code == 3

    circuit = write_json(tmp_path / "c.json", CIRCUIT_DOC)
    code, _, _ = run_cli(
        capsys, "estimate", "--circuit", circuit, "--observable", observable,
        "--shots", "10", "--epsilon", "0.1", "--delta", "0.1",
    )
    assert code == 3  # over-specified accuracy target


NON_FINITE_GATES = {
    "theta NaN": {"type": "single", "q": 0, "axis": [0.0, 1.0, 0.0], "theta": float("nan")},
    "theta Infinity": {"type": "single", "q": 0, "axis": [0.0, 1.0, 0.0], "theta": float("inf")},
    "axis NaN": {"type": "single", "q": 0, "axis": [float("nan"), 0.0, 0.0], "theta": 0.3},
    "raw1q NaN": {
        "type": "raw1q",
        "q": 0,
        "matrix": [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    },
}


@pytest.mark.parametrize("gate", NON_FINITE_GATES.values(), ids=NON_FINITE_GATES.keys())
def test_estimate_rejects_non_finite_gate_parameters(tmp_path, capsys, gate):
    """A document with NaN or Infinity (Python's json reads both) exits 3, printing nothing."""
    doc = json.loads(json.dumps(CIRCUIT_DOC))
    doc["gates"][0] = gate
    circuit = write_json(tmp_path / "c.json", doc)
    observable = write_json(tmp_path / "o.json", OBSERVABLE_DOC)
    code, out, err = run_cli(
        capsys, "estimate", "--circuit", circuit, "--observable", observable, "--shots", "10"
    )
    assert code == 3 and out == "" and "finite" in err


@pytest.mark.parametrize(
    "target",
    [
        ("--epsilon", "1e-9", "--delta", "0.05"),  # numpy's dimension limit
        ("--epsilon", "1e-5", "--delta", "0.05"),  # a multi-TiB allocation
        ("--shots", str(MAX_SHOTS + 1)),
    ],
)
def test_estimate_over_the_shot_limit_exits_3(tmp_path, capsys, target):
    circuit = write_json(tmp_path / "c.json", CIRCUIT_DOC)
    observable = write_json(tmp_path / "o.json", OBSERVABLE_DOC)
    tracemalloc.start()
    try:
        code, _, err = run_cli(
            capsys, "estimate", "--circuit", circuit, "--observable", observable, *target
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and f"limit of {MAX_SHOTS}" in err
    assert peak < 10 * 2**20  # failed before allocating the shot values


def test_verify_malformed_decomposition_file_exits_2(tmp_path, capsys):
    for doc in ({"W": 1.0}, {"terms": [{"c": [1.0, 0.0], "left": "s0", "right": "s0"}], "W": "1"}):
        stored = write_json(tmp_path / "d.json", doc)
        code, _, err = run_cli(capsys, "verify", "0.1", "0", "0", "--from-file", stored)
        assert code == 2 and err.startswith("error:")


def test_missing_input_files_exit_2(tmp_path, capsys):
    observable = write_json(tmp_path / "o.json", OBSERVABLE_DOC)
    code, _, err = run_cli(
        capsys, "estimate", "--circuit", str(tmp_path / "absent.json"),
        "--observable", observable, "--shots", "10",
    )
    assert code == 2 and err.startswith("error:")

    code, _, err = run_cli(
        capsys, "verify", "0.3", "0.2", "0.1",
        "--from-file", str(tmp_path / "absent.json"),
    )
    assert code == 2 and err.startswith("error:")


def test_sweep_csv_and_json(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "sweep", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta1,theta2,theta3,W,legacy,G"
    assert len(lines) == 5

    code, out, _ = run_cli(capsys, "sweep", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 10 and rows[0]["W"] == 1.0

    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "sweep", "2", "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8").splitlines()[0].startswith("theta1")


def test_sweep_rejects_tiny_grid(capsys):
    code, _, _ = run_cli(capsys, "sweep", "1")
    assert code == 3


def test_compare_formats(capsys):
    code, out, _ = run_cli(capsys, "compare", PI_4, PI_4, PI_4, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["W"] - 7.0) < 1e-12
    assert abs(doc["legacy"] - 27.0) < 1e-12
    assert abs(doc["G"] - 4.0) < 1e-12

    code, out, _ = run_cli(capsys, "compare", "0", "0", "0")
    assert code == 0
    assert out.splitlines()[0] == "theta1,theta2,theta3,W,legacy,G"


def test_domain_violation_is_semantic_error(capsys):
    code, _, err = run_cli(capsys, "decompose", "nan", "0", "0")
    assert code == 3 and "error" in err
