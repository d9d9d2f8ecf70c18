"""End-to-end CLI behavior through main(), including exit codes."""

import json
import subprocess
import sys
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
    # a decomposition with no terms is invalid, not malformed
    write_json(stored, {"terms": [], "W": 1.0})
    code, out, err = run_cli(
        capsys, "verify", "0.5", "0.3", "0.1", "--from-file", str(stored)
    )
    assert code == 3 and out == "" and "at least one term" in err


def test_verify_rejects_a_complex_coefficient(tmp_path, capsys):
    stored = tmp_path / "d.json"
    main(["decompose", "0.3", "0.2", "0.1", "--output", str(stored)])
    capsys.readouterr()
    doc = json.loads(stored.read_text(encoding="utf-8"))
    doc["terms"][0]["c"][1] = 0.5
    write_json(stored, doc)
    code, out, err = run_cli(
        capsys, "verify", "0.3", "0.2", "0.1", "--from-file", str(stored)
    )
    assert code == 3 and out == "" and "real" in err


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
    code, _, err = run_cli(capsys, "plan", "inf", "0.05", "1.0", "1.0")
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
    # an infinite epsilon used to plan one shot
    code, out, err = run_cli(
        capsys,
        "estimate",
        "--circuit", circuit,
        "--observable", observable,
        "--epsilon", "inf",
        "--delta", "0.5",
    )
    assert code == 3 and out == "" and "epsilon" in err


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

    # a misspelt "cut" is an unknown field, not an uncut gate
    typo = json.loads(json.dumps(CIRCUIT_DOC))
    typo["gates"][-1]["cutt"] = typo["gates"][-1].pop("cut")
    misspelt = write_json(tmp_path / "m.json", typo)
    code, out, err = run_cli(
        capsys, "estimate", "--circuit", misspelt, "--observable", observable,
        "--shots", "10",
    )
    assert code == 2 and out == "" and "cutt" in err

    # "format" is the integer 1 and "gates" an array: this is not an empty circuit
    not_a_circuit = write_json(
        tmp_path / "e.json", {"format": True, "qubits": 2, "gates": ""}
    )
    code, out, _ = run_cli(
        capsys, "estimate", "--circuit", not_a_circuit, "--observable", observable,
        "--shots", "10",
    )
    assert code == 2 and out == ""

    # no "theta": malformed, although the NaN axis is invalid too
    no_theta = write_json(
        tmp_path / "n.json",
        {"format": 1, "qubits": 2, "gates": [
            {"type": "single", "q": 0, "axis": [float("nan"), 0.0, 0.0]}]},
    )
    code, out, _ = run_cli(
        capsys, "estimate", "--circuit", no_theta, "--observable", observable,
        "--shots", "10",
    )
    assert code == 2 and out == ""

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


OVERFLOWING_OBSERVABLES = {
    "o_max overflows": [{"coeff": 1e308, "pauli": "ZZ"}, {"coeff": 1e308, "pauli": "ZI"}],
    "squares overflow": [{"coeff": 1e200, "pauli": "ZZ"}],
}


@pytest.mark.parametrize(
    "terms", OVERFLOWING_OBSERVABLES.values(), ids=OVERFLOWING_OBSERVABLES.keys()
)
def test_estimate_rejects_an_observable_whose_statistics_overflow(tmp_path, capsys, terms):
    """Shot values whose sum or squares overflow exit 3 before sampling, printing nothing."""
    circuit = write_json(tmp_path / "c.json", CIRCUIT_DOC)
    observable = write_json(tmp_path / "o.json", {"format": 1, "terms": terms})
    code, out, err = run_cli(
        capsys, "estimate", "--circuit", circuit, "--observable", observable, "--shots", "10"
    )
    assert code == 3 and out == "" and "o_max" in err


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
    for doc in (
        {"W": 1.0},
        {"terms": [{"c": [1.0, 0.0], "left": "s0", "right": "s0"}], "W": "1"},
        # no "W": malformed, although the zero coefficient is invalid too
        {"terms": [{"c": [0.0, 0.0], "left": "s0", "right": "s0"}]},
        # the second term has no "right": malformed, although the first is invalid
        {"terms": [
            {"c": [0.0, 0.0], "left": "s0", "right": "s0"},
            {"c": [1.0, 0.0], "left": "s0"},
        ], "W": 1.0},
    ):
        stored = write_json(tmp_path / "d.json", doc)
        code, _, err = run_cli(capsys, "verify", "0.1", "0", "0", "--from-file", stored)
        assert code == 2 and err.startswith("error:")


def test_a_repeated_key_exits_2(tmp_path, capsys):
    """A key twice in one object is malformed, not last-one-wins, at any level."""
    observable = write_json(tmp_path / "o.json", OBSERVABLE_DOC)
    text = json.dumps(CIRCUIT_DOC).replace('"cut": true', '"cut": true, "cut": false')
    assert text.count('"cut"') == 2
    circuit = tmp_path / "c.json"
    circuit.write_text(text, encoding="utf-8")
    code, out, err = run_cli(
        capsys, "estimate", "--circuit", str(circuit), "--observable", observable,
        "--shots", "10",
    )
    assert code == 2 and out == "" and "'cut'" in err

    terms = '[{"c": [1.0, 0.0], "left": "s0", "right": "s0"}]'
    stored = tmp_path / "d.json"
    stored.write_text(f'{{"terms": [], "terms": {terms}, "W": 1.0}}', encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "0", "0", "0", "--from-file", str(stored))
    assert code == 2 and out == "" and "'terms'" in err


def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    """A UTF-16 file (bytes ff fe first) cannot be read as JSON text: malformed, not invalid."""
    observable = write_json(tmp_path / "o.json", OBSERVABLE_DOC)
    circuit = tmp_path / "c.json"
    circuit.write_bytes(b"\xff\xfe" + json.dumps(CIRCUIT_DOC).encode("utf-16-le"))
    code, out, err = run_cli(
        capsys, "estimate", "--circuit", str(circuit), "--observable", observable,
        "--shots", "10",
    )
    assert code == 2 and out == "" and "UTF-8" in err

    stored = tmp_path / "d.json"
    stored.write_bytes(b"\xff\xfe" + b'{"terms": [], "W": 1.0}')
    code, out, err = run_cli(capsys, "verify", "0", "0", "0", "--from-file", str(stored))
    assert code == 2 and out == "" and "UTF-8" in err


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    """JSON nested deeper than the decoder can recurse is malformed, in every input file."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 10**5 + "]" * 10**5, encoding="utf-8")
    circuit = write_json(tmp_path / "c.json", CIRCUIT_DOC)
    observable = write_json(tmp_path / "o.json", OBSERVABLE_DOC)
    for argv in (
        ("estimate", "--circuit", str(deep), "--observable", observable, "--shots", "10"),
        ("estimate", "--circuit", circuit, "--observable", str(deep), "--shots", "10"),
        ("verify", "0", "0", "0", "--from-file", str(deep)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "too deeply" in err


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


def test_sweep_over_the_row_limit_exits_3_at_once(capsys):
    # 1000 points per axis would be 1.67e8 rows: hours and tens of GB
    code, out, err = run_cli(capsys, "sweep", "1000")
    assert code == 3 and out == "" and "limit" in err


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


@pytest.mark.parametrize(
    "theta", [("0.3", "0.2", "0.1"), ("0.7", "0.5", "0.2"), ("0.785", "0.6336", "0.4282")]
)
def test_compare_and_decompose_print_the_same_w(capsys, theta):
    """Both commands read W from one running one-norm, so they print one float."""
    _, compared, _ = run_cli(capsys, "compare", *theta, "--format", "json")
    _, decomposed, _ = run_cli(capsys, "decompose", *theta)
    assert json.loads(compared)["W"] == json.loads(decomposed)["W"]


def test_domain_violation_is_semantic_error(capsys):
    code, _, err = run_cli(capsys, "decompose", "nan", "0", "0")
    assert code == 3 and "error" in err


# Runs in a fresh interpreter: imports the package and the CLI, runs each
# command once and find_max_w, and reports the exit codes and whether scipy
# got loaded.
_IMPORT_GRAPH_SCRIPT = """
import contextlib, io, json, sys
import quasicut
from quasicut import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
quasicut.find_max_w()
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules}))
"""


def test_no_command_imports_scipy(tmp_path):
    """numpy is the only runtime dependency: no command, nor find_max_w, loads scipy."""
    circuit = write_json(tmp_path / "circuit.json", CIRCUIT_DOC)
    observable = write_json(tmp_path / "observable.json", OBSERVABLE_DOC)
    commands = [
        ["decompose", PI_4, "0", "0"],
        ["verify", "0.3", "0.2", "0.1"],
        ["plan", "0.1", "0.01", "1", "3"],
        ["compare", "0.3", "0.2", "0.1"],
        ["sweep", "2"],
        ["estimate", "--circuit", circuit, "--observable", observable, "--shots", "100"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GRAPH_SCRIPT, json.dumps(commands)],
        capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0] * len(commands), "scipy": False}
