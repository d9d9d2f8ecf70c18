"""Cost surveys over the canonical-gate tetrahedron."""

import json

import numpy as np
import pytest

from quasicut import analysis
from quasicut.analysis import compare_costs, find_max_w, rows_to_csv, rows_to_json, sweep
from quasicut.canonical import ThetaVector

PI = np.pi

VERTEX_COSTS = {
    (0.0, 0.0, 0.0): (1.0, 1.0, 1.0),
    (PI / 4, 0.0, 0.0): (3.0, 3.0, 2.0),
    (PI / 4, PI / 4, 0.0): (7.0, 9.0, 4.0),
    (PI / 4, PI / 4, PI / 4): (7.0, 27.0, 4.0),
}


def test_compare_costs_at_vertices():
    for theta, (w, legacy, g) in VERTEX_COSTS.items():
        row = compare_costs(ThetaVector(*theta))
        assert abs(row.w - w) < 1e-12
        assert abs(row.legacy - legacy) < 1e-12
        assert abs(row.g - g) < 1e-12


def test_sweep_two_points_hits_the_vertices():
    rows = sweep(2)
    assert len(rows) == 4
    got = [(r.theta1, r.theta2, r.theta3) for r in rows]
    assert got == sorted(VERTEX_COSTS)  # lexicographic lattice order
    for row in rows:
        w, legacy, g = VERTEX_COSTS[(row.theta1, row.theta2, row.theta3)]
        assert abs(row.w - w) < 1e-12 and abs(row.legacy - legacy) < 1e-12
        assert abs(row.g - g) < 1e-12


def test_sweep_counts_ordered_lattice_points():
    # rows are theta1 >= theta2 >= theta3 picks: (m+2 choose 3) of them
    assert len(sweep(3)) == 10
    assert len(sweep(5)) == 35


def test_sweep_rows_stay_in_domain_and_ordered(in_weyl_domain):
    rows = sweep(4)
    for row in rows:
        assert in_weyl_domain((row.theta1, row.theta2, row.theta3))
        assert row.g <= row.w + 1e-10 <= row.legacy + 2e-10


def test_sweep_rejects_degenerate_grid():
    with pytest.raises(ValueError):
        sweep(1)
    # the resolution is an integer, never truncated or parsed
    for bad in (2.5, 3.0, "3", True, None):
        with pytest.raises(ValueError, match="integer"):
            sweep(bad)
    assert len(sweep(np.int64(3))) == 10


def test_sweep_refuses_a_lattice_over_the_row_limit_before_any_row(monkeypatch):
    def no_rows(point):
        raise AssertionError("a refused sweep computed a row")

    monkeypatch.setattr(analysis, "compare_costs", no_rows)
    # 181 points per axis make 1004731 rows, 180 make 988260
    for points in (181, 1000, 10**9):
        with pytest.raises(ValueError, match="limit"):
            sweep(points)
    # the limit counts rows, m (m + 1) (m + 2) / 6, not points per axis
    monkeypatch.setattr(analysis, "compare_costs", compare_costs)
    monkeypatch.setattr(analysis, "MAX_SWEEP_ROWS", 10)
    assert len(sweep(3)) == 10
    with pytest.raises(ValueError, match="limit"):
        sweep(4)


def test_csv_output_is_frozen():
    text = rows_to_csv(sweep(2))
    lines = text.splitlines()
    assert lines[0] == "theta1,theta2,theta3,W,legacy,G"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert [float(x) for x in first] == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert text.endswith("\n") and "\r" not in text


def test_json_rows_roundtrip():
    rows = sweep(2)
    docs = rows_to_json(rows)
    parsed = json.loads(json.dumps(docs))
    assert parsed[0] == {
        "theta1": 0.0,
        "theta2": 0.0,
        "theta3": 0.0,
        "W": 1.0,
        "legacy": 1.0,
        "G": 1.0,
    }
    assert len(parsed) == 4


def test_find_max_w_lands_on_the_known_peak(in_weyl_domain):
    theta, w = find_max_w()
    # the interior maximum sits at (pi/4, 0.63355377, 0.42817605); the best
    # point of a 50-point lattice alone gives W = 8.87306, so these bounds
    # hold only for a refined search
    assert abs(w - 8.873824258484017) < 1e-12
    assert abs(theta.theta1 - PI / 4) < 1e-3
    assert abs(theta.theta2 - 0.63355377) < 1e-6
    assert abs(theta.theta3 - 0.42817605) < 1e-6
    assert in_weyl_domain(theta)
    assert theta.theta1 >= theta.theta2 >= theta.theta3
