import json
import os
from fractions import Fraction

import pytest

from conestab.cli import EXIT_BUDGET, EXIT_INVALID, EXIT_OK, main
from conestab.invariants import InvariantReport

F = Fraction

C2_DOC = {
    "rank": 2,
    "rays": [[1, 0], [0, 1]],
    "coefficients": ["0", "0"],
    "reeb": ["1", "1"],
    "filtrations": {
        "FEX": {"covectors": [["2", "1"], ["1", "2"]]},
        "triv": {"covectors": [["1", "1"]]},
    },
}


@pytest.fixture
def doc_path(tmp_path):
    def write(payload, name="doc.json"):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return str(p)
    return write


def test_validate_ok(doc_path, capsys):
    assert main(["validate", doc_path(C2_DOC)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "u=(1, 1)" in out and "klt: yes" in out


def test_validate_rejects_coefficient_one(doc_path, capsys):
    bad = dict(C2_DOC, coefficients=["1", "0"])
    assert main(["validate", doc_path(bad)]) == EXIT_INVALID
    assert "error" in capsys.readouterr().err


def test_validate_rejects_boundary_reeb(doc_path, capsys):
    bad = dict(C2_DOC, reeb=["1", "0"])
    assert main(["validate", doc_path(bad)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "reeb" in err and "rejected" in err


def test_validate_rejects_floats(doc_path):
    bad = dict(C2_DOC, reeb=[1.0, 1])
    assert main(["validate", doc_path(bad)]) == EXIT_INVALID


def test_parse_error_is_anchored(doc_path, capsys):
    bad = dict(C2_DOC)
    bad = json.loads(json.dumps(bad))
    bad["filtrations"]["FEX"]["covectors"] = [["2", "x"]]
    assert main(["validate", doc_path(bad)]) == EXIT_INVALID
    assert "filtrations.FEX.covectors[0][1]" in capsys.readouterr().err


def test_invariants_text(doc_path, capsys):
    assert main(["invariants", doc_path(C2_DOC), "--filtration", "FEX"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "D           = 1/2" in out
    assert "J           = 1/4" in out
    assert "J_T         = 1/4" in out


def test_invariants_trivial(doc_path, capsys):
    assert main(["invariants", doc_path(C2_DOC), "--filtration", "triv"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "S           = 1 (1)" in out
    assert "D           = 0" in out
    assert "J           = 0" in out


def test_invariants_destabilized(doc_path, capsys):
    doc = json.loads(json.dumps(C2_DOC))
    doc["reeb"] = ["1", "2"]
    doc["filtrations"]["div"] = {"covectors": [["1", "0"]]}
    assert main(["invariants", doc_path(doc), "--filtration", "div"]) == EXIT_OK
    assert "D           = -1/2" in capsys.readouterr().out


def test_invariants_json_round_trip(doc_path, capsys):
    assert main(["invariants", doc_path(C2_DOC), "--filtration", "FEX", "--json"]) == EXIT_OK
    payload = capsys.readouterr().out
    values = InvariantReport.parse_exact(payload)
    assert values["S"] == F(5, 4) and values["lct"] == 3
    assert values["D"] == F(1, 2) and values["J_T"] == F(1, 4)
    # serialize once more: fractions survive bit for bit
    again = json.dumps(json.loads(payload), indent=2, sort_keys=True)
    assert InvariantReport.parse_exact(again) == values


def test_unknown_filtration(doc_path, capsys):
    assert main(["invariants", doc_path(C2_DOC), "--filtration", "nope"]) == EXIT_INVALID
    assert "nope" in capsys.readouterr().err


def test_stability_semistable(doc_path, capsys):
    assert main(["stability", doc_path(C2_DOC)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "delta_T = 1 (1)" in out and "T-semistable: yes" in out


def test_stability_destabilized(doc_path, capsys):
    doc = dict(C2_DOC, reeb=["1", "2"])
    assert main(["stability", doc_path(doc)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "delta_T = 2/3" in out
    assert "destabilizer ray (1, 0)" in out


def test_nvolmin(doc_path, capsys):
    assert main(["nvolmin", doc_path(C2_DOC)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "nvol = 4 (4)" in out and "certificate gap = 0" in out
    doc = dict(C2_DOC, rays=[[1, 0], [1, 3]], coefficients=["0", "0"])
    assert main(["nvolmin", doc_path(doc)]) == EXIT_OK
    assert "nvol = 4/3" in capsys.readouterr().out


def test_nvolmin_json_report(doc_path, capsys):
    assert main(["nvolmin", doc_path(C2_DOC), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["nvol"]["method"] == "optimizer"
    assert payload["nvol"]["exact"] == "4"
    assert payload["nvol"]["lower"] == "4" and payload["nvol"]["upper"] == "4"


def test_estimate_csv(doc_path, capsys):
    assert main(["estimate", doc_path(C2_DOC), "--filtration", "FEX",
                 "--levels", "1..50"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m,N_m,TS_m,S_m,Sp_m,Spp_m,lammax_m"
    last = lines[-1].split(",")
    assert last[0] == "50"
    spp = F(last[5])
    assert abs(spp - F(5, 4)) <= F(5, 4) / 10  # within 10 percent at level 50


def test_estimate_trivial_constant_column(doc_path, capsys):
    assert main(["estimate", doc_path(C2_DOC), "--filtration", "triv",
                 "--levels", "2..20"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    assert all(row.split(",")[3] == "1" for row in lines)


def test_estimate_approx_matches_plain(doc_path, capsys):
    assert main(["estimate", doc_path(C2_DOC), "--filtration", "FEX",
                 "--levels", "1..10", "--approx", "3"]) == EXIT_OK
    approx = capsys.readouterr().out
    assert main(["estimate", doc_path(C2_DOC), "--filtration", "FEX",
                 "--levels", "1..10"]) == EXIT_OK
    assert approx == capsys.readouterr().out


def test_estimate_budget_exit_code(doc_path, capsys, monkeypatch):
    doc = json.loads(json.dumps(C2_DOC))
    doc["options"] = {"budget": 10}
    assert main(["estimate", doc_path(doc), "--filtration", "FEX",
                 "--levels", "1..50"]) == EXIT_BUDGET


def test_budget_env_override(doc_path, monkeypatch):
    monkeypatch.setenv("CONESTAB_BUDGET", "10")
    assert main(["estimate", doc_path(C2_DOC), "--filtration", "FEX",
                 "--levels", "1..50"]) == EXIT_BUDGET


@pytest.mark.parametrize("argv, where", [
    (["estimate", "--filtration", "FEX", "--levels", "1..x"], "--levels"),
    (["estimate", "--filtration", "FEX", "--levels", "1..5", "--approx", "q"], "--approx"),
    (["nvolmin", "--tol", "abc"], "--tol"),
    (["okounkov", "--filtration", "FEX", "--levels", "2", "--t", "abc"], "--t"),
], ids=["levels", "approx", "tol", "t"])
def test_malformed_numeric_option(doc_path, capsys, argv, where):
    assert main(argv[:1] + [doc_path(C2_DOC)] + argv[1:]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: not ")


def test_malformed_budget_option(doc_path, capsys):
    doc = json.loads(json.dumps(C2_DOC))
    doc["options"] = {"budget": "abc"}
    assert main(["estimate", doc_path(doc), "--filtration", "FEX",
                 "--levels", "1..5"]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ".options.budget: not an integer: 'abc'" in err


def test_malformed_budget_env(doc_path, capsys, monkeypatch):
    monkeypatch.setenv("CONESTAB_BUDGET", "abc")
    assert main(["estimate", doc_path(C2_DOC), "--filtration", "FEX",
                 "--levels", "1..5"]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: CONESTAB_BUDGET: not an integer")


def test_estimate_out_file(doc_path, tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    assert main(["estimate", doc_path(C2_DOC), "--filtration", "FEX",
                 "--levels", "1..5", "--out", str(target)]) == EXIT_OK
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "m,N_m,TS_m,S_m,Sp_m,Spp_m,lammax_m" and len(lines) == 6


def test_okounkov_json(doc_path, capsys):
    assert main(["okounkov", doc_path(C2_DOC), "--filtration", "FEX",
                 "--levels", "2", "--t", "1"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["vol"] == "1/2"
    assert payload["alpha0"] == ["1/2", "1/2"]
    assert sorted(map(tuple, payload["gamma"]["2"])) == [(0, 2), (1, 1), (2, 0)]
