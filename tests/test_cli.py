import hashlib
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from conestab import optimize
from conestab.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_PIPE,
    InputDocument,
    _parse_levels,
    main,
)
from conestab.estimators import gamma_semigroup
from conestab.filtration import toric_filtration
from conftest import parse_exact

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


def test_validate_without_coefficients_accepts_non_extreme_ray(doc_path, capsys):
    doc = {"rank": 2, "rays": [[1, 0], [1, 3], [2, -1]], "reeb": ["1", "0"]}
    assert main(["validate", doc_path(doc)]) == EXIT_OK
    assert "klt: yes" in capsys.readouterr().out


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
    values = parse_exact(payload)
    assert values["S"] == F(5, 4) and values["lct"] == 3
    assert values["D"] == F(1, 2) and values["J_T"] == F(1, 4)
    # serialize once more: fractions survive bit for bit
    again = json.dumps(json.loads(payload), indent=2, sort_keys=True)
    assert parse_exact(again) == values


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


_HUGE_REEB = str(Path(__file__).parent / "docs" / "c2_huge_reeb.json")
# reeb (10^400, 1): float() overflows on A, nvol and D and rounds vol,
# lambda_min and J_T to 0, so their decimals are Decimal's 12 digits.
_HUGE_DECIMALS = {"A": "1.00000000000e+400", "vol": "1e-400", "nvol": "1.00000000000e+400",
                  "S": "0.5", "lambda_max": "1", "lambda_min": "1e-400", "lct": "3",
                  "D": "-5.00000000000e+399", "J": "0.5", "J_T": "5.00000000000e-801"}


def test_values_outside_float_range_print_decimal_digits(capsys):
    # Every command exits 0, and delta_T = 2/(10^400 + 1) prints no (0).
    big = 10 ** 400
    assert main(["validate", _HUGE_REEB]) == EXIT_OK
    assert f"reeb: ({big}, 1) interior, A = {big + 1} (1.00000000000e+400)\n" \
        in capsys.readouterr().out
    assert main(["stability", _HUGE_REEB]) == EXIT_OK
    assert capsys.readouterr().out.startswith(
        f"delta_T = 2/{big + 1} (2.00000000000e-400), minimizing ray (0, 1)\n")
    assert main(["invariants", _HUGE_REEB, "--filtration", "G"]) == EXIT_OK
    text = re.findall(r"^  (\S+) += (\S+) \((\S+)\)$", capsys.readouterr().out, re.M)
    assert main(["invariants", _HUGE_REEB, "--filtration", "G", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert main(["invariants", _HUGE_REEB, "--filtration", "G", "--csv"]) == EXIT_OK
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    assert {name: decimal for name, _, decimal in text} == _HUGE_DECIMALS
    assert {name: entry["decimal"] for name, entry in report.items()} == _HUGE_DECIMALS
    assert {name: decimal for name, _, decimal, _ in rows} == _HUGE_DECIMALS
    for name, exact, decimal in text:  # each decimal is its exact value to 12 digits
        assert abs(F(Decimal(decimal)) / F(exact) - 1) < F(1, 10 ** 11)
        assert report[name]["exact"] == exact


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


def test_nvolmin_negative_tol_option_exits_2(doc_path, capsys):
    assert main(["nvolmin", doc_path(C2_DOC), "--tol", "-1"]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: --tol: tolerance must be nonnegative, got -1\n"
    assert main(["nvolmin", doc_path(C2_DOC), "--tol", "0"]) == EXIT_OK  # zero stays allowed


def test_nvolmin_negative_tol_document_exits_2(doc_path, capsys):
    path = doc_path(dict(C2_DOC, options={"tol": "-1/2"}))
    assert main(["nvolmin", path]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        f"error: {path}.options.tol: tolerance must be nonnegative, got -1/2\n")


def test_nvolmin_zero_tol_on_irrational_minimizer_exits_3(doc_path, capsys, monkeypatch):
    # The cone of test_optimize.py::test_minimize_nvol_tolerance_error has an
    # irrational minimizer, so no rational iterate closes the certificate gap.
    doc = {"rank": 3, "rays": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -2, 1]],
           "reeb": ["0", "0", "1"]}
    assert main(["nvolmin", doc_path(doc), "--tol", "0"]) == EXIT_BUDGET
    err = capsys.readouterr().err
    # One line: the gap as a decimal, the tolerance missed, the exact gap last.
    assert re.fullmatch(r"error: certificate gap \d(\.\d+)?e-\d+ above the tolerance "
                        r"tol = 0; exact gap \d+/\d+\n", err)
    decimal, exact = re.search(r"gap (\S+) .* exact gap (\S+)", err).groups()
    assert abs(Fraction(decimal) / Fraction(exact) - 1) < Fraction(1, 100)
    # A positive tolerance below the gap is met by polishing; unpolished,
    # the same gap is reported against it.
    assert main(["nvolmin", doc_path(doc), "--tol", "1/10000000000000000"]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(optimize, "POLISH_ROUNDS", 0)
    assert main(["nvolmin", doc_path(doc), "--tol", "1/10000000000000000"]) == EXIT_BUDGET
    assert f"above the tolerance tol = 1e-16; exact gap {exact}\n" in capsys.readouterr().err


@pytest.mark.parametrize("name, gap", [("nvol_rank4.json", "1.51e-9"),
                                       ("nvol_rank5.json", "1.04e-9")])
def test_nvolmin_polishes_a_gap_above_the_default_tol(name, gap, capsys, monkeypatch):
    # The line search stops above tol = 1e-9 on these two cones; exact Newton
    # steps, rounded with no float, take the gap below it.
    path = str(Path(__file__).parent / "docs" / name)
    assert main(["nvolmin", path]) == EXIT_OK
    exact = F(re.search(r"certificate gap = (\S+)", capsys.readouterr().out).group(1))
    assert 0 < exact <= F(1, 10 ** 9)
    monkeypatch.setattr(optimize, "POLISH_ROUNDS", 0)
    assert main(["nvolmin", path]) == EXIT_BUDGET
    assert capsys.readouterr().err.startswith(f"error: certificate gap {gap} above the tolerance")


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


def test_estimate_approx_stdout_pinned(doc_path, capsys):
    # Digest of the stdout that the pairwise-DP implementation printed.
    assert main(["estimate", doc_path(C2_DOC), "--filtration", "FEX",
                 "--approx", "4", "--levels", "1..60"]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "1625c71096a0ce84a71f503aca82f75befca503cbf5bb64ab90851cee45b0479"


def test_estimate_budget_exit_code(doc_path, capsys, monkeypatch):
    doc = json.loads(json.dumps(C2_DOC))
    doc["options"] = {"budget": 10}
    assert main(["estimate", doc_path(doc), "--filtration", "FEX",
                 "--levels", "1..50"]) == EXIT_BUDGET
    assert capsys.readouterr().err == (
        "error: --levels: range 1..50 has 50 levels, more than the budget 10\n")


def test_budget_env_override(doc_path, monkeypatch):
    monkeypatch.setenv("CONESTAB_BUDGET", "10")
    assert main(["estimate", doc_path(C2_DOC), "--filtration", "FEX",
                 "--levels", "1..50"]) == EXIT_BUDGET


def test_lone_level_range_stays_a_range():
    assert _parse_levels("1..2000000", None) == range(1, 2000001)
    assert _parse_levels(" 7 ", None) == range(7, 8)
    assert _parse_levels("4,1..2,2", None) == [4, 1, 2, 2]


def test_long_level_range_stops_on_lattice_budget_in_little_memory(doc_path):
    # 1..2000000 is shorter than the default budget of 10^7 levels, so it
    # parses; the sweep's lattice budget must stop it before two million
    # levels are listed, which once took 204 MB.  The child reports the
    # tracemalloc peak of main() itself: a forked child's ru_maxrss starts at
    # the resident set of its parent, so it would measure the test process.
    code = ("import sys, tracemalloc\n"
            "from conestab.cli import main\n"
            "tracemalloc.start()\n"
            "code = main(sys.argv[1:])\n"
            "print(code, tracemalloc.get_traced_memory()[1])\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "CONESTAB_BUDGET"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-c", code, "estimate", doc_path(C2_DOC),
                           "--filtration", "FEX", "--levels", "1..2000000"],
                          env=env, capture_output=True, text=True, timeout=120)
    exit_code, peak = proc.stdout.split()
    assert exit_code == str(EXIT_BUDGET)
    assert proc.stderr == "error: lattice enumeration exceeded budget 10000000\n"
    assert int(peak) < 16 * 2 ** 20  # a list of two million levels takes 76 MB


@pytest.mark.parametrize("argv", [
    ["nvolmin", "rank6_cross.json"],
    ["estimate", "rank4.json", "--filtration", "G", "--levels", "1..12", "--json"],
], ids=["nvolmin", "estimate-json"])
def test_closed_stdout_exits_with_the_pipe_code_and_no_traceback(argv):
    # The reader of stdout is gone before the first write (its end of the
    # pipe is closed before the child starts): the child exits EXIT_PIPE
    # and writes nothing to stderr.
    docs = Path(__file__).resolve().parent / "docs"
    argv = [str(docs / a) if a.endswith(".json") else a for a in argv]
    env = {k: v for k, v in os.environ.items() if k != "CONESTAB_BUDGET"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "conestab.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (EXIT_PIPE, b"")
    assert EXIT_PIPE not in (EXIT_OK, EXIT_INVALID, EXIT_BUDGET)


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


@pytest.mark.parametrize("value", ["0", "-2"])
def test_estimate_nonpositive_approx_names_option(doc_path, capsys, value):
    assert main(["estimate", doc_path(C2_DOC), "--filtration", "FEX", "--levels", "1..5",
                 "--approx", value]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: --approx: approximation level must be >= 1\n"


def test_malformed_budget_option(doc_path, capsys):
    doc = json.loads(json.dumps(C2_DOC))
    doc["options"] = {"budget": "abc"}
    assert main(["estimate", doc_path(doc), "--filtration", "FEX",
                 "--levels", "1..5"]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ".options.budget: not an integer: 'abc'" in err


@pytest.mark.parametrize("budget, shown", [(2.5, "2.5"), (True, "True")],
                         ids=["float", "bool"])
def test_non_integer_budget_option(doc_path, capsys, budget, shown):
    doc = json.loads(json.dumps(C2_DOC))
    doc["options"] = {"budget": budget}
    path = doc_path(doc)
    assert main(["estimate", path, "--filtration", "FEX", "--levels", "1..5"]) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: {path}.options.budget: not an integer: {shown}\n"


@pytest.mark.parametrize("doc, argv, where, message", [
    (dict(C2_DOC, filtrations=[1]), ["validate"], ".filtrations", "need an object"),
    (dict(C2_DOC, options=[1]), ["validate"], ".options", "need an object"),
    (dict(C2_DOC, filtrations={"FEX": {"covectors": 5}}), ["validate"],
     ".filtrations.FEX.covectors", "need a list of covectors"),
    (dict(C2_DOC, options={"levels": "x"}), ["estimate", "--filtration", "FEX"],
     ".options.levels", "need a list of positive integers"),
    (dict(C2_DOC, options={"levels": [1, "a"]}), ["estimate", "--filtration", "FEX"],
     ".options.levels[1]", "not an integer: 'a'"),
    (dict(C2_DOC, options={"levels": [2, 0]}), ["estimate", "--filtration", "FEX"],
     ".options.levels", "levels must be positive integers"),
    (C2_DOC, ["okounkov", "--levels", "0"], "--levels", "levels must be positive integers"),
    (C2_DOC, ["okounkov", "--t", "banana"], "--t", "not a rational 'p/q': 'banana'"),
    (dict(C2_DOC, filtrations={"FEX": {"covectors": [["2", "1"], ["1", "2"]], "scale": "0"}}),
     ["validate"], ".filtrations.FEX.scale", "rescale factor must be positive, got 0"),
    (dict(C2_DOC, filtrations={"N": {"covectors": [["-1", "1"]]}}), ["validate"],
     ".filtrations.N.covectors", "transform not positive on weight-cone ray (1, 0)"),
    (dict(C2_DOC, filtrations={"E": {"covectors": []}}), ["validate"],
     ".filtrations.E.covectors", "a filtration needs at least one covector"),
    (dict(C2_DOC, rank=0, rays=[[]], reeb=[]), ["validate"], ".rank",
     "rank must be a positive integer, got 0"),
    (dict(C2_DOC, rank=-1), ["validate"], ".rank", "rank must be a positive integer, got -1"),
    (dict(C2_DOC, rays=[[1, 0], [-1, 0], [0, 1]], coefficients=None), ["validate"], ".rays",
     "cone is not pointed"),
    (dict(C2_DOC, rays=[[1, 0], [2, 0]]), ["validate"], ".rays",
     "rays do not span the ambient space"),
    (dict(C2_DOC, rays=[[1, 0], [2, 0], [0, 1]], coefficients=["1/2", "0", "0"]), ["validate"],
     ".coefficients", "conflicting coefficients on ray (1, 0)"),
    (dict(C2_DOC, coefficients=["1", "0"]), ["validate"], ".coefficients",
     "boundary coefficient 1 outside [0, 1)"),
    # An empty option value or level list is an error, not the default.
    (C2_DOC, ["estimate", "--filtration", "FEX", "--levels", "1..5", "--approx", ""], "--approx",
     "not an integer: ''"),
    (C2_DOC, ["estimate", "--filtration", "FEX", "--levels", ""], "--levels", "empty level list"),
    (C2_DOC, ["okounkov", "--levels", ""], "--levels", "empty level list"),
    (C2_DOC, ["nvolmin", "--tol", ""], "--tol", "not a rational 'p/q': ''"),
    (C2_DOC, ["okounkov", "--levels", "2", "--t", ""], "--t", "not a rational 'p/q': ''"),
    (dict(C2_DOC, options={"levels": []}), ["estimate", "--filtration", "FEX"],
     ".options.levels", "empty level list"),
    # --t sets the cloud's threshold, so it is an error without a cloud of F.
    (C2_DOC, ["okounkov", "--t", "1"], "--t", "needs --filtration and --levels"),
    (C2_DOC, ["okounkov", "--levels", "4", "--t", "100"], "--t",
     "needs --filtration and --levels"),
    (C2_DOC, ["okounkov", "--filtration", "FEX", "--t", "1"], "--t",
     "needs --filtration and --levels"),
], ids=["filtrations-list", "options-list", "covectors-int", "levels-string",
        "levels-entry", "levels-zero", "okounkov-levels-zero", "okounkov-t-without-levels",
        "scale-zero", "covector-negative", "covectors-empty", "rank-zero", "rank-negative",
        "rays-not-pointed", "rays-not-spanning", "coefficients-conflicting",
        "coefficient-not-klt", "approx-empty", "levels-empty", "okounkov-levels-empty",
        "tol-empty", "t-empty", "document-levels-empty", "okounkov-t-alone",
        "okounkov-t-without-filtration", "okounkov-t-with-filtration-only"])
def test_malformed_document_exits_2_anchored(doc_path, capsys, doc, argv, where, message):
    path = doc_path(doc)
    assert main(argv[:1] + [path] + argv[1:]) == EXIT_INVALID
    anchor = where if where.startswith("--") else path + where
    assert capsys.readouterr().err == f"error: {anchor}: {message}\n"


@pytest.mark.parametrize("text, where, message", [
    ("[1, 2]", "", "top level must be an object"),
    (json.dumps(dict(C2_DOC, rays=[])), ".rays", "need a nonempty list of rays"),
    (json.dumps(dict(C2_DOC, coefficients=["0"])), ".coefficients",
     "need one coefficient per ray"),
    (json.dumps({k: v for k, v in C2_DOC.items() if k != "reeb"}), ".reeb", "missing field"),
    (json.dumps(dict(C2_DOC, filtrations={"F": [1, 2]})), ".filtrations.F",
     "need an object with 'covectors'"),
    (json.dumps(dict(C2_DOC, rays=[[1, 0], [0, 1, 1]])), ".rays[1]",
     "expected a vector of length 2"),
    ('{"rank": 2,', "", "invalid JSON at line 1, column 12"),
    (None, "", "[Errno 2] No such file or directory: '{path}'"),
], ids=["top-level-list", "rays-empty", "coefficients-count", "reeb-missing",
        "filtration-not-object", "ray-length", "json-truncated", "file-missing"])
def test_document_error_exits_2_with_one_anchored_line(tmp_path, capsys, text, where, message):
    path = tmp_path / "doc.json"
    if text is not None:
        path.write_text(text)
    assert main(["validate", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: {path}{where}: {message.format(path=path)}\n"


def test_okounkov_levels_without_filtration_sample_the_toric_filtration(doc_path, capsys):
    # With no --filtration the cloud is that of the polarization's own
    # toric filtration at threshold 0.
    assert main(["okounkov", doc_path(C2_DOC), "--levels", "2"]) == EXIT_OK
    doc = InputDocument(C2_DOC)
    s, reeb = doc.singularity, doc.reeb
    sample = gamma_semigroup(s, reeb, toric_filtration(s, reeb), 2, 0)
    assert json.loads(capsys.readouterr().out)["gamma"] == {"2": [list(p) for p in sample.points]}


def test_document_levels_match_option(doc_path, capsys):
    argv = ["--filtration", "FEX"]
    assert main(["estimate", doc_path(dict(C2_DOC, options={"levels": [3, "1", 2]}))]
                + argv) == EXIT_OK
    from_doc = capsys.readouterr().out
    assert main(["estimate", doc_path(C2_DOC), "--levels", "1..3"] + argv) == EXIT_OK
    assert from_doc == capsys.readouterr().out and from_doc.count("\n") == 4


def test_gamma_semigroup_rejects_level_zero(c2, fex):
    from conestab.errors import EmptyInput
    from conestab.estimators import gamma_semigroup
    with pytest.raises(EmptyInput, match="positive"):
        gamma_semigroup(c2, (1, 1), fex, 0, 0)


def test_malformed_budget_env(doc_path, capsys, monkeypatch):
    monkeypatch.setenv("CONESTAB_BUDGET", "abc")
    assert main(["estimate", doc_path(C2_DOC), "--filtration", "FEX",
                 "--levels", "1..5"]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: CONESTAB_BUDGET: not an integer")


def test_negative_budget_option_exits_2(doc_path, capsys):
    doc = json.loads(json.dumps(C2_DOC))
    doc["options"] = {"budget": -5}
    path = doc_path(doc)
    assert main(["estimate", path, "--filtration", "FEX", "--levels", "1..3"]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        f"error: {path}.options.budget: budget must be nonnegative, got -5\n")


def test_negative_budget_env_exits_2(doc_path, capsys, monkeypatch):
    monkeypatch.setenv("CONESTAB_BUDGET", "-5")
    assert main(["estimate", doc_path(C2_DOC), "--filtration", "FEX",
                 "--levels", "1..3"]) == EXIT_INVALID
    assert capsys.readouterr().err == (
        "error: CONESTAB_BUDGET: budget must be nonnegative, got -5\n")


def test_zero_budget_is_a_cap_not_an_error(doc_path, capsys):
    doc = json.loads(json.dumps(C2_DOC))
    doc["options"] = {"budget": 0}
    assert main(["estimate", doc_path(doc), "--filtration", "FEX",
                 "--levels", "1..3"]) == EXIT_BUDGET


def test_estimate_unwritable_out_exits_2(doc_path, tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    assert main(["estimate", doc_path(C2_DOC), "--filtration", "FEX",
                 "--levels", "1..3", "--out", str(target)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: --out: ") and "No such file or directory" in err
    assert err.count("\n") == 1


_LATIN1_DOC = json.dumps(dict(C2_DOC, note="caf\u00e9"), ensure_ascii=False).encode("latin-1")
_LATIN1_AT = _LATIN1_DOC.index("\u00e9".encode("latin-1"))
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("data, message", [
    pytest.param(_LATIN1_DOC, f"not UTF-8 text: invalid continuation byte at byte {_LATIN1_AT}",
                 id="latin1"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply", id="deep"),
    pytest.param(b'{"rank": ' + b"1" * 5000 + b"}",
                 f"integer literal over {_MAX_DIGITS} digits", id="digits",
                 marks=pytest.mark.skipif(not 0 < _MAX_DIGITS < 5000,
                                          reason="no int max-str-digits limit below 5000")),
])
def test_validate_unparsable_document_exits_2(tmp_path, capsys, data, message):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    assert main(["validate", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


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


def test_okounkov_unknown_filtration_without_levels(doc_path, capsys):
    assert main(["okounkov", doc_path(C2_DOC), "--filtration", "NOPE"]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: no filtration named 'NOPE'; have ['FEX', 'triv']\n"


def test_okounkov_empty_filtration_name_is_unknown(doc_path, capsys):
    assert main(["okounkov", doc_path(C2_DOC), "--filtration", ""]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: no filtration named ''; have ['FEX', 'triv']\n"


def test_library_loads_no_numpy_or_sympy():
    code = (
        "import sys\n"
        "import conestab, conestab.cli\n"
        "s = conestab.from_rays([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -2, 1)])\n"
        "assert conestab.minimize_nvol(s).iterations > 1\n"
        "conestab.good_valuation_check(s, (0, 0, 1))\n"
        "print(sorted({'numpy', 'sympy'} & set(sys.modules)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
