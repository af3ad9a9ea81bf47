"""Default-seed benchmark jobs reproduce their golden output digests.

Runs the leading jobs of the ``approx``, ``invariants`` and ``sweep``
workloads in ``perfbench/workloads.py`` on each workload's default seed and
compares the digest of every job's exact outputs with the one stored in
``perfbench/golden/<workload>.json``.  The ``cli_cold`` cases run through
``conestab.cli.main`` in this process and must print the stored
``perfbench/golden/cli/*.out`` and exit with the stored code.  The golden
files are only read here; ``perfbench/record_golden.py`` re-records them
when a change is meant to alter outputs.  ``tests/golden`` holds outputs
recorded by earlier implementations that the present one must reprint.
"""

import importlib.util
from pathlib import Path

from conestab.cli import main

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
JOBS = {"approx": 40, "invariants": 8, "sweep": 12}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.load_library()
    return module


@pytest.mark.parametrize("workload", sorted(JOBS))
def test_default_seed_matches_golden(workloads, workload, monkeypatch):
    monkeypatch.delenv("CONESTAB_BUDGET", raising=False)
    golden = workloads.load_golden(workload)
    spec = workloads.WORKLOADS[workload]
    assert golden["seed"] == spec["default_seed"]
    assert len(golden["digests"]) >= JOBS[workload]
    inputs = workloads.make_inputs(workload, golden["seed"])[:JOBS[workload]]
    assert len(inputs) == JOBS[workload]
    for index, item in enumerate(inputs):
        outputs, problems = spec["job"](item)
        assert not problems, f"{workload} job {index}: {problems}"
        assert workloads.digest(outputs) == golden["digests"][index], f"{workload} job {index}"


@pytest.mark.parametrize("case", range(14))
def test_cli_case_matches_golden_stdout(workloads, case, monkeypatch, capsys):
    assert len(workloads.CLI_CASES) == 14
    monkeypatch.delenv("CONESTAB_BUDGET", raising=False)
    monkeypatch.chdir(PERFBENCH.parent)
    name, argv, expected = workloads.cli_argv(case, [])
    assert main(argv) == expected, name
    assert capsys.readouterr().out.encode() == workloads.cli_golden_stdout(case), name


def test_rank4_estimate_to_level_72_matches_golden(monkeypatch, capsys):
    # Recorded by the level-coordinate scan, which read the 9.2 M points
    # below level 73 in about 3 s; the simplicial-cone kernel reads none.
    monkeypatch.delenv("CONESTAB_BUDGET", raising=False)
    root = PERFBENCH.parent
    assert main(["estimate", str(root / "tests" / "docs" / "rank4.json"), "--filtration", "G",
                 "--levels", "1..72"]) == 0
    assert capsys.readouterr().out.encode() == (root / "tests" / "golden" /
                                                "estimate_rank4_72.out").read_bytes()


def test_c2_approx_estimate_to_level_30_matches_golden(monkeypatch, capsys):
    # The CSV of an approximate sweep, recorded while the rows still held
    # their ratios as Fractions and ``csv.writer`` wrote them.
    monkeypatch.delenv("CONESTAB_BUDGET", raising=False)
    root = PERFBENCH.parent
    assert main(["estimate", str(PERFBENCH / "docs" / "c2_fex.json"), "--filtration", "FEX",
                 "--levels", "1..30", "--approx", "2"]) == 0
    assert capsys.readouterr().out.encode() == (root / "tests" / "golden" /
                                                "estimate_c2_approx2.out").read_bytes()


def test_rank4_approx_estimate_to_level_12_matches_golden(monkeypatch, capsys):
    # Recorded by the shell table that ``sweep_approx`` built below the top
    # level before it binned its approximation table by shell.
    monkeypatch.delenv("CONESTAB_BUDGET", raising=False)
    root = PERFBENCH.parent
    assert main(["estimate", str(root / "tests" / "docs" / "rank4.json"), "--filtration", "G",
                 "--levels", "1..12", "--approx", "2"]) == 0
    assert capsys.readouterr().out.encode() == (root / "tests" / "golden" /
                                                "estimate_rank4_approx2.out").read_bytes()


def test_long_reeb_approx_estimate_to_level_10_matches_golden(monkeypatch, capsys):
    # Recorded by the shell table, as above.  At xi0 = (1, 10000019/10^6),
    # L = 10^6, so a shell <x, p> // L is not a window <ell, .> of ell = (1, 1).
    monkeypatch.delenv("CONESTAB_BUDGET", raising=False)
    root = PERFBENCH.parent
    assert main(["estimate", str(root / "tests" / "docs" / "c2_long_reeb.json"), "--filtration",
                 "FEX", "--levels", "1..10", "--approx", "2"]) == 0
    assert capsys.readouterr().out.encode() == (root / "tests" / "golden" /
                                                "estimate_c2_long_reeb_approx2.out").read_bytes()


def test_rank3_approx_estimate_to_level_20_matches_golden(monkeypatch, capsys):
    # Recorded while the approximation table read its points off a
    # coordinate box scan; the rank-3 weight cone is not simplicial, so the
    # table now reads them off several simplicial cones.
    monkeypatch.delenv("CONESTAB_BUDGET", raising=False)
    root = PERFBENCH.parent
    assert main(["estimate", str(PERFBENCH / "docs" / "rank3.json"), "--filtration", "G",
                 "--levels", "1..20", "--approx", "4"]) == 0
    assert capsys.readouterr().out.encode() == (root / "tests" / "golden" /
                                                "estimate_rank3_approx4.out").read_bytes()


@pytest.mark.parametrize("argv, golden", [
    (["okounkov", "tests/docs/rank6_cross.json"], "okounkov_rank6_cross.out"),
    (["okounkov", "tests/docs/rank6_cube.json"], "okounkov_rank6_cube.out"),
    (["invariants", "tests/docs/rank4.json", "--filtration", "G", "--json"],
     "invariants_rank4_json.out"),
    (["okounkov", "tests/docs/rank4.json", "--filtration", "G", "--levels", "1,2", "--t", "1/2"],
     "okounkov_rank4_gamma.out"),
    (["okounkov", "tests/docs/rank6_cube.json", "--levels", "1,2"],
     "okounkov_rank6_cube_gamma.out"),
])
def test_body_and_invariants_at_ranks_4_and_6_match_golden(argv, golden, monkeypatch, capsys):
    # Recorded while the Okounkov body held its slice polytope, volume,
    # barycenter and alpha0, all built with it; the record now holds the
    # fan's integer sums, and these views and S and J_T are read off them.
    # The rank-4 semigroup sample at t = 1/2 was recorded while
    # SemigroupSample held its Fraction cloud and reduced J its bracket,
    # and the rank-6 samples while lattice_points_below scanned a box.
    monkeypatch.delenv("CONESTAB_BUDGET", raising=False)
    root = PERFBENCH.parent
    monkeypatch.chdir(root)
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (root / "tests" / "golden" / golden).read_bytes()
