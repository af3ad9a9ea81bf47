"""Source-level guards on the library package."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import conestab

SRC = Path(conestab.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_library_has_no_assert_statements():
    # python -O strips assert, so runtime invariants must raise ConestabError.
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC.parent)}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_cold_import_skips_dataclasses_and_inspect():
    # Every CLI call is a fresh process, so import cost is paid per request;
    # dataclasses (and the inspect, ast, dis and tokenize it pulls in) cost
    # about 30 ms there.
    probe = ("import sys; before = set(sys.modules); import conestab, conestab.cli; "
             "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def _call_scopes(name):
    """(file, enclosing function) of every call of ``name`` in the package."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None)):
                scope = node
                while scope in parent and not isinstance(scope, ast.FunctionDef):
                    scope = parent[scope]
                found.append((path.name, getattr(scope, "name", "<module>")))
    return sorted(found)


def test_float_is_called_only_to_format_or_round():
    # Every result is exact.  float(...) may only print a value as a decimal
    # (invariants._decimal12, which every 12-digit decimal goes through) or
    # feed the minimizer's rounding of a trial point
    # (optimize._round_to_slice), so integer kernels cannot leak a float into
    # a returned value.
    assert _call_scopes("float") == [("invariants.py", "_decimal12"),
                                     ("optimize.py", "_round_to_slice")]


def _names_read(node):
    """The names a piece of test code reads: loaded names, names imported
    from conftest and the parameters of its functions (fixtures)."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.ImportFrom) and n.module == "conftest":
            names.update(a.name for a in n.names)
        elif isinstance(n, ast.FunctionDef):
            names.update(a.arg for a in n.args.args + n.args.kwonlyargs)
    return names


def test_every_conftest_name_is_read_by_a_test_module():
    # A reference that no test compares against checks nothing: every
    # top-level name of tests/conftest.py is read by a tests/test_*.py
    # module, directly or through a conftest name that such a module reads.
    tests = Path(__file__).parent
    defined = {}
    for node in ast.parse((tests / "conftest.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            defined.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    reached = set().union(*(_names_read(ast.parse(path.read_text()))
                            for path in tests.glob("test_*.py"))) & defined.keys()
    todo = list(reached)
    while todo:
        for name in (_names_read(defined[todo.pop()]) & defined.keys()) - reached:
            reached.add(name)
            todo.append(name)
    assert sorted(defined.keys() - reached) == []


def test_records_are_built_in_one_place():
    # A transform is built only by the one integer entry of the filtration
    # layer, which reduces it to its canonical rows over the least
    # denominator, and a singularity only by the validating from_rays.
    assert _call_scopes("PLConcave") == [("filtration.py", "_filtration")]
    assert _call_scopes("ConeSingularity") == [("singularity.py", "from_rays")]


def test_fans_are_triangulated_in_one_place():
    # A cone's fan is built once per cone and a chamber's once per cached
    # decomposition, so S, lambda_max and the twists never re-triangulate.
    assert _call_scopes("simplicial_fan") == [("fan.py", "chambers"), ("fan.py", "cone_fan")]


def test_chambers_are_cut_without_a_facet_scan():
    # fan.chambers cuts the weight cone's rays one halfspace at a time
    # (cone._cut), and simplicial_fan reads |det| off _row_reduce, so fan.py
    # runs no H/V conversion and builds no Fraction determinant.
    assert [scope for scope in _call_scopes("_facet_normals") + _call_scopes("det")
            if scope[0] == "fan.py"] == []


def test_one_hv_conversion():
    # The double description is the one conversion between generators and
    # inequalities: its cut runs only inside it and in fan.chambers, and no
    # subset scan is left to import itertools.combinations.
    assert _call_scopes("_cut") == [("cone.py", "_facet_normals"), ("fan.py", "chambers")]
    found = [f"{path.relative_to(SRC.parent)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.ImportFrom) and node.module == "itertools"
             and any(alias.name == "combinations" for alias in node.names)
             or isinstance(node, ast.Attribute) and node.attr == "combinations"]
    assert found == []


def test_triangulation_reads_incidences_only():
    # The H/V conversion runs once per cone: in the cone constructors, in
    # enumerate_vertices and once in polytope.triangulate.  The
    # triangulation recurses on the ray-facet incidences, so it neither
    # converts nor row-reduces a face.
    assert _call_scopes("_facet_normals") == [
        ("cone.py", "_cone"), ("cone.py", "_cone"), ("cone.py", "cone_from_halfspaces"),
        ("polytope.py", "enumerate_vertices"), ("polytope.py", "triangulate")]
    tree = ast.parse((SRC / "exactgeom" / "cone.py").read_text())
    [body] = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "_triangulate_rays"]
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(body) if isinstance(node, ast.Call)}
    assert "pull" in called and called & {"_row_reduce", "_facet_normals"} == set()


def test_lp_runs_only_where_a_tie_leaves_the_point_open():
    # The lct, reduced-J twist and delta_T solve an LP only on their ties,
    # and delta_T's tie LP is sigma's halfspaces as built, not fractional_lp,
    # which would rebuild sigma from them.  inf_twist_s solves none: its
    # infimum is 0, at the origin.  delta_red_objective's LP is its identity
    # check.
    assert _call_scopes("lp_solve") == [
        ("invariants.py", "_lct_cached"), ("invariants.py", "_reduced_j_twist_lp"),
        ("invariants.py", "delta_T"), ("lp.py", "fractional_lp")]
    assert _call_scopes("fractional_lp") == [("invariants.py", "delta_red_objective")]


def test_transform_rows_are_read_only_in_the_filtration_layer():
    # Every other module reads a filtration's integer rows through
    # filtration._rows(s, F), which checks that F is over s, so a new
    # entry point taking both cannot read the rows of another singularity.
    found = sorted({path.name for path in SRC.rglob("*.py")
                    for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                    if isinstance(node, ast.Attribute) and node.attr in ("rows", "den")
                    and getattr(node.value, "attr", None) == "transform"})
    assert found == ["filtration.py"]


def test_tracer_names_resolve():
    # perfbench/tracer.py wraps the LAYERS functions and reads the
    # INVARIANT_CACHES by name; a renamed or deleted one would otherwise
    # fail only the benchmark's own traced run.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, names in tracer.LAYERS.values():
        module = importlib.import_module(module_name)
        assert [name for name in names if not callable(getattr(module, name, None))] == []
    inv = importlib.import_module("conestab.invariants")
    assert all(getattr(inv, name).cache_info() for name in tracer.INVARIANT_CACHES)


def _public_names(module):
    return sorted(name for name in dir(module)
                  if not name.startswith("_") and not isinstance(getattr(module, name), ModuleType))


def test_public_api_is_pinned():
    # Adding or removing an export is an edit here.  The reference
    # integrals of polytope.py and the constant invariants are reached
    # through their modules, not the packages.
    assert _public_names(conestab) == [
        "Cone", "ConeSingularity", "ConestabError", "EstimatorSweep", "InvariantReport",
        "MonomialFiltration", "NvolResult", "OkounkovBody", "PLConcave", "Polytope",
        "ReebVector", "SemigroupSample", "approx_ord", "approximant", "bj_bound_check",
        "cone_from_rays", "delta_T", "ding", "dual_cone", "fractional_lp", "from_rays",
        "futaki_derivative", "futaki_product", "gamma_semigroup", "geodesic",
        "good_valuation_check", "intersect", "j_norm", "lambda_max_closed",
        "lambda_min_closed", "lattice_points_below", "lct_monomial", "log_discrepancy",
        "lp_solve", "minimize_nvol", "monomial_filtration", "newton_polyhedron", "nvol",
        "okounkov_body", "ord_of", "reduced_j", "reeb_contains", "reeb_vector", "rescale",
        "s_closed", "semistable_verdict", "slice_polytope", "sweep", "sweep_approx",
        "toric_filtration", "twist", "value_under", "vol"]
    exactgeom = importlib.import_module("conestab.exactgeom")
    assert _public_names(exactgeom) == sorted(exactgeom.__all__) == [
        "Cone", "LPResult", "PLConcave", "Polytope", "cone_from_halfspaces", "cone_from_rays",
        "dot", "dual_cone", "enumerate_vertices", "enumeration_budget", "frac", "fractional_lp",
        "lattice_points_below", "lp_solve", "primitivize", "slice_polytope", "slice_vertices",
        "vec"]


def test_readme_library_sketch_prints_what_it_computes():
    # Each line of the README's sketch whose comment holds a value must
    # compute that value; the other lines run as written.
    readme = (PERFBENCH.parent / "README.md").read_text()
    block = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines, namespace, checked = block.splitlines(), {}, 0
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        comment = lines[node.end_lineno - 1].partition("#")[2]
        if isinstance(node, ast.Expr) and comment:
            assert eval(code, namespace) == eval(comment, namespace), code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 4
