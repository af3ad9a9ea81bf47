"""Value semantics of the model records.

The invariant caches key on these records, so hashing and equality must be
those of the tuple of fields, and the records must not change after they
are built.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from conestab.errors import EmptyInput
from conestab.estimators import EstimatorSweep, gamma_semigroup, good_valuation_check, sweep
from conestab.exactgeom import PLConcave, slice_polytope
from conestab.exactgeom.fan import cone_fan
from conestab.filtration import monomial_filtration
from conestab.invariants import InvariantReport, okounkov_body, reduced_j
from conestab.singularity import from_rays

FIELDS = {
    "Cone": ("rank", "rays", "halfspaces"),
    "ConeSingularity": ("rank", "sigma", "coefficients", "weight_cone", "u_row", "u_den"),
    "MonomialFiltration": ("ambient", "transform"),
    "PLConcave": ("rows", "den"),
    "Polytope": ("dim", "vertices", "recession_rays", "halfspaces"),
    "Fan": ("rank", "rays", "simplices"),
    "LevelStats": ("m", "N_m", "TS_m", "TS0_m", "count_gamma", "shell_TS", "shell_TS0",
                   "top_ord", "rank"),
    "OkounkovBody": ("weight_cone", "x", "L", "Q", "V", "G", "alpha0_ints"),
    "ReducedJResult": ("value", "minimizer_twist"),
    "GoodValuationReport": ("r0", "generators"),
    "SemigroupSample": ("m", "t", "points"),
}


def _records():
    s = from_rays([(1, 0), (1, 2)], [0, "1/3"])
    F = monomial_filtration(s, [(2, 3), (3, 1)])
    return [s.sigma, s, F, F.transform, slice_polytope(s.weight_cone, (1, 1), 1),
            cone_fan(s.weight_cone), sweep(s, (1, 1), F, [4]).row(4), okounkov_body(s, (2, 3)),
            reduced_j(s, (1, 1), F), good_valuation_check(s, (1, 1)),
            gamma_semigroup(s, (1, 1), F, 3, 1)]


# Records with a list field: unhashable, as the tuple of their fields is.
HOLDS_A_LIST = {"GoodValuationReport", "SemigroupSample"}


def _hash(x, name):
    if name in HOLDS_A_LIST:
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            hash(x)
        return None
    return hash(x)


@pytest.mark.parametrize("index", range(len(FIELDS)))
def test_record_is_a_value_of_its_fields(index):
    x = _records()[index]
    kind = type(x).__name__
    names = FIELDS[kind]
    assert type(x)._fields == names
    values = tuple(getattr(x, name) for name in names)
    assert _hash(x, kind) == _hash(values, kind)
    # Rebuilt from its fields, as copies and pickles are.
    for twin in (type(x)(*x.__getnewargs__()), copy.copy(x), copy.deepcopy(x),
                 pickle.loads(pickle.dumps(x))):
        assert twin is not x and twin == x and _hash(twin, kind) == _hash(x, kind)
    assert repr(x) == (type(x).__name__ + "("
                       + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")")
    with pytest.raises(AttributeError):
        setattr(x, names[0], values[0])
    with pytest.raises(AttributeError):
        x.extra = 1
    assert tuple(getattr(x, name) for name in names) == values


def test_record_kinds_covered():
    assert sorted(type(x).__name__ for x in _records()) == sorted(FIELDS)


def test_pl_concave_needs_a_covector():
    with pytest.raises(EmptyInput, match="at least one covector"):
        monomial_filtration(from_rays([(1, 0), (0, 1)]), ())


def test_fraction_views_are_derived_from_the_integer_forms():
    s = from_rays([(1, 0), (1, 2)], [0, "1/3"])
    g = PLConcave(rows=((3, 0), (0, 2)), den=6)
    assert g.covectors == ((Fraction(1, 2), 0), (0, Fraction(1, 3)))
    assert g.value((2, 3)) == 1
    assert s.u == tuple(Fraction(a, s.u_den) for a in s.u_row) == (1, Fraction(-1, 6))
    body = okounkov_body(s, (2, 3))
    (a, d), n = body.alpha0_ints, 2
    assert body.alpha0 == tuple(Fraction(b, d) for b in a)
    assert body.bary == tuple(Fraction(n, n + 1) * b for b in body.alpha0)
    assert body.vol == Fraction(body.L ** n * body.V, body.Q * 2)
    sample = gamma_semigroup(s, (1, 1), monomial_filtration(s, [(2, 3), (3, 1)]), 3, 1)
    assert len(sample.points) == 10
    assert sample.cloud == [tuple(Fraction(a, 3) for a in p) for p in sample.points]


def test_default_containers_are_not_shared():
    a = EstimatorSweep(levels=[1], per_level=[])
    b = EstimatorSweep(levels=[1], per_level=[])
    try:
        a.target["S"] = 1
    except TypeError:
        pass
    assert dict(b.target) == {}
    report = InvariantReport(entries={})
    report.add("S", exact=1)
    first = report.entries["S"]
    try:
        first.params["k"] = 1
    except TypeError:
        pass
    report.add("T", exact=2)
    assert dict(report.entries["T"].params) == {}
