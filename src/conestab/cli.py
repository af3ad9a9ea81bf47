"""Command-line front end.

Reads a JSON document describing the singularity, its polarization and a
set of named filtrations (all rationals serialized as "p/q" strings; floats
are rejected), dispatches the computation, and prints every value both as
an exact fraction and as a 12-digit decimal.

Exit codes: 0 success, 2 validation failure, 3 budget or tolerance failure.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import estimators, invariants, optimize
from .errors import (
    BudgetExceeded,
    ConestabError,
    ParseError,
    ToleranceNotReached,
    UnknownFiltration,
)
from .exactgeom import dot
from .filtration import monomial_filtration, rescale
from .singularity import from_rays, log_discrepancy, reeb_contains

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _rat(value, where):
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"expected an exact rational, got {value!r}", where)
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational 'p/q': {value!r}", where) from exc


def _int(value, where):
    try:
        return int(value)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"not an integer: {value!r}", where) from exc


def _rat_vector(values, where, rank):
    if not isinstance(values, list) or len(values) != rank:
        raise ParseError(f"expected a vector of length {rank}", where)
    return tuple(_rat(v, f"{where}[{i}]") for i, v in enumerate(values))


class InputDocument:
    """Parsed and validated problem description."""

    def __init__(self, payload, path="<doc>"):
        if not isinstance(payload, dict):
            raise ParseError("top level must be an object", path)
        rank = _int(payload.get("rank"), f"{path}.rank")
        rays = payload.get("rays")
        if not isinstance(rays, list) or not rays:
            raise ParseError("need a nonempty list of rays", f"{path}.rays")
        rays = [_rat_vector(r, f"{path}.rays[{i}]", rank) for i, r in enumerate(rays)]
        coeffs = payload.get("coefficients")
        if coeffs is not None:
            if not isinstance(coeffs, list) or len(coeffs) != len(rays):
                raise ParseError("need one coefficient per ray", f"{path}.coefficients")
            coeffs = [_rat(c, f"{path}.coefficients[{i}]") for i, c in enumerate(coeffs)]
        self.singularity = from_rays(rays, coeffs)
        if "reeb" not in payload:
            raise ParseError("missing field", f"{path}.reeb")
        self.reeb = _rat_vector(payload["reeb"], f"{path}.reeb", rank)
        if not reeb_contains(self.singularity, self.reeb):
            raise ParseError(
                f"reeb: boundary or exterior vector {tuple(map(str, self.reeb))} rejected",
                f"{path}.reeb")
        self.filtrations = {}
        for name, spec in (payload.get("filtrations") or {}).items():
            where = f"{path}.filtrations.{name}"
            if not isinstance(spec, dict) or "covectors" not in spec:
                raise ParseError("need an object with 'covectors'", where)
            covs = [_rat_vector(z, f"{where}.covectors[{i}]", rank)
                    for i, z in enumerate(spec["covectors"])]
            F = monomial_filtration(self.singularity, covs, require_primary=False)
            scale = _rat(spec.get("scale", 1), f"{where}.scale")
            if scale != 1:
                F = rescale(F, scale)
            self.filtrations[name] = F
        options = payload.get("options") or {}
        self.budget = options.get("budget")
        if self.budget is not None:
            self.budget = _int(self.budget, f"{path}.options.budget")
        self.tol = _rat(options.get("tol", "1/1000000000"), f"{path}.options.tol")
        self.levels = options.get("levels")

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise ParseError(str(exc), path)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}", path)
        return cls(payload, path=path)

    def filtration(self, name):
        if name not in self.filtrations:
            raise UnknownFiltration(
                f"no filtration named {name!r}; have {sorted(self.filtrations)}")
        return self.filtrations[name]


def _fmt(x) -> str:
    x = Fraction(x)
    return f"{x} ({float(x):.12g})"


def _fmt_vec(v) -> str:
    return "(" + ", ".join(str(Fraction(x)) for x in v) + ")"


def cmd_validate(args):
    doc = InputDocument.load(args.document)
    s = doc.singularity
    print(f"valid, u={_fmt_vec(s.u)}")
    print(f"klt: yes (coefficients {[str(c) for c in s.coefficients]})")
    print(f"reeb: {_fmt_vec(doc.reeb)} interior, A = {_fmt(log_discrepancy(s, doc.reeb))}")
    for name, F in sorted(doc.filtrations.items()):
        primary = all(
            dot(z, r) > 0 for z in F.covectors for r in s.weight_cone.rays)
        kind = "primary" if primary else "boundary-divisor type"
        print(f"filtration {name}: {kind}, covectors "
              + " ".join(_fmt_vec(z) for z in F.covectors))
    return EXIT_OK


def _invariant_report(doc):
    s = doc.singularity
    xi0 = doc.reeb
    rep = invariants.InvariantReport(entries={})
    rep.add("A", exact=log_discrepancy(s, xi0))
    rep.add("vol", exact=invariants.vol(s, xi0))
    rep.add("nvol", exact=invariants.nvol(s, xi0))
    return rep


def cmd_invariants(args):
    doc = InputDocument.load(args.document)
    s = doc.singularity
    xi0 = doc.reeb
    rep = _invariant_report(doc)
    F = doc.filtration(args.filtration)
    rep.add("S", exact=invariants.s_closed(s, xi0, F))
    rep.add("lambda_max", exact=invariants.lambda_max_closed(s, xi0, F))
    rep.add("lambda_min", exact=invariants.lambda_min_closed(s, xi0, F))
    lct = invariants.lct_monomial(s, F)
    rep.add("lct", exact=lct.value, minimizer=_fmt_vec(lct.minimizer))
    rep.add("D", exact=invariants.ding(s, xi0, F))
    rep.add("J", exact=invariants.j_norm(s, xi0, F))
    rj = invariants.reduced_j(s, xi0, F)
    rep.add("J_T", exact=rj.value, lower=rj.lower, upper=rj.upper,
            minimizer_twist=_fmt_vec(rj.minimizer_twist))
    if args.json:
        print(rep.to_json())
    elif args.csv:
        print("name,exact,decimal,method")
        for name, entry in rep.entries.items():
            print(f"{name},{entry.exact},{float(entry.exact):.12g},{entry.method}")
    else:
        print(f"filtration {args.filtration} over reeb {_fmt_vec(xi0)}")
        for name, entry in rep.entries.items():
            print(f"  {name:<11} = {_fmt(entry.exact)}")
    return EXIT_OK


def cmd_stability(args):
    doc = InputDocument.load(args.document)
    s = doc.singularity
    xi0 = doc.reeb
    value, ray = invariants.delta_T(s, xi0)
    ok, cert = invariants.semistable_verdict(s, xi0)
    print(f"delta_T = {_fmt(value)}, minimizing ray {_fmt_vec(ray)}")
    print(f"Fut certificate u - A*alpha0 = {_fmt_vec(cert)}")
    if ok:
        print("T-semistable: yes (Fut vanishes on the coweight lattice)")
    else:
        print(f"T-semistable: no, destabilizer ray {_fmt_vec(ray)}")
    return EXIT_OK


def cmd_nvolmin(args):
    doc = InputDocument.load(args.document)
    tol = _rat(args.tol, "--tol") if args.tol else doc.tol
    result = optimize.minimize_nvol(doc.singularity, tol=tol, raise_on_gap=True)
    if args.json:
        rep = invariants.InvariantReport(entries={})
        rep.add("nvol", exact=result.nvol_value, method=invariants.OPTIMIZER,
                lower=result.nvol_value - result.certificate_gap,
                upper=result.nvol_value,
                minimizer=_fmt_vec(result.minimizer),
                certificate_gap=result.certificate_gap,
                alignment_residual=_fmt_vec(result.alignment_residual))
        print(rep.to_json())
    else:
        print(f"minimizer xi* = {_fmt_vec(result.minimizer)}")
        print(f"nvol = {_fmt(result.nvol_value)}")
        print(f"certificate gap = {_fmt(result.certificate_gap)}")
        print(f"alignment residual = {_fmt_vec(result.alignment_residual)}")
    return EXIT_OK


def _parse_levels(expr):
    levels = []
    for piece in expr.split(","):
        piece = piece.strip()
        if ".." in piece:
            lo, hi = piece.split("..", 1)
            levels.extend(range(_int(lo, "--levels"), _int(hi, "--levels") + 1))
        elif piece:
            levels.append(_int(piece, "--levels"))
    if not levels:
        raise ParseError("empty level list", "--levels")
    return levels


def cmd_estimate(args):
    doc = InputDocument.load(args.document)
    F = doc.filtration(args.filtration)
    levels = _parse_levels(args.levels) if args.levels else (doc.levels or list(range(1, 51)))
    if args.approx:
        sw = estimators.sweep_approx(doc.singularity, doc.reeb, F, _int(args.approx, "--approx"),
                                     levels, budget=doc.budget)
    else:
        sw = estimators.sweep(doc.singularity, doc.reeb, F, levels, budget=doc.budget)
    payload = sw.to_json() if args.json else sw.to_csv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def cmd_okounkov(args):
    doc = InputDocument.load(args.document)
    s = doc.singularity
    body = invariants.okounkov_body(s, doc.reeb)
    out = {
        "vertices": [[str(Fraction(x)) for x in v] for v in body.body.vertices],
        "vol": str(body.vol),
        "bary": [str(Fraction(x)) for x in body.bary],
        "alpha0": [str(Fraction(x)) for x in body.alpha0],
    }
    if args.levels:
        levels = _parse_levels(args.levels)
        F = doc.filtration(args.filtration) if args.filtration else None
        t = _rat(args.t, "--t") if args.t else Fraction(0)
        clouds = {}
        for m in levels:
            if F is None:
                from .filtration import toric_filtration
                Fm = toric_filtration(s, doc.reeb)
                sample = estimators.gamma_semigroup(s, doc.reeb, Fm, m, 0,
                                                    budget=doc.budget)
            else:
                sample = estimators.gamma_semigroup(s, doc.reeb, F, m, t,
                                                    budget=doc.budget)
            clouds[str(m)] = [list(p) for p in sample.points]
        out["gamma"] = clouds
    print(json.dumps(out, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="conestab",
        description="Exact stability invariants of toric cone singularities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a document and report u, klt, reeb")
    p.add_argument("document")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariants", help="exact invariants of one filtration")
    p.add_argument("document")
    p.add_argument("--filtration", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("stability", help="delta, Futaki certificate, verdict")
    p.add_argument("document")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("nvolmin", help="minimize the normalized volume")
    p.add_argument("document")
    p.add_argument("--tol")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_nvolmin)

    p = sub.add_parser("estimate", help="finite-level estimator sweep (CSV)")
    p.add_argument("document")
    p.add_argument("--filtration", required=True)
    p.add_argument("--levels", help="e.g. 1..200 or 1,2,5,10")
    p.add_argument("--approx", help="sweep the degree-M approximating filtration")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("okounkov", help="emit body vertices and point clouds as JSON")
    p.add_argument("document")
    p.add_argument("--filtration")
    p.add_argument("--levels")
    p.add_argument("--t", help="order threshold for the cloud")
    p.set_defaults(func=cmd_okounkov)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceeded, ToleranceNotReached) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ConestabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
