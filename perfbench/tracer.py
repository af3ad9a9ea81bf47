"""Spans and work counters recorded from outside the library.

``Tracer.install`` replaces each listed public function with a timing
wrapper at every module binding that holds it -- the defining module, the
package re-exports and the ``from .exactgeom import lp_solve``-style
aliases in ``filtration``, ``invariants``, ``optimize``, ``estimators`` and
``cli`` -- so calls between library modules are seen too.  Methods and the
small helpers ``dot``, ``vec`` and ``frac`` are left unwrapped: their cost
stays in the self time of the layer that calls them.

A span is (id, function, start_ns, end_ns, parent id, job id).  Spans stay
in memory until ``write_spans``.  Self time is a span's duration minus the
time covered by its direct children.
"""

import json
import sys
import time

LAYERS = {
    "linalg": ("conestab.exactgeom.linalg", ("solve", "mat_rank", "det", "nullspace")),
    "lp": ("conestab.exactgeom.lp", ("lp_solve", "fractional_lp")),
    "cone": ("conestab.exactgeom.cone",
             ("cone_from_rays", "cone_from_halfspaces", "dual_cone")),
    "polytope": ("conestab.exactgeom.polytope",
                 ("volume", "barycenter", "second_moment", "integrate_pl",
                  "enumerate_vertices", "slice_polytope", "triangulate")),
    "lattice": ("conestab.exactgeom.lattice", ("lattice_points_below",)),
    "singularity": ("conestab.singularity", ("from_rays",)),
    "filtration": ("conestab.filtration",
                   ("monomial_filtration", "twist", "geodesic", "intersect",
                    "approximant", "approx_ord", "newton_polyhedron")),
    "invariants": ("conestab.invariants",
                   ("okounkov_body", "vol", "nvol", "vol_derivative", "s_closed",
                    "lambda_max_closed", "lambda_min_closed", "j_norm",
                    "lct_monomial", "ding", "futaki_product", "futaki_derivative",
                    "delta_T", "semistable_verdict", "reduced_j",
                    "twisted_lambda_max", "inf_twist_s", "delta_red_objective",
                    "coercivity_constant_sq", "quotient_norm_sq")),
    "optimize": ("conestab.optimize", ("minimize_nvol",)),
    "estimators": ("conestab.estimators",
                   ("sweep", "sweep_approx", "bj_bound_check", "gamma_semigroup")),
}
ALL_LAYERS = tuple(LAYERS) + ("cli",)
INVARIANT_CACHES = ("_okounkov_cached", "_vol_cached", "_s_closed_cached",
                    "_lambda_max_cached")
# Counters that must repeat exactly between two traced runs of one seed.
EXACT = ("lp_rows", "lp_vars", "lp_solves", "lp_failed", "lattice_points",
         "kept_in", "kept_out", "newton_iterations", "levels",
         "cache_hits", "cache_misses")


def new_counts():
    counts = {f"{layer}.calls": 0 for layer in ALL_LAYERS}
    counts.update({key: 0 for key in EXACT})
    return counts


class Tracer:
    def __init__(self):
        self.spans = []
        self.functions = []        # function id -> "layer.name"
        self.stack = []            # [span id, child ns] per open span
        self.next_id = 0
        self.job = None
        self.counts = new_counts()
        self.self_ns = {layer: 0 for layer in ALL_LAYERS}
        self.lattice_ns = 0
        self._restore = []

    # -- wrapping ---------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "conestab" or name.startswith("conestab.")]
        for layer, (module_name, names) in LAYERS.items():
            home = sys.modules[module_name]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, layer, name, fn):
        fid = len(self.functions)
        self.functions.append(f"{layer}.{name}")
        extra = _EXTRAS.get(name)
        counts, stack, calls = self.counts, self.stack, f"{layer}.calls"

        def wrapper(*args, **kwargs):
            if extra is not None:
                args = extra.before(counts, args)
            counts[calls] += 1
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if extra is not None:
                    extra.failed(counts, exc)
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.self_ns[layer] += duration - frame[1]
                if layer == "lattice":
                    self.lattice_ns += duration
                self.spans.append((sid, fid, start, end, parent, self.job))
            if extra is not None:
                extra.after(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- jobs -------------------------------------------------------------

    def open_job(self, job_id):
        """Start the root span of one job; returns its frame."""
        self.job = job_id
        frame = [self.next_id, 0]
        self.next_id += 1
        self.stack.append(frame)
        return frame, time.perf_counter_ns()

    def close_job(self, frame, start):
        end = time.perf_counter_ns()
        self.stack.remove(frame)
        fid = self._function_id("job")
        self.spans.append((frame[0], fid, start, end, None, self.job))
        self.job = None
        return end - start, frame[1]

    def _function_id(self, name):
        if name not in self.functions:
            self.functions.append(name)
        return self.functions.index(name)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, fid, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": self.functions[fid],
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent, "job": job}) + "\n")


def cache_totals():
    """Summed hits and misses of the invariants module's lru caches."""
    inv = sys.modules["conestab.invariants"]
    hits = misses = 0
    for name in INVARIANT_CACHES:
        info = getattr(inv, name).cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


class _Extra:
    def before(self, counts, args):
        return args

    def after(self, counts, args, result):
        pass

    def failed(self, counts, exc):
        pass


class _LPSolve(_Extra):
    def before(self, counts, args):
        objective, constraints, *rest = args
        constraints = list(constraints)
        counts["lp_solves"] += 1
        counts["lp_rows"] += len(constraints)
        counts["lp_vars"] += len(objective)
        return (objective, constraints, *rest)

    def failed(self, counts, exc):
        from conestab.errors import Infeasible, LPUnbounded
        if isinstance(exc, (Infeasible, LPUnbounded)):
            counts["lp_failed"] += 1


class _Lattice(_Extra):
    def after(self, counts, args, result):
        counts["lattice_points"] += len(result)


class _Monomial(_Extra):
    def before(self, counts, args):
        s, covectors, *rest = args
        covectors = list(covectors)
        counts["kept_in"] += len(covectors)
        return (s, covectors, *rest)

    def after(self, counts, args, result):
        counts["kept_out"] += len(result.covectors)


class _Nvol(_Extra):
    def after(self, counts, args, result):
        counts["newton_iterations"] += result.iterations


class _Levels(_Extra):
    def after(self, counts, args, result):
        counts["levels"] += len(result.levels)


_EXTRAS = {
    "lp_solve": _LPSolve(),
    "lattice_points_below": _Lattice(),
    "monomial_filtration": _Monomial(),
    "minimize_nvol": _Nvol(),
    "sweep": _Levels(),
    "sweep_approx": _Levels(),
}


def layer_metrics(counts, self_ns, jobs):
    """Per-layer metrics: exact ``counts`` and mean self time per job."""
    per_job = max(jobs, 1)
    out = {}
    for layer in ALL_LAYERS:
        out[f"{layer}.calls"] = (counts[f"{layer}.calls"], "count")
        out[f"{layer}.self_s"] = (self_ns[layer] / 1e9 / per_job, "s")
    solves = counts["lp_solves"]
    out["lp.rows_mean"] = (counts["lp_rows"] / solves if solves else 0.0, "count")
    out["lp.vars_mean"] = (counts["lp_vars"] / solves if solves else 0.0, "count")
    lp_calls = counts["lp.calls"]
    out["lp.fail_ratio"] = (counts["lp_failed"] / lp_calls if lp_calls else 0.0, "ratio")
    out["lattice.points"] = (counts["lattice_points"], "count")
    out["filtration.kept_ratio"] = (
        counts["kept_out"] / counts["kept_in"] if counts["kept_in"] else 0.0, "ratio")
    lookups = counts["cache_hits"] + counts["cache_misses"]
    out["invariants.cache_hit_ratio"] = (
        counts["cache_hits"] / lookups if lookups else 0.0, "ratio")
    out["optimize.newton_iterations"] = (counts["newton_iterations"], "count")
    out["estimators.levels"] = (counts["levels"], "count")
    return out
