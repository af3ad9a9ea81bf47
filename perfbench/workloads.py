"""Seeded inputs, jobs and output checks for the four benchmark workloads.

Generators produce only raw integer and "p/q" data; every job does all of
its library work itself (``from_rays``, ``monomial_filtration`` and so on),
so no job starts from an object another job built.  Jobs reach the library
through module attributes (``C.invariants.s_closed``), never through names
bound here, so the tracer's wrappers see every call.

A job returns ``(outputs, problems)``: ``outputs`` is a JSON-ready dict of
every exact value the job computed (its digest is pinned by the golden
files for the default seed) and ``problems`` lists the identity checks that
failed.  Each workload's ``prefix`` is the number of leading jobs whose
exact work counters the traced run reports.
"""

import hashlib
import json
import os
import random
import signal
import subprocess
import threading
from fractions import Fraction
from math import floor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_DIR = os.path.join(HERE, "golden")

F = Fraction
C = None  # the conestab package, bound by load_library()


def load_library():
    """Import every conestab module the jobs and the tracer touch."""
    global C
    import conestab
    import conestab.cli  # noqa: F401  (imported so the tracer can wrap it)
    C = conestab


def digest(outputs) -> str:
    text = json.dumps(outputs, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _q(x) -> str:
    return str(F(x))


def _qv(v):
    return [_q(x) for x in v]


def _combo(rnd, rays):
    """Strictly positive rational combination of the rays, as "p/q" strings."""
    out = [F(0)] * len(rays[0])
    for r in rays:
        c = F(rnd.randint(1, 3), rnd.randint(1, 2))
        out = [x + c * ri for x, ri in zip(out, r)]
    return _qv(out)


def _det(rows):
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _unique(rnd, draw, count, attempts=100000):
    """``count`` distinct draws; jobs never repeat an instance."""
    seen, out = set(), []
    for _ in range(attempts):
        item = draw(rnd, len(out))
        key = json.dumps(item, sort_keys=True)
        if key not in seen:
            seen.add(key)
            out.append(item)
            if len(out) == count:
                return out
    raise RuntimeError("generator ran out of distinct instances")


# ---------------------------------------------------------------------------
# invariants: random rank-2/3 simplicial cones, the LP- and polytope-heavy
# closed forms, no lattice enumeration.  A job is five cones of fixed
# shapes -- rank (60/40), covector counts and boundary coefficients (40%);
# only the numbers are random.  Job costs depend mostly on the shape, so
# every job does a comparable mix of work and runs on different seeds stay
# comparable.

# (rank, covectors of F, covectors of the second filtration, boundary?)
INVARIANTS_SHAPES = [(2, 1, 1, False), (2, 2, 2, True), (2, 3, 1, False),
                     (3, 1, 2, True), (3, 3, 1, False)]


def _draw_cone(rnd, rank, k, kb, boundary):
    while True:
        rays = [[rnd.randint(-2, 3) for _ in range(rank)] for _ in range(rank)]
        if _det(rays) != 0:  # independent rays: a pointed simplicial cone
            break
    coeffs = None
    if boundary:
        coeffs = [rnd.choice(["0", "1/2", "1/3", "2/5"]) for _ in rays]
    return {
        "rays": rays,
        "coefficients": coeffs,
        "reeb": _combo(rnd, rays),
        "covectors": [_combo(rnd, rays) for _ in range(k)],
        "covectors_b": [_combo(rnd, rays) for _ in range(kb)],
        "twist": _combo(rnd, rays),
        "t": f"{rnd.randint(1, 4)}/5",
        "eta": _combo(rnd, rays),
    }


def _draw_invariants(rnd, _index):
    return {"cones": [_draw_cone(rnd, *shape) for shape in INVARIANTS_SHAPES]}


def _closed_forms(s, xi0, G):
    inv = C.invariants
    rj = inv.reduced_j(s, xi0, G)
    lct = inv.lct_monomial(s, G)
    return {
        "S": inv.s_closed(s, xi0, G),
        "lambda_max": inv.lambda_max_closed(s, xi0, G),
        "lambda_min": inv.lambda_min_closed(s, xi0, G),
        "lct": lct.value,
        "lct_minimizer": _qv(lct.minimizer),
        "ding": inv.ding(s, xi0, G),
        "J": inv.j_norm(s, xi0, G),
        "J_T": rj.value,
        "J_T_twist": _qv(rj.minimizer_twist),
    }


def invariants_job(spec):
    outputs, problems = [], []
    for i, cone in enumerate(spec["cones"]):
        out, bad = _invariants_cone(cone)
        outputs.append(out)
        problems.extend(f"cone {i}: {p}" for p in bad)
    return outputs, problems


def _invariants_cone(spec):
    inv, fil = C.invariants, C.filtration
    s = C.singularity.from_rays(spec["rays"], spec["coefficients"])
    xi0 = spec["reeb"]
    Fj = fil.monomial_filtration(s, spec["covectors"])
    Fb = fil.monomial_filtration(s, spec["covectors_b"])
    t = F(spec["t"])
    tw = fil.twist(Fj, spec["twist"])
    geo = fil.geodesic([Fj, Fb], [1 - t, t])
    values = {name: _closed_forms(s, xi0, G)
              for name, G in (("F", Fj), ("twist", tw), ("geodesic", geo))}
    delta, ray = inv.delta_T(s, xi0)
    verdict, cert = inv.semistable_verdict(s, xi0)
    fut_p = inv.futaki_product(s, xi0, spec["eta"])
    fut_d = inv.futaki_derivative(s, xi0, spec["eta"])
    nv = C.optimize.minimize_nvol(s)
    s_b = inv.s_closed(s, xi0, Fb)
    s_xi = inv.s_closed(s, xi0, fil.toric_filtration(s, spec["twist"]))
    a_xi = C.singularity.log_discrepancy(s, spec["twist"])

    v = values
    problems = []
    if v["twist"]["lct"] != v["F"]["lct"] + a_xi:
        problems.append("lct twist identity")
    if v["twist"]["S"] != v["F"]["S"] + s_xi:
        problems.append("S twist identity")
    if v["geodesic"]["S"] != (1 - t) * v["F"]["S"] + t * s_b:
        problems.append("geodesic linearity of S")
    if any(v[name]["J"] < 0 for name in v):
        problems.append("J < 0")
    if fut_p != fut_d:
        problems.append("futaki_product != futaki_derivative")
    if delta > 1:
        problems.append("delta_T > 1")
    if nv.certificate_gap > F(1, 10 ** 9):
        problems.append("nvol certificate gap above tol")

    outputs = {
        name: {k: (x if isinstance(x, list) else _q(x)) for k, x in vals.items()}
        for name, vals in values.items()}
    outputs.update({
        "delta_T": [_q(delta), list(ray)],
        "verdict": [verdict, _qv(cert)],
        "futaki": _q(fut_p),
        "nvol": [_qv(nv.minimizer), _q(nv.nvol_value), _q(nv.certificate_gap),
                 _qv(nv.alignment_residual), nv.iterations],
        "S_b": _q(s_b), "S_xi": _q(s_xi), "A_xi": _q(a_xi),
    })
    return outputs, problems


# ---------------------------------------------------------------------------
# sweep: lattice enumeration and per-point orders, alternating C^2 at levels
# 1..200 with a rank-3 non-simplicial cone at levels 1..25.

R3_RAYS = [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]]
R3_REEB = [1, 1, 1]
C2_RAYS = [[1, 0], [0, 1]]


def _draw_c2_covectors(rnd, k):
    """``k`` integer covectors with entries 1..3, as in the acceptance battery."""
    return [[rnd.randint(1, 3), rnd.randint(1, 3)] for _ in range(k)]


def _draw_sweep(rnd, index):
    # A job runs both cases, so job costs stay alike; covector counts cycle
    # with the index.  C^2 takes 2-3 covectors: there are only nine single
    # ones, and no filtration may repeat within a run.
    return {"c2": _draw_c2_covectors(rnd, 2 + index % 2),
            "rank3": [_combo(rnd, R3_RAYS) for _ in range(1 + (index // 2) % 2)]}


def _rank3_count(m):
    """Points a of the R3 weight cone with a1+a2+a3 < m, counted by hand.

    The weight cone is a1, a2 >= 0, a1 + a3 >= 0, a2 + a3 >= 0; fixing a3
    leaves a shifted triangle, so N_m = T(1..m) + T(1..m-1) with
    T(r) = r(r+1)/2.
    """
    tri = [r * (r + 1) // 2 for r in range(m + 1)]
    return sum(tri[1:m + 1]) + sum(tri[1:m])


def _sweep_outputs(sw):
    return json.loads(sw.to_json())


def sweep_job(spec):
    est = C.estimators
    s = C.singularity.from_rays(C2_RAYS)
    xi0 = [1, 1]
    Fj = C.filtration.monomial_filtration(s, spec["c2"])
    sw = est.sweep(s, xi0, Fj, range(1, 201))
    S, lam = sw.target["S"], sw.target["lambda_max"]
    problems = []
    if any(st.N_m != st.m * (st.m + 1) // 2 for st in sw.per_level):
        problems.append("C2 N_m != m(m+1)/2")
    last = sw.row(200)
    if abs(last.Spp_m - S) > F(5, 100) * S:
        problems.append("S''_200 outside 5% of S")
    if abs(last.lammax_m - lam) > F(2, 100) * lam:
        problems.append("lammax_200 outside 2% of lambda_max")
    if abs(F(2 * last.N_m, 200 ** 2) - 1) > F(2, 100):
        problems.append("2 N_200 / 200^2 outside 2% of 1")
    eps = F(1, 10)
    bad = [st.m for st in sw.per_level if st.Spp_m > (1 + eps) * S]
    m0 = (max(bad) + 1) if bad else 1
    window = [m for m in range(m0, m0 + 25) if m <= 200]
    bj = est.bj_bound_check(s, xi0, Fj, eps, m0, levels=window)
    if not bj:
        problems.append("bj_bound_check false inside the certified window")

    s3 = C.singularity.from_rays(R3_RAYS)
    G = C.filtration.monomial_filtration(s3, spec["rank3"])
    sw3 = est.sweep(s3, R3_REEB, G, range(1, 26))
    if any(st.N_m != _rank3_count(st.m) for st in sw3.per_level):
        problems.append("rank-3 N_m differs from the hand count")
    if any(st.lammax_m > sw3.target["lambda_max"] for st in sw3.per_level):
        problems.append("rank-3 lammax_m above lambda_max")
    outputs = {"c2": _sweep_outputs(sw), "m0": m0, "bj": bj, "rank3": _sweep_outputs(sw3)}
    return outputs, problems


# ---------------------------------------------------------------------------
# approx: approximating filtrations on C^2.  Each job takes one filtration
# through all three forms -- sweep_approx, an approximant chain and
# approx_ord -- so that job costs stay comparable.

APPROX_LEVELS = 22  # sweep_approx costs grow as L^4; 22 keeps a job near 1 s


def _draw_approx(rnd, index):
    return {
        "covectors": _draw_c2_covectors(rnd, 2 + (index // 3) % 2),
        "M": 2 + index % 3,
        "m": rnd.randint(2, 4),
        "monomials": [[rnd.randint(0, 6), rnd.randint(0, 6)] for _ in range(3)],
    }


def approx_job(spec):
    fil, inv, est = C.filtration, C.invariants, C.estimators
    s = C.singularity.from_rays(C2_RAYS)
    xi0 = [1, 1]
    Fj = fil.monomial_filtration(s, spec["covectors"])
    problems = []

    M, levels = spec["M"], range(1, APPROX_LEVELS + 1)
    sa = est.sweep_approx(s, xi0, Fj, M, levels)
    plain = est.sweep(s, xi0, Fj, levels)
    generated = fil.approximant(Fj, M) == Fj
    pairs = list(zip(sa.per_level, plain.per_level))
    if any(a.TS_m > b.TS_m or a.lammax_m > b.lammax_m for a, b in pairs):
        problems.append("approx orders above the plain orders")
    if generated and any(a.TS_m != b.TS_m for a, b in pairs):
        problems.append("approx orders differ at the generation degree")

    S, lam = inv.s_closed(s, xi0, Fj), inv.lambda_max_closed(s, xi0, Fj)
    chain, prev, reached = [], None, None
    for m in range(1, 9):
        Fm = fil.approximant(Fj, m)
        S_m, lam_m = inv.s_closed(s, xi0, Fm), inv.lambda_max_closed(s, xi0, Fm)
        if S_m > S or lam_m > lam:
            problems.append(f"approximant {m} above F")
        if prev is not None and (S_m < prev[0] or lam_m < prev[1]):
            problems.append(f"approximant {m} not monotone")
        prev = (S_m, lam_m)
        chain.append([[_qv(z) for z in Fm.covectors], _q(S_m), _q(lam_m)])
        if Fm == Fj:
            reached = m
            break
    if reached is None:
        problems.append("approximant chain did not reach F by m = 8")

    m = spec["m"]
    orders = []
    for alpha in spec["monomials"]:
        a = fil.approx_ord(Fj, m, alpha)
        g = fil.ord_of(Fj, alpha)
        if a > floor(g):
            problems.append(f"approx_ord above floor(g) at {alpha}")
        if g <= m and a != floor(g):
            problems.append(f"approx_ord != floor(g) at {alpha} with g <= m")
        orders.append([a, _q(g)])

    outputs = {"sweep_approx": _sweep_outputs(sa), "generated": generated,
               "chain": chain, "reached": reached, "approx_ord": orders}
    return outputs, problems


# ---------------------------------------------------------------------------
# cli_cold: one fresh ``python -m conestab.cli`` per job on fixed documents.

CLI_CASES = [
    # (name, CLI arguments naming a document in docs/, expected exit code)
    ("validate_c2", ["validate", "c2_fex.json"], 0),
    ("invariants_c2", ["invariants", "c2_fex.json", "--filtration", "FEX"], 0),
    ("invariants_a1_csv", ["invariants", "a1.json", "--filtration", "G", "--csv"], 0),
    ("invariants_rank3_json", ["invariants", "rank3.json", "--filtration", "G", "--json"], 0),
    ("stability_z3", ["stability", "z3.json"], 0),
    ("stability_half", ["stability", "half.json"], 0),
    ("nvolmin_a1", ["nvolmin", "a1.json"], 0),
    ("nvolmin_z3_json", ["nvolmin", "z3.json", "--json"], 0),
    ("estimate_c2", ["estimate", "c2_fex.json", "--filtration", "FEX", "--levels", "1..30"], 0),
    ("estimate_rank3", ["estimate", "rank3.json", "--filtration", "G", "--levels", "1..8"], 0),
    ("okounkov_z3", ["okounkov", "z3.json", "--filtration", "G", "--levels", "2,4", "--t", "1"], 0),
    ("okounkov_half", ["okounkov", "half.json"], 0),
    ("malformed", ["validate", "malformed.json"], 2),
    ("estimate_capped", ["estimate", "capped.json", "--filtration", "FEX", "--levels", "1..50"], 3),
]


def cli_plan(seed, count):
    """Seeded order of the CLI cases: whole shuffled cycles, back to back."""
    rnd = random.Random(seed)
    plan = []
    while len(plan) < count:
        order = list(range(len(CLI_CASES)))
        rnd.shuffle(order)
        plan.extend(order)
    return [{"case": i} for i in plan[:count]]


def cli_argv(case, child):
    """The case's command line after ``child``, with documents relative to ROOT."""
    name, argv, expected = CLI_CASES[case]
    argv = [os.path.join("perfbench", "docs", a) if a.endswith(".json") else a
            for a in argv]
    return name, child + argv, expected


def run_child(argv, env):
    """Run a child in ROOT to completion; return (exit code, stdout, stderr,
    peak RSS in KiB).

    The child is reaped with ``os.wait4`` so its own peak RSS is known.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    err = []

    def read_stderr():
        # The reference sampler's SIGALRM must reach the main thread, even
        # while it waits on the child's stdout.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        err.append(proc.stderr.read())

    reader = threading.Thread(target=read_stderr)
    reader.start()
    out = proc.stdout.read()
    reader.join()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err[0], usage.ru_maxrss


def golden_path(workload):
    return os.path.join(GOLDEN_DIR, f"{workload}.json")


def load_golden(workload):
    path = golden_path(workload)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def cli_golden_stdout(case):
    with open(os.path.join(GOLDEN_DIR, "cli", CLI_CASES[case][0] + ".out"), "rb") as fh:
        return fh.read()


WORKLOADS = {
    "invariants": {"draw": _draw_invariants, "job": invariants_job,
                   "default_seed": 2024, "inputs": 120, "prefix": 8},
    "sweep": {"draw": _draw_sweep, "job": sweep_job,
              "default_seed": 20, "inputs": 30, "prefix": 2},
    "approx": {"draw": _draw_approx, "job": approx_job,
               "default_seed": 33, "inputs": 120, "prefix": 6},
    "cli_cold": {"draw": None, "job": None,
                 "default_seed": 1, "inputs": 3000, "prefix": len(CLI_CASES)},
}


def make_inputs(workload, seed):
    w = WORKLOADS[workload]
    if workload == "cli_cold":
        return cli_plan(seed, w["inputs"])
    return _unique(random.Random(seed), w["draw"], w["inputs"])
