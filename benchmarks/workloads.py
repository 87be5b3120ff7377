"""The three workloads: inputs built from a seed, jobs, and their gates.

Every workload is a ``Workload(plan, build)``.  ``plan(api, seed, size)``
runs once per run, outside the timing, and returns what the set-up needs
from the seed.  ``build(api, plan, size, workdir) -> list[Job]`` is the
workload's set-up (timed as ``setup_s``); running the jobs in order is
one pass.  A job's ``run(api)`` is the timed call into
vclab; its ``check(result)`` runs after the pass, outside the timing, and
returns ``(answers, exact_answers)`` or raises ``GateError`` naming the
job.

Fixed families are relabelled by a seeded permutation of their ground
elements (and, for relations, of their parameters), which changes no
invariant, so every pinned value below holds for every seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import Any, Callable, NamedTuple


class GateError(Exception):
    """A job returned a wrong value or failed in a way a budget does not explain."""


class Capped(NamedTuple):
    """Pin of a budget-capped job: the exact value, and the least lower
    bound a skip must certify (the one the commit that added the
    benchmark certified)."""
    exact: int
    floor: int


class Job(NamedTuple):
    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any], tuple]
    sampled: bool = True  # counts towards job_ms
    inputs: tuple = ()  # (path, text) of the files it reads, written untimed
    outputs: tuple = ()  # files the job writes, removed before each pass


SKIPPED = "skipped"

# level-search jobs: (invariant, family, family arguments, budget).  The
# families are built by ``_level_family``.  Jobs are small (5 to 90 ms at
# full size) so that each repeats many times in a run.
LEVEL_JOBS = {
    "full": [
        ("vc", "intervals", (10, 2), None),
        ("vc", "intervals", (11, 2), None),
        ("vc", "intervals", (12, 2), None),
        ("ind", "halfspaces", (8, 11), None),
        ("ind", "halfspaces", (9, 11), None),
        ("breadth", "halfspaces", (7, 11), None),
        ("breadth", "halfspaces", (8, 11), None),
        ("breadth", "halfspaces", (8, 13), None),
        ("ind", "plane", (3,), None),
        ("ind", "plane", (5,), None),
        ("helly", "halfspace-family", (14, 17, 7, 3, 16, 1), None),
        ("helly", "halfspace-family", (14, 17, 7, 3, 17, 1), None),
        ("helly", "halfspace-family", (14, 17, 7, 3, 17, 2), None),
        ("ladder", "plane-relation", (3,), None),
        ("ladder", "intervals-relation", (6, 1), None),
        ("ladder", "subsets-relation", (6, 2), None),
        ("ind", "intervals", (7, 2), 5000),
        ("ind", "intervals", (8, 2), 10000),
    ],
    "tiny": [
        ("vc", "intervals", (8, 2), None),
        ("ind", "halfspaces", (7, 11), None),
        ("breadth", "halfspaces", (6, 11), None),
        ("ind", "plane", (3,), None),
        ("helly", "halfspace-family", (8, 11, 4, 2, 12, 0), None),
        ("ladder", "plane-relation", (3,), None),
        ("ind", "intervals", (6, 2), 300),
    ],
}

# Values without a closed form, pinned from the exact computation.  A
# budget-capped job pins Capped(exact value without a budget, floor).
PINNED = {
    "full": {
        "ind halfspaces(8, 11)": 2,
        "ind halfspaces(9, 11)": 2,
        "breadth halfspaces(7, 11)": 4,
        "breadth halfspaces(8, 11)": 5,
        "breadth halfspaces(8, 13)": 5,
        "ind plane(3,)": 2,
        "ind plane(5,)": 2,
        "helly halfspace-family(14, 17, 7, 3, 16, 1)": 3,
        "helly halfspace-family(14, 17, 7, 3, 17, 1)": 4,
        "helly halfspace-family(14, 17, 7, 3, 17, 2)": 4,
        "ladder plane-relation(3,)": 2,
        "ladder intervals-relation(6, 1)": 6,
        "ladder subsets-relation(6, 2)": 2,
        "ind intervals(7, 2) budget=5000": Capped(exact=2, floor=2),
        "ind intervals(8, 2) budget=10000": Capped(exact=3, floor=1),
    },
    "tiny": {
        "ind halfspaces(7, 11)": 2,
        "breadth halfspaces(6, 11)": 4,
        "ind plane(3,)": 2,
        "helly halfspace-family(8, 11, 4, 2, 12, 0)": 4,
        "ladder plane-relation(3,)": 2,
        "ind intervals(6, 2) budget=300": Capped(exact=2, floor=1),
    },
}

SIZES = {
    "full": {"intervals": (13, 2, 8), "fq": (7, 3), "frontend_jobs": 200},
    "tiny": {"intervals": (10, 2, 6), "fq": (5, 3), "frontend_jobs": 20},
}


def _fail(job, msg):
    raise GateError(f"{job}: {msg}")


def _perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return p


def relabel_system(api, rng, system):
    return api.pullback(system, _perm(rng, system.ground_size))


def relabel_relation(api, rng, rel):
    """The relation with its points and its parameters permuted."""
    px, py = _perm(rng, rel.x_size), _perm(rng, rel.y_size)
    rows = []
    for x in px:
        old = rel.rows[x]
        rows.append(sum(1 << j for j, y in enumerate(py) if (old >> y) & 1))
    return api.relations.BiRelation.from_rows(rel.x_size, rel.y_size, rows)


def _exact_profile(job, expected):
    """Gate for a list of ShatterValues against expected[t-1], t = 1, 2, ..."""
    def check(values):
        for t, (res, want) in enumerate(zip(values, expected), start=1):
            if res.exactness != "exact" or res.value != want:
                _fail(job, f"t={t}: got {tuple(res)}, expected exact {want}")
        if len(values) != len(expected):
            _fail(job, f"{len(values)} values for {len(expected)} t")
        return len(values), len(values)
    return check


def intervals_pi(t, k):
    """pi of unions of k intervals on a line: sum_{i <= 2k} C(t, i)."""
    return sum(math.comb(t, i) for i in range(2 * k + 1))


def plane_pi(t):
    """pi and pi* of the affine F_q point-line incidence, t <= 4."""
    return 1 + t + math.comb(t, 2)


def seed_plan(api, seed, size):
    """The plan of a fixed-family workload: the seed of its relabelling."""
    return seed


def shatter_profile(api, seed, size, workdir):
    """Exact pi and pi* profiles of fixed families: the atom-counting kernel.

    A job is one profile request, t = 1..t_max, as `vclab shatter --t`
    makes it.
    """
    n, k, t_max = SIZES[size]["intervals"]
    q, tq = SIZES[size]["fq"]
    rng = random.Random(seed)
    iv = relabel_system(api, rng, api.gen.gen_intervals(n, k))
    fq = relabel_relation(api, rng, api.gen.gen_pointline_fq(q))
    delta = api.relations.FormulaSet.of([fq])
    plane = api.system_of(fq)
    return [
        Job(f"pi intervals({n},{k}) t=1..{t_max}",
            lambda a: [a.shatter_function(iv, t) for t in range(1, t_max + 1)],
            _exact_profile(f"pi intervals({n},{k})",
                           [intervals_pi(t, k) for t in range(1, t_max + 1)])),
        Job(f"pi* fq{q} t=1..{tq}",
            lambda a: [a.dual_shatter(delta, t) for t in range(1, tq + 1)],
            _exact_profile(f"pi* fq{q}", [plane_pi(t) for t in range(1, tq + 1)])),
        Job(f"pi system_of(fq{q}) t=1..{tq}",
            lambda a: [a.shatter_function(plane, t) for t in range(1, tq + 1)],
            _exact_profile(f"pi system_of(fq{q})", [plane_pi(t) for t in range(1, tq + 1)])),
    ]


def _quadratic_points(count, p):
    return [(i, i * i % p) for i in range(count)]


def helly_family(api, count, p, min_size, step, members, offset):
    """A fixed family: from the half-plane traces of at least ``min_size``
    of the points (i, i^2 mod p), every ``step``-th from ``offset``, the
    first ``members`` of them."""
    h = api.gen.gen_halfspaces(_quadratic_points(count, p))
    big = [m for m in h.members if bin(m).count("1") >= min_size]
    return api.from_masks(count, big[offset::step][:members])


def _level_family(api, rng, family, args):
    """The family, relabelled by a seeded permutation."""
    g, relations = api.gen, api.relations
    if family == "intervals":
        return relabel_system(api, rng, g.gen_intervals(*args))
    if family == "halfspaces":
        return relabel_system(api, rng, g.gen_halfspaces(_quadratic_points(*args)))
    if family == "halfspace-family":
        return relabel_system(api, rng, helly_family(api, *args))
    if family == "plane":
        return api.system_of(relabel_relation(api, rng, g.gen_pointline_fq(*args)))
    if family == "plane-relation":
        return relabel_relation(api, rng, g.gen_pointline_fq(*args))
    if family == "intervals-relation":
        return relations.relation_of(relabel_system(api, rng, g.gen_intervals(*args)))
    if family == "subsets-relation":
        return relations.relation_of(
            relabel_system(api, rng, g.gen_subsets_at_most_d(*args)))
    raise ValueError(family)


def _budgeted(fn, skip_errors):
    try:
        return fn()
    except skip_errors as exc:
        return (SKIPPED, exc.lower_bound)


def _check_level(name, expected):
    """Gate of a level-search job.  A budget-capped job passes with its
    exact value, or skipped with a lower bound from its floor up to the
    exact value."""
    def check(res):
        if isinstance(expected, Capped):
            if res == expected.exact:
                return 1, 1
            if (isinstance(res, tuple) and res[0] == SKIPPED
                    and expected.floor <= res[1] <= expected.exact):
                return 1, 0
        elif res == expected:
            return 1, 1
        _fail(name, f"got {res!r}, expected {expected!r}")
    return check


def level_search(api, seed, size, workdir):
    """Level searches and DFS over fixed families, two of them budget-capped."""
    rng = random.Random(seed)
    skip = (api.vclab.BudgetExceededError, api.vclab.InconclusiveError)
    calls = {"vc": "vc_dimension", "ind": "independence_dimension",
             "breadth": "breadth", "helly": "helly_number",
             "ladder": "ladder_dimension"}
    jobs = []
    for inv, family, args, budget in LEVEL_JOBS[size]:
        obj = _level_family(api, rng, family, args)
        name = f"{inv} {family}{args}" + (f" budget={budget}" if budget else "")
        if inv == "vc" and family == "intervals":
            expected = 2 * args[1]  # VC of unions of k intervals is 2k
        else:
            expected = PINNED[size][name]
        kwargs = {"budget": budget} if budget else {}

        def run(a, fn=calls[inv], obj=obj, kwargs=kwargs):
            return _budgeted(lambda: getattr(a, fn)(obj, **kwargs), skip)

        jobs.append(Job(name, run, _check_level(name, expected)))
    return jobs


# --- frontend-batch -------------------------------------------------------

# `vclab gen` families whose ground set has at least 8 elements, so that
# `shatter --t 0..8` always makes 9 rows.  Each entry draws its arguments
# from the seed and names the library call the output must equal.
def _gen_specs(rng):
    pts = rng.randint(8, 9)
    k = 1
    n = rng.randint(8, 9)
    d = 2
    window = rng.randint(8, 10)
    mod = 3
    divisors = rng.choice(["2,3", "3,4", "2,6", "4,6"])
    coords = rng.sample([(x, y) for x in range(6) for y in range(6)], 8)
    cspec = ";".join(f"{x},{y}" for x, y in coords)
    return [
        (["--family", "intervals", "--points", str(pts), "--k", str(k)],
         lambda g: g.gen_intervals(pts, k).to_json()),
        (["--family", "subsets", "--n", str(n), "--d", str(d)],
         lambda g: g.gen_subsets_at_most_d(n, d).to_json()),
        (["--family", "progressions", "--window", str(window),
          "--max-modulus", str(mod)],
         lambda g: g.gen_arithmetic_progressions(window, mod).to_json()),
        (["--family", "cosets", "--n", "12", "--divisors", divisors],
         lambda g: g.gen_cosets_zn(12, [int(v) for v in divisors.split(",")]).to_json()),
        (["--family", "hypercube", "--d", "3"],
         lambda g: g.gen_hypercube_edges(3)[1].to_json()),
        (["--family", "pointline-fq", "--q", "3"],
         lambda g: g.gen_pointline_fq(3).to_json()),
        (["--family", "halfspaces", "--coords", cspec],
         lambda g: g.gen_halfspaces(coords).to_json()),
    ]


# Size class of each random kind: ("system", points, (least, most
# members)) or ("relation", points, parameters).
SIZE_CLASSES = {
    "S": ("system", 6, (8, 12)),
    "I": ("system", 8, (12, 14)),
    "J": ("system", 8, (21, 24)),
    "D": ("relation", 8, 6),
    "R": ("relation", 6, 5),
}


def _draw(api, rng, kind):
    """One draw for a job of ``kind``: (input, whether it is in the kind's
    size class).  A G job draws the arguments of its `vclab gen` calls."""
    if kind == "G":
        return _gen_specs(rng), True
    what, n, size = SIZE_CLASSES[kind]
    if what == "system":
        s = api.random_system(rng, n_max=n, m_max=size[1])
        return s, s.ground_size == n and size[0] <= len(s.members) <= size[1]
    r = api.random_relation(rng, x_max=8, y_max=8)
    return r, (r.x_size, r.y_size) == (n, size)


def _read(path):
    with open(path) as fh:
        return fh.read()


# One slot per job kind in a cycle of 10; the counts per kind, and so the
# number of answers and of skipped invariants, do not depend on the seed.
# Each kind draws from a narrow size class.  The 80 D jobs cost nearly the
# same whatever the draw (dual_shatter has no early exit), and they sit
# in the middle of the cost order, so p50 falls among them; p90 falls at
# the middle of the 40 J jobs, the slowest.  Both then hardly depend on
# the seed.
#   G: gen -> shatter -> classify      S: system -> shatter -> classify
#   I: system -> invariants            J: system, 21..24 members -> invariants
#   D: relation -> dual-shatter -> classify
#   R: relation -> invariants
KIND_CYCLE = "DSDRDIDGJJ"


class FrontendPlan(NamedTuple):
    seed: int
    states: list  # per job, the rng state at which its kept draw starts


def frontend_plan(api, seed, size):
    """Draw every job's input in size class from one seeded stream,
    conditioning by rejection, and keep the rng state of each kept draw.
    The rejected draws happen here, outside the set-up timing."""
    rng = random.Random(seed)
    states = []
    for i in range(SIZES[size]["frontend_jobs"]):
        while True:
            state = rng.getstate()
            if _draw(api, rng, KIND_CYCLE[i % len(KIND_CYCLE)])[1]:
                break
        states.append(state)
    return FrontendPlan(seed, states)


class _Frontend:
    """The jobs of frontend-batch, the JSON of the inputs they read from
    ``workdir`` and the library results their outputs must equal."""

    def __init__(self, api, plan, workdir):
        self.api = api
        self.seed = plan.seed
        self.jobs = []
        self.expected = {}
        rng = random.Random()
        for i, state in enumerate(plan.states):
            kind = KIND_CYCLE[i % len(KIND_CYCLE)]
            path = os.path.join(workdir, f"job{i:03d}.json")
            name = f"job{i:03d}-{kind}"
            rng.setstate(state)
            obj, in_class = _draw(api, rng, kind)
            if not in_class:
                raise RuntimeError(f"{name}: the planned draw left its size class")
            if kind == "G":
                argv, direct = obj[(i // len(KIND_CYCLE)) % len(obj)]
                self.jobs.append(self._gen_job(name, path, argv, direct))
                continue
            if kind in "IJR":
                job = self._invariants_job(name, path, obj)
            else:
                job = self._shatter_job(name, path, obj, dual=kind != "S")
            self.jobs.append(job._replace(inputs=((path, json.dumps(obj.to_json())),)))
        for suite in sorted(api.cli.SUITES):
            self.jobs.append(self._verify_job(suite))

    # The library call each CLI output must equal, computed once.
    def _system(self, obj):
        return obj if isinstance(obj, self.api.setsystem.SetSystem) else \
            self.api.relations.system_of(obj)

    def _reference(self, key, compute):
        if key not in self.expected:
            self.expected[key] = compute()
        return self.expected[key]

    def _cli(self, name, a, sub, argv):
        code = a.cli_main(sub, argv)
        if code != 0:
            raise GateError(f"{name}: `vclab {' '.join(argv)}` exited {code}")

    def _profile(self, a, csv_path):
        profile = a.from_csv(_read(csv_path))
        return a.classify_growth(profile)

    def _check_profile(self, name, csv_path, cls, values):
        text = _read(csv_path)
        rows = [tuple(int(v) for v in ln.split(",")) for ln in text.split()[1:]]
        want = [(t, v, 1) for t, v in enumerate(values)]
        if rows != want:
            _fail(name, f"CSV rows {rows} differ from the library's {want}")
        for t, v, _ in rows:
            if v > 1 << t:
                _fail(name, f"pi({t}) = {v} exceeds 2^{t}")
        if any(b[1] < a[1] for a, b in zip(rows, rows[1:])):
            _fail(name, f"profile not monotone: {rows}")
        est = self.api.estimator
        want_cls = self._reference(
            (name, "cls"), lambda: est.classify_growth(est.ShatterProfile.of(want)))
        if tuple(cls) != tuple(want_cls):
            _fail(name, f"classification {cls} differs from the library's {want_cls}")
        return len(rows), len(rows)

    def _shatter_job(self, name, path, obj, dual):
        api = self.api
        csv = path[:-5] + ".csv"
        size = obj.y_size if dual else obj.ground_size
        hi = min(size, 8)
        sub = "dual-shatter" if dual else "shatter"
        argv = [sub, path, "--t", f"0..{hi}", "--out", csv]

        def run(a):
            self._cli(name, a, sub, argv)
            return self._profile(a, csv)

        def values():
            if dual:
                delta = api.relations.FormulaSet.of([obj])
                return [api.relations.dual_shatter(delta, t).value for t in range(hi + 1)]
            return [api.setsystem.shatter_function(obj, t).value for t in range(hi + 1)]

        def check(cls):
            return self._check_profile(name, csv, cls, self._reference(name, values))

        return Job(name, run, check, outputs=(csv,))

    def _gen_job(self, name, path, gen_argv, direct):
        api = self.api
        csv = path[:-5] + ".csv"
        argv = ["shatter", path, "--t", "0..8", "--out", csv]

        def run(a):
            self._cli(name, a, "gen", ["gen", *gen_argv, "--out", path])
            self._cli(name, a, "shatter", argv)
            return self._profile(a, csv)

        def values():
            data = direct(api.generators)
            if "rows" in data:
                system = api.relations.system_of(api.relations.BiRelation.from_json(data))
            else:
                system = api.setsystem.SetSystem.from_json(data)
            return data, [api.setsystem.shatter_function(system, t).value
                          for t in range(9)]

        def check(cls):
            data, pis = self._reference(name, values)
            if json.loads(_read(path)) != data:
                _fail(name, f"`vclab gen {' '.join(gen_argv)}` differs from the library's")
            return self._check_profile(name, csv, cls, pis)

        return Job(name, run, check, outputs=(path, csv))

    def _invariants_job(self, name, path, obj):
        api = self.api
        out = path[:-5] + ".inv.json"
        argv = ["invariants", path, "--out", out]
        skip = (api.vclab.BudgetExceededError,)
        s = api.setsystem

        def report():
            system = self._system(obj)
            rep = {"member_count": len(system.members), "exactness": {}}
            for key, fn in (("vc_dim", s.vc_dimension),
                            ("ind_dim", s.independence_dimension),
                            ("breadth", s.breadth), ("helly", s.helly_number)):
                try:
                    rep[key] = fn(system)
                    rep["exactness"][key] = "exact"
                except skip as exc:
                    rep[key] = None if key == "helly" else exc.lower_bound
                    rep["exactness"][key] = SKIPPED
            dual_vc = s.vc_dimension(api.relations.dual_system(system))
            return system, rep, dual_vc

        def run(a):
            self._cli(name, a, "invariants", argv)

        def check(_):
            system, rep, dual_vc = self._reference(name, report)
            got = json.loads(_read(out))
            if got != rep:
                _fail(name, f"invariants {got} differ from the library's {rep}")
            exact = rep["exactness"]
            if exact["ind_dim"] == "exact" and exact["vc_dim"] == "exact":
                if rep["ind_dim"] != dual_vc:
                    _fail(name, f"IND {rep['ind_dim']} != VC of the dual {dual_vc}")
                bound = s.sauer_shelah_bound(system.ground_size, rep["vc_dim"])
                if len(system.members) > bound:
                    _fail(name, f"{len(system.members)} members exceed the "
                                f"Sauer-Shelah bound {bound}")
            return 4, sum(v == "exact" for v in exact.values())

        return Job(name, run, check, outputs=(out,))

    def _verify_job(self, suite):
        name = f"verify-{suite}"
        argv = ["--seed", str(self.seed), "verify", "--suite", suite]

        def run(a):
            self._cli(name, a, "verify", argv)

        return Job(name, run, lambda _: (0, 0), sampled=False)


def frontend_batch(api, plan, size, workdir):
    """Seeded CLI jobs that read and write files, plus every verify suite."""
    return _Frontend(api, plan, workdir).jobs


class Workload(NamedTuple):
    plan: Callable[[Any, int, str], Any]
    build: Callable[[Any, Any, str, str], list]


WORKLOADS = {
    "shatter-profile": Workload(seed_plan, shatter_profile),
    "level-search": Workload(seed_plan, level_search),
    "frontend-batch": Workload(frontend_plan, frontend_batch),
}
