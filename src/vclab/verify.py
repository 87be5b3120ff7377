"""Named verification suites: each checks one family of identities or
inequalities on fixed or seeded instances and reports per-case results.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import generators as gens
from . import ultrametric as um
from .instances import random_relation, random_system
from .relations import (
    BiRelation,
    FormulaSet,
    count_types,
    dual_shatter_relation,
    dualize,
    lift_parameter,
    shatter_relation,
    shelah_encode,
    system_of,
)
from .rooted import (
    average_degree,
    max_average_degree,
    mdeg_setsystem_formula,
    rooted_graph_of,
)
from .setsystem import (
    SetSystem,
    breadth,
    independence_dimension,
    mask_from_indices,
    sauer_shelah_bound,
    shatter_function,
    trace_count,
    vc_dimension,
)
from .value import Record


class VerificationCase(Record):
    name: str
    description: str
    expected: str
    observed: str
    status: str  # pass | fail | skipped

    def __init__(self, name, description, expected, observed, status):
        self.name = name
        self.description = description
        self.expected = expected
        self.observed = observed
        self.status = status

    @classmethod
    def check(cls, name, description, expected_desc, observed, ok):
        return cls(
            name,
            description,
            expected_desc,
            str(observed),
            "pass" if ok else "fail",
        )


def suite_sauer(seed: int = 0, budget=None):
    rng = random.Random(seed)
    cases = []
    for i in range(20):
        system = random_system(rng, n_max=10, m_max=30)
        d = vc_dimension(system, budget=budget)
        ok = True
        worst = None
        for t in range(system.ground_size + 1):
            value = shatter_function(system, t, budget=budget).value
            bound = sauer_shelah_bound(t, min(d, t)) if d >= 0 else 0
            if value > bound:
                ok = False
                worst = (t, value, bound)
        cases.append(
            VerificationCase.check(
                f"sauer-random-{i}",
                f"pi(t) <= C(t, <= {d}) on a random system, n={system.ground_size}",
                "no violation",
                "no violation" if ok else f"violation at {worst}",
                ok,
            )
        )
    return cases


def suite_duality(seed: int = 0, budget=None):
    rng = random.Random(seed)
    cases = []
    for i in range(10):
        rel = random_relation(rng, x_max=6, y_max=6)
        dual = dualize(rel)
        ok = all(
            shatter_relation(rel, t, budget=budget).value
            == dual_shatter_relation(dual, t, budget=budget).value
            for t in range(rel.x_size + 1)
        )
        cases.append(
            VerificationCase.check(
                f"duality-shatter-{i}",
                "pi of the relation equals dual pi of its transpose",
                "equal for all t",
                "equal" if ok else "mismatch",
                ok,
            )
        )
        va = vc_dimension(system_of(rel), budget=budget)
        vb = vc_dimension(system_of(dual), budget=budget)
        ok2 = va < 2 ** (1 + max(vb, 0)) if va >= 0 else True
        cases.append(
            VerificationCase.check(
                f"duality-vc-{i}",
                "VC dimension is bounded by 2^(1 + dual VC dimension)",
                f"{va} < 2^(1+{vb})",
                va,
                ok2,
            )
        )
    return cases


def suite_breadth_ind(seed: int = 0, budget=None):
    rng = random.Random(seed)
    cases = []
    for i in range(15):
        system = random_system(rng, n_max=8, m_max=10)
        b = breadth(system, budget=budget)
        ind = independence_dimension(system, budget=budget)
        cases.append(
            VerificationCase.check(
                f"breadth-ind-{i}",
                "breadth is at least the independence dimension",
                f"{b} >= {ind}",
                b,
                b >= ind,
            )
        )
    return cases


def suite_poizat(seed: int = 0, budget=None):
    cases = []
    for n in range(2, 25):
        system = gens.gen_subgroups_zn(n)
        b = breadth(system, budget=budget)
        ind = independence_dimension(system, budget=budget)
        cases.append(
            VerificationCase.check(
                f"poizat-z{n}",
                f"subgroup family of Z_{n}: breadth equals independence dimension",
                f"{ind}",
                b,
                b == ind,
            )
        )
    return cases


def suite_coding(seed: int = 0, budget=None):
    rng = random.Random(seed)
    cases = []
    for i in range(10):
        d = rng.choice([1, 2])
        x = rng.randint(2, 8)
        y = rng.randint(3, 8)
        delta = FormulaSet.of(
            BiRelation.from_rows(x, y, [rng.randrange(1 << y) for _ in range(x)])
            for _ in range(d)
        )
        psi, build = shelah_encode(delta)
        B = rng.sample(range(y), 3)
        params = build(B)
        lhs = count_types(delta, B)
        rhs = psi.count_types(params)
        ok = lhs <= rhs and len(params) == 2 * d * len(B)
        cases.append(
            VerificationCase.check(
                f"coding-{i}",
                f"guarded encoding refines the type space (d={d})",
                f"{lhs} <= encoded count, |B'| = {2 * d * len(B)}",
                f"{rhs}, |B'| = {len(params)}",
                ok,
            )
        )
    return cases


def suite_lift(seed: int = 0, budget=None):
    rng = random.Random(seed)
    cases = []
    t = 3
    for i in range(5):
        x = rng.randint(t, 5)
        y = rng.randint(2, 5)
        rel = BiRelation.from_rows(x, y, [rng.randrange(1 << y) for _ in range(x)])
        lifted = lift_parameter(rel, zero_element=0, aux_size=t + 1)
        base = shatter_relation(rel, t, budget=budget).value
        # the witness subset gives a certified lower bound on pi_psi(2t)
        best = 0
        lifted_system = system_of(lifted.relation)
        for combo in _sample_subsets(rng, rel.x_size, t, 40):
            objs = lifted.witness_subset(combo)
            best = max(best, trace_count(lifted_system, mask_from_indices(objs)))
        ok = t * base <= best
        cases.append(
            VerificationCase.check(
                f"lift-{i}",
                "parameter lift multiplies the shatter value by t",
                f"{t}*{base} <= lifted pi(2t)",
                best,
                ok,
            )
        )
    return cases


def _sample_subsets(rng, n, t, count):
    import itertools

    all_combos = list(itertools.combinations(range(n), t))
    if len(all_combos) <= count:
        return all_combos
    return rng.sample(all_combos, count)


def suite_phi_hat(seed: int = 0, budget=None):
    rng = random.Random(seed)
    cases = []
    for i in range(10):
        n = rng.randint(2, 8)
        rel = BiRelation.from_rows(n, n, [rng.randrange(1 << n) for _ in range(n)])
        amask = rng.randrange(1 << n)
        rep = gens.phi_hat_sandwich(rel, amask)
        ok = rep.lower_twice <= 2 * rep.trace_count <= 2 * rep.upper
        cases.append(
            VerificationCase.check(
                f"phi-hat-{i}",
                "trace count of the edge family is sandwiched by the isolated"
                " and boundary element counts and |E|",
                f"{rep.lower_twice}/2 <= count <= {rep.upper}",
                rep.trace_count,
                ok,
            )
        )
    return cases


def suite_incidence(seed: int = 0, budget=None):
    cases = []
    for q in (3, 5):
        rel = gens.gen_pointline_fq(q)
        cases.append(
            VerificationCase.check(
                f"fq-edges-q={q}",
                f"point-line incidences over F_{q}",
                f"expect {q ** 3}",
                rel.count_pairs(),
                rel.count_pairs() == q**3,
            )
        )
        witness = gens.detect_krs(rel, 2, 2, budget=budget)
        cases.append(
            VerificationCase.check(
                f"fq-k22-q={q}",
                "two points never share two lines",
                "absent",
                "absent" if witness is None else f"present {witness}",
                witness is None,
            )
        )
    for k in (1, 2):
        grid = gens.gen_elekes_grid(k)
        total = grid.incidence.count_pairs()
        cases.append(
            VerificationCase.check(
                f"elekes-k={k}",
                "grid incidence count",
                f"expect {4 * k ** 4}",
                total,
                total == 4 * k**4,
            )
        )
    return cases


def suite_balls(seed: int = 0, budget=None):
    cases = []
    space = um.UltrametricSpace.full(2, 5)
    ball = space.ball("00100", 2)
    count = um.count_balls_within(space, ball, 2)
    cases.append(
        VerificationCase.check(
            "beta p=2 d=2",
            "interior ball count matches the closed form",
            "expect 13",
            count.count,
            count.count == 13 and not count.boundary,
        )
    )
    space3 = um.UltrametricSpace.full(3, 3)
    ball3 = space3.ball("110", 1)
    count3 = um.count_balls_within(space3, ball3, 1)
    cases.append(
        VerificationCase.check(
            "beta p=3 d=1",
            "interior ball count matches the closed form",
            "expect 5",
            count3.count,
            count3.count == 5 and not count3.boundary,
        )
    )
    rng = random.Random(seed)
    space4 = um.UltrametricSpace.full(2, 4)
    ok = True
    for _ in range(20):
        a = rng.sample(space4.elements, rng.randint(2, 6))
        _, n_balls = um.special_ball_count(space4, a)
        ok = ok and n_balls <= len(a) - 1
    cases.append(
        VerificationCase.check(
            "special-balls",
            "pairwise valuation balls number at most |A|-1",
            "<= |A|-1 on 20 samples",
            "ok" if ok else "violated",
            ok,
        )
    )
    balls = [space4.ball(e, rng.randint(0, 4)) for e in rng.sample(space4.elements, 6)]
    system = um.ball_family_system(space4, balls)
    b = breadth(system, budget=budget)
    cases.append(
        VerificationCase.check(
            "ball-breadth",
            "every ball family is directed",
            "breadth 1",
            b,
            b == 1,
        )
    )
    return cases


def suite_rooted(seed: int = 0, budget=None):
    rng = random.Random(seed)
    cases = []
    for t, k in ((4, 2), (6, 3), (8, 2)):
        import itertools

        system = SetSystem.from_masks(
            t, [mask_from_indices(c) for c in itertools.combinations(range(t), k)]
        )
        g = rooted_graph_of(system)
        a = average_degree(g)
        m = max_average_degree(g)
        cases.append(
            VerificationCase.check(
                f"uniform-{t}-{k}",
                f"uniform {k}-subsets of a {t}-set: adeg == mdeg == 2k",
                f"{2 * k}",
                f"adeg={a}, mdeg={m}",
                a == m == Fraction(2 * k),
            )
        )
    for i in range(5):
        system = random_system(rng, n_max=6, m_max=8)
        g = rooted_graph_of(system)
        ok = max_average_degree(g) == mdeg_setsystem_formula(system)
        cases.append(
            VerificationCase.check(
                f"mdeg-formula-{i}",
                "incidence graph mdeg matches the subfamily mean formula",
                "equal",
                "equal" if ok else "mismatch",
                ok,
            )
        )
    return cases


def suite_hypercube(seed: int = 0, budget=None):
    cases = []
    for d in range(1, 9):
        edges, _ = gens.gen_hypercube_edges(d)
        expect = d * (1 << (d - 1))
        cases.append(
            VerificationCase.check(
                f"qd-edges-d={d}",
                f"edge count of the {d}-cube",
                f"{expect}",
                len(edges),
                len(edges) == expect,
            )
        )
    for d in (2, 3, 4):
        edges, _ = gens.gen_hypercube_edges(d)
        got = gens.max_induced_edges(edges, 1 << d, 4)
        cases.append(
            VerificationCase.check(
                f"qd-4sub-d={d}",
                "max edges induced on 4 vertices (the square)",
                "4",
                got,
                got == 4,
            )
        )
    return cases


SUITES = {
    "sauer": suite_sauer,
    "duality": suite_duality,
    "breadth-ind": suite_breadth_ind,
    "poizat": suite_poizat,
    "coding": suite_coding,
    "lift": suite_lift,
    "phi-hat": suite_phi_hat,
    "incidence": suite_incidence,
    "balls": suite_balls,
    "rooted": suite_rooted,
    "hypercube": suite_hypercube,
}


def run_suite(name: str, seed: int = 0, budget=None):
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed=seed, budget=budget)
