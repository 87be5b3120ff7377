"""Command-line front end.

Subcommands: gen (write a family to JSON), invariants (report exact
invariants of a set system), shatter / dual-shatter (profile CSV over a
t range), verify (run a named suite).  Exit codes: 0 success, 1
verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import generators as gens
from .config import resolve_budget
from .errors import BudgetExceededError, ShapeError, VcLabError
from .relations import BiRelation, FormulaSet, dual_shatter, system_of
from .setsystem import (
    SetSystem,
    breadth,
    helly_number,
    independence_dimension,
    shatter_function,
    vc_dimension,
)
from .verify import SUITES, run_suite

DEFAULT_SEED = 0


def _write_output(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _user_input(parse):
    """Report a ValueError (or a zero denominator) met by ``parse`` as a
    usage error; only in the load and parse layer does it mean bad input
    rather than a bug."""

    @functools.wraps(parse)
    def wrapped(spec):
        try:
            return parse(spec)
        except (ValueError, ZeroDivisionError) as exc:
            raise ShapeError(f"{spec!r}: {exc}") from exc

    return wrapped


@_user_input
def _parse_coords(spec: str):
    pts = []
    for chunk in spec.split(";"):
        x, y = chunk.split(",")
        pts.append((Fraction(x), Fraction(y)))
    return pts


@_user_input
def _parse_divisors(spec: str):
    return [int(d) for d in spec.split(",")]


# each family: the options it needs, and how to build it from them
FAMILIES = {
    "subsets": (("n", "d"), lambda a: gens.gen_subsets_at_most_d(a.n, a.d)),
    "intervals": (("points", "k"), lambda a: gens.gen_intervals(a.points, a.k)),
    "halfspaces": (
        ("coords",),
        lambda a: gens.gen_halfspaces(_parse_coords(a.coords)),
    ),
    "cosets": (
        ("n", "divisors"),
        lambda a: gens.gen_cosets_zn(a.n, _parse_divisors(a.divisors)),
    ),
    "subgroups": (
        ("n",),
        lambda a: gens.gen_subgroups_zn(
            a.n, _parse_divisors(a.divisors) if a.divisors else None
        ),
    ),
    "progressions": (
        ("window", "max_modulus"),
        lambda a: gens.gen_arithmetic_progressions(a.window, a.max_modulus),
    ),
    "pointline-fq": (("q",), lambda a: gens.gen_pointline_fq(a.q)),
    "elekes": (("k",), lambda a: gens.gen_elekes_grid(a.k).incidence),
    "hypercube": (("d",), lambda a: gens.gen_hypercube_edges(a.d)[1]),
}


def cmd_gen(args) -> int:
    needed, build = FAMILIES[args.family]
    for name in needed:
        if getattr(args, name) is None:
            option = "--" + name.replace("_", "-")
            raise ShapeError(f"--family {args.family} needs {option}")
    _write_output(json.dumps(build(args).to_json(), indent=2) + "\n", args.out)
    return 0


@_user_input
def _load_json(path):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ShapeError(f"{path!r}: expected a JSON object")
    return data


def _load_system(path) -> SetSystem:
    data = _load_json(path)
    if "rows" in data:
        return system_of(BiRelation.from_json(data))
    return SetSystem.from_json(data)


def cmd_invariants(args) -> int:
    system = _load_system(args.input)
    budget = resolve_budget(args.budget)
    report = {"member_count": len(system.members), "exactness": {}}
    for key, fn in (
        ("vc_dim", lambda: vc_dimension(system, budget=budget)),
        ("ind_dim", lambda: independence_dimension(system, budget=budget)),
        ("breadth", lambda: breadth(system, budget=budget)),
        ("helly", lambda: helly_number(system)),
    ):
        try:
            report[key] = fn()
            report["exactness"][key] = "exact"
        except BudgetExceededError as exc:
            # helly_number certifies no lower bound: it reports null
            report[key] = exc.lower_bound
            report["exactness"][key] = "skipped"
    _write_output(json.dumps(report, indent=2) + "\n", args.out)
    return 0


@_user_input
def _parse_range(spec: str):
    if ".." in spec:
        lo, hi = spec.split("..")
        return int(lo), int(hi)
    v = int(spec)
    return v, v


def cmd_shatter(args, dual: bool = False) -> int:
    lo, hi = _parse_range(args.t)
    samples = []
    exit_code = 0
    if dual:
        data = _load_json(args.input)
        if "relations" in data:
            delta = FormulaSet.from_json(data)
        else:
            delta = FormulaSet.of([BiRelation.from_json(data)])
        size_limit = delta.y_size
    else:
        system = _load_system(args.input)
        size_limit = system.ground_size
    if not (0 <= lo <= hi <= size_limit):
        print(f"t range {lo}..{hi} outside 0..{size_limit}", file=sys.stderr)
        return 2
    # read once here, so every row, t = 0 and sample mode included, sees
    # the same budget and a malformed one fails the command
    budget = resolve_budget(args.budget)
    for t in range(lo, hi + 1):
        try:
            if dual:
                res = dual_shatter(delta, t, budget=budget)
            else:
                res = shatter_function(
                    system, t, mode=args.mode, budget=budget, seed=args.seed
                )
            samples.append((t, res.value, res.exactness == "exact"))
        except BudgetExceededError as exc:
            print(f"t={t}: {exc}; row omitted", file=sys.stderr)
            if args.strict:
                exit_code = 1
    # emit rows directly; sampled values can be non-monotone which the
    # ShatterProfile invariants would reject
    lines = ["t,value,exact"]
    lines += [f"{t},{v},{1 if e else 0}" for t, v, e in samples]
    _write_output("\n".join(lines) + "\n", args.out)
    return exit_code


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(
            f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}",
            file=sys.stderr,
        )
        return 2
    cases = run_suite(args.suite, seed=args.seed, budget=args.budget)
    width = max(len(c.name) for c in cases) if cases else 4
    for c in cases:
        print(f"{c.name:<{width}}  {c.status:<7}  expected {c.expected}; observed {c.observed}")
    failed = [c for c in cases if c.status == "fail"]
    print(f"{len(cases) - len(failed)}/{len(cases)} cases passed")
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``vclab`` parser, built on the first call and shared after it:
    parsing keeps no state between calls (each returns a fresh namespace,
    every default is immutable, and messages look up ``sys.stderr`` when
    they print), so a process that calls ``main`` many times builds it
    once."""
    parser = argparse.ArgumentParser(prog="vclab")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="subset-evaluation budget (default from VCLAB_BUDGET or 10^7)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a family and write it as JSON")
    g.add_argument("--family", required=True, choices=list(FAMILIES))
    g.add_argument("--n", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--k", type=int)
    g.add_argument("--points", type=int)
    g.add_argument("--q", type=int)
    g.add_argument("--window", type=int)
    g.add_argument("--max-modulus", type=int, dest="max_modulus")
    g.add_argument("--divisors", type=str, default=None)
    g.add_argument("--coords", type=str, help='rational points "x,y;x,y;..."')
    g.add_argument("--out", type=str, default=None)
    g.set_defaults(func=cmd_gen)

    inv = sub.add_parser("invariants", help="exact invariants of a system")
    inv.add_argument("input")
    inv.add_argument("--out", type=str, default=None)
    inv.set_defaults(func=cmd_invariants)

    sh = sub.add_parser("shatter", help="shatter profile CSV over a t range")
    sh.add_argument("input")
    sh.add_argument("--t", required=True, help="range a..b or single value")
    sh.add_argument("--mode", choices=["exact", "sample"], default="exact")
    sh.add_argument("--strict", action="store_true")
    sh.add_argument("--out", type=str, default=None)
    sh.set_defaults(func=lambda a: cmd_shatter(a, dual=False))

    dsh = sub.add_parser("dual-shatter", help="dual shatter profile CSV")
    dsh.add_argument("input")
    dsh.add_argument("--t", required=True)
    dsh.add_argument("--mode", choices=["exact"], default="exact")
    dsh.add_argument("--strict", action="store_true")
    dsh.add_argument("--out", type=str, default=None)
    dsh.set_defaults(func=lambda a: cmd_shatter(a, dual=True))

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("--suite", required=True)
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (VcLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
