"""In-memory spans around the calls the benchmark makes into vclab.

A span records a name, start, end, parent span and job id.  Spans are
kept in flat arrays while a traced pass runs and are written out once,
when the run ends.  Besides the calls the workloads make directly, a
traced pass may wrap two kinds of names, both from this file:

* the kernel attributes ``vclab.setsystem.trace_count`` and
  ``vclab.relations.count_types``, so that kernel time splits from the
  search that calls it;
* the names ``vclab.cli`` imports, so that a CLI call splits into the
  library calls it makes and its own parsing and output (self time).

Nothing inside vclab is edited; the wraps are undone after each pass.
A span is named after the vclab function it wraps: its module without
the package, then its name, as ``setsystem.vc_dimension``.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time
import types
from array import array
from collections import Counter
from contextlib import contextmanager

SETUP_JOB = -2

MODULES = ("setsystem", "relations", "generators", "instances", "estimator",
           "verify", "cli")


def is_vclab_function(obj):
    return inspect.isroutine(obj) and getattr(obj, "__module__", "").startswith("vclab.")


def span_name(fn):
    """``setsystem.vc_dimension`` for vclab.setsystem.vc_dimension."""
    return f"{fn.__module__.removeprefix('vclab.')}.{fn.__name__}"


class Tracer:
    """Spans of the traced passes of one run, plus per-name counters."""

    def __init__(self, skip_errors):
        self.skip_errors = tuple(skip_errors)
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.stack = []
        self.job_id = -1
        self.counts = Counter()

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, work=None, after=None):
        """``fn`` with a span around each call.  ``work(args)`` gives the
        amount of work the call does (summed per name); ``after(args,
        result)`` may update ``self.counts``."""
        nid = self._id(name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.job.append(self.job_id)
            self.work.append(work(args) if work else 0.0)
            self.end.append(0.0)
            self.stack.append(sid)
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            except self.skip_errors:
                self.counts[name + ".skipped"] += 1
                raise
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                self.end[sid] = perf()
                self.stack.pop()
            if after:
                after(args, result)
            return result

        return traced

    def parent_name(self):
        """Name of the innermost open span, or None."""
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    def summary(self, passes=1):
        """Per span name: calls, busy_s, self_s and summed work, for one
        set-up (spans with job SETUP_JOB) plus one pass (the other spans,
        divided by ``passes``)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0, "work": 0.0}
               for name in self.names}
        per_pass = 1.0 / max(passes, 1)
        for i in range(n):
            w = 1.0 if self.job[i] == SETUP_JOB else per_pass
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += w
            row["busy_s"] += w * dur
            row["self_s"] += w * (dur - child[i])
            row["work"] += w * self.work[i]
        return out

    def write(self, path):
        """All spans as gzipped TSV: id, name, start_s, end_s, parent, job."""
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tjob\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.job[i]}\n")


def plain_api(vclab):
    """The public functions the workloads call, unwrapped."""
    from vclab import cli, estimator, generators, instances, relations, setsystem

    return types.SimpleNamespace(
        vclab=vclab,
        setsystem=setsystem,
        relations=relations,
        generators=generators,
        instances=instances,
        estimator=estimator,
        cli=cli,
        from_masks=setsystem.SetSystem.from_masks,
        shatter_function=setsystem.shatter_function,
        vc_dimension=setsystem.vc_dimension,
        independence_dimension=setsystem.independence_dimension,
        breadth=setsystem.breadth,
        helly_number=setsystem.helly_number,
        pullback=relations.pullback,
        dual_shatter=relations.dual_shatter,
        ladder_dimension=relations.ladder_dimension,
        system_of=relations.system_of,
        gen=generators,
        random_system=instances.random_system,
        random_relation=instances.random_relation,
        from_csv=estimator.ShatterProfile.from_csv,
        classify_growth=estimator.classify_growth,
        cli_main=lambda sub, argv: cli.main(argv),
    )


class _TracedModule:
    """Stand-in for a vclab module whose public functions are traced."""

    def __init__(self, module, tracer):
        for name in dir(module):
            attr = getattr(module, name)
            if (not name.startswith("_") and is_vclab_function(attr)
                    and attr.__module__ == module.__name__):
                attr = tracer.wrap(span_name(attr), attr)
            setattr(self, name, attr)


def traced_api(api, tracer):
    """``api`` with a span around each call the workloads make into vclab."""
    traced = types.SimpleNamespace(**vars(api))
    for attr, value in vars(api).items():
        if is_vclab_function(value):
            setattr(traced, attr, tracer.wrap(span_name(value), value))
    traced.gen = _TracedModule(api.generators, tracer)
    cli_spans = {}

    def cli_main(sub, argv):
        fn = cli_spans.get(sub)
        if fn is None:
            fn = cli_spans[sub] = tracer.wrap("cli." + sub, api.cli.main)
        code = fn(argv)
        if code != 0:
            tracer.counts[f"cli.{sub}.errors"] += 1
        return code

    traced.cli_main = cli_main
    return traced


@contextmanager
def kernel_and_cli_wraps(api, tracer):
    """Wrap the kernel attributes and the names vclab.cli imports (its
    vclab functions and modules, and SetSystem) for the duration of one
    traced pass, then put the originals back."""
    setsystem, relations, cli = api.setsystem, api.relations, api.cli
    counts = tracer.counts

    def trace_count_after(args, result):
        if tracer.parent_name() == "setsystem.vc_dimension":
            counts["setsystem.vc_dimension.kernel_calls"] += 1
            if result == 1 << bin(args[1]).count("1"):
                counts["setsystem.vc_dimension.shattered"] += 1

    def suite_after(args, result):
        counts["verify.run_suite.failed"] += sum(c.status == "fail" for c in result)

    from_masks = tracer.wrap(span_name(setsystem.SetSystem.from_masks),
                             setsystem.SetSystem.from_masks)

    class TracedSetSystem(setsystem.SetSystem):
        """cli's SetSystem name: loads through a traced from_masks and
        returns plain SetSystem objects."""

        @classmethod
        def from_masks(cls, ground_size, masks):
            return from_masks(ground_size, masks)

    patches = [
        (setsystem, "trace_count", tracer.wrap(
            span_name(setsystem.trace_count), setsystem.trace_count,
            work=lambda a: len(a[0].members), after=trace_count_after)),
        (relations, "count_types", tracer.wrap(
            span_name(relations.count_types), relations.count_types,
            work=lambda a: a[0].x_size * len(a[0].relations) * len(a[1]))),
        (cli, "SetSystem", TracedSetSystem),
    ]
    for attr, value in vars(cli).items():
        if is_vclab_function(value) and value.__module__ != cli.__name__:
            after = suite_after if value.__name__ == "run_suite" else None
            patches.append((cli, attr, tracer.wrap(span_name(value), value, after=after)))
        elif inspect.ismodule(value) and value.__name__.startswith("vclab."):
            patches.append((cli, attr, _TracedModule(value, tracer)))
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, value in patches:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in saved:
            setattr(obj, attr, value)


def _get(per, name, key):
    return per.get(name, {}).get(key, 0.0)


def _rate(work, busy):
    return work / busy if busy > 0 else 0.0


def per_layer_values(tracer, traced_passes, overhead_s):
    """Every per-layer metric of BENCHMARK.json, by name, for one set-up
    plus one pass."""
    per = tracer.summary(traced_passes)
    counts = {k: v / max(traced_passes, 1) for k, v in tracer.counts.items()}
    m = {}
    for name in ("setsystem.shatter_function", "setsystem.from_masks",
                 "relations.dual_shatter"):
        m[name + ".busy_s"] = _get(per, name, "busy_s")
        m[name + ".calls"] = _get(per, name, "calls")
    tc, ct = "setsystem.trace_count", "relations.count_types"
    for name in (tc, ct):
        m[name + ".busy_s"] = _get(per, name, "busy_s")
        m[name + ".calls"] = _get(per, name, "calls")
    m[tc + ".members_per_s"] = _rate(_get(per, tc, "work"), _get(per, tc, "busy_s"))
    m[ct + ".cells_per_s"] = _rate(_get(per, ct, "work"), _get(per, ct, "busy_s"))
    vc = "setsystem.vc_dimension"
    m[vc + ".busy_s"] = _get(per, vc, "busy_s")
    m[vc + ".calls"] = _get(per, vc, "calls")
    kernel = counts.get(vc + ".kernel_calls", 0.0)
    m[vc + ".shattered_ratio"] = counts.get(vc + ".shattered", 0.0) / kernel if kernel else 0.0
    for fn in ("independence_dimension", "breadth", "helly_number"):
        name = "setsystem." + fn
        m[name + ".busy_s"] = _get(per, name, "busy_s")
        m[name + ".calls"] = _get(per, name, "calls")
        m[name + ".skipped"] = counts.get(name + ".skipped", 0.0)
    for name in ("relations.ladder_dimension", "relations.system_of",
                 "estimator.classify_growth"):
        m[name + ".busy_s"] = _get(per, name, "busy_s")
    gens = [r for name, r in per.items() if name.startswith("generators.")]
    m["generators.busy_s"] = sum(r["busy_s"] for r in gens)
    m["generators.calls"] = sum(r["calls"] for r in gens)
    rs = "verify.run_suite"
    m[rs + ".busy_s"] = _get(per, rs, "busy_s")
    m[rs + ".calls"] = _get(per, rs, "calls")
    m[rs + ".failed"] = counts.get(rs + ".failed", 0.0)
    for sub in ("gen", "invariants", "shatter", "dual-shatter", "verify"):
        name = "cli." + sub
        m[name + ".busy_s"] = _get(per, name, "busy_s")
        m[name + ".self_s"] = _get(per, name, "self_s")
        m[name + ".calls"] = _get(per, name, "calls")
        m[name + ".errors"] = counts.get(name + ".errors", 0.0)
    for module in MODULES:
        m[module + ".self_s"] = sum(r["self_s"] for name, r in per.items()
                                    if name.split(".")[0] == module)
    m["trace.overhead_s"] = overhead_s
    m["trace.spans"] = sum(r["calls"] for r in per.values())
    return m


def write_summary(path, tracer, traced_passes, overhead_s, extra):
    """Per span name calls, busy and self time (one set-up plus one pass)."""
    doc = dict(extra, traced_passes=traced_passes, overhead_s=overhead_s,
               spans=len(tracer.start), by_name=tracer.summary(traced_passes))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
