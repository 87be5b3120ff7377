"""vclab benchmark: one workload, measured end to end or traced per layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload level-search --seed 1 --seconds 36 --trace 0

The run imports vclab from ``src/`` of the same checkout, makes the
workload's plan from ``--seed`` (untimed), builds the inputs from it,
then repeats whole passes over the workload's jobs until ``--seconds``
would be exceeded by one more pass.  The set-up (fresh import plus
build) runs 21 times, spread over the run, each time once on every
allowed CPU keeping the fastest; ``setup_s`` is the median of the 21.
It is a closed loop from one client thread: each job starts when the
previous one returns.  Every result is checked after its pass, outside
the timing.  Human-readable lines go to stdout first; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every result is correct, 1 when a
gate tripped and 2 when the run could not start.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a
separate run: it alternates untraced and traced passes and reports the
per-layer metrics (one set-up plus one pass) and the tracing overhead
(fastest traced pass minus fastest untraced pass).  It writes the spans
and a per-name summary under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 21


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the benchmark's self-tests")
    return p.parse_args(argv)


def fresh_import():
    """Import vclab and its modules anew from SRC; return the module."""
    for name in [m for m in sys.modules if m == "vclab" or m.startswith("vclab.")]:
        del sys.modules[name]
    vclab = importlib.import_module("vclab")
    importlib.import_module("vclab.cli")
    return vclab


def allowed_cpus():
    """The CPUs this process may run on, or [] where that is unknown."""
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


def pin_to(cpus):
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1): the value at rank ceil(q*n)."""
    s = sorted(values)
    return s[max(math.ceil(q * len(s)), 1) - 1]


class Gate:
    """Answers attempted, exact and failed, and the first failures by job."""

    def __init__(self):
        self.attempted = 0
        self.exact = 0
        self.failed = 0
        self.messages = []

    def fail(self, message):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)


def run_pass(jobs, api, tracer, job_base):
    """Run every job once; return (pass wall seconds, [(job, ms, result, error)])."""
    # Every pass writes its outputs to new files.  Overwriting a file
    # makes ext4 start its writeback on close, which would time the disk.
    for job in jobs:
        for path in job.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
    out = []
    perf = time.perf_counter
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for k, job in enumerate(jobs):
            if tracer is not None:
                tracer.job_id = job_base + k
            t0 = perf()
            try:
                result, error = job.run(api), None
            except Exception as exc:  # any failure is reported, named by job
                result, error = None, exc
            out.append((job, (perf() - t0) * 1e3, result, error))
    return sum(ms for _, ms, _, _ in out) / 1e3, out


def write_inputs(jobs):
    """Write the files the jobs read.  This is file-system work, not
    vclab's: creating one small file took 0.2 to 0.6 ms on a 2-vCPU VM,
    varying threefold between set-ups, so it stays out of ``setup_s``."""
    for job in jobs:
        for path, text in job.inputs:
            Path(path).write_text(text)


def check_pass(results, gate, GateError):
    for job, _, result, error in results:
        if error is not None:
            gate.fail(f"{job.name}: raised {type(error).__name__}: {error}")
            continue
        try:
            answers, exact = job.check(result)
        except GateError as exc:
            gate.fail(str(exc))
            continue
        gate.attempted += answers
        gate.exact += exact


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "vclab" / "__init__.py").is_file():
        print(f"error: no vclab sources at {SRC}", file=sys.stderr)
        return 2
    # Set-up times vclab's import.  Its bytecode is cached under OUT
    # whatever PYTHONDONTWRITEBYTECODE says, so set-up loads bytecode, as
    # an installed package does, in every environment.
    OUT.mkdir(exist_ok=True)
    sys.pycache_prefix = str(OUT / "pycache")
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    vclab = fresh_import()
    if Path(vclab.__file__).resolve().parent != (SRC / "vclab").resolve():
        print(f"error: imported vclab from {vclab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    plan = workload.plan(tracing.plain_api(vclab), args.seed, args.size)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return measure(args, workload.build, plan, workdir, tracing, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, build, plan, workdir, tracing, workloads):
    perf = time.perf_counter

    def set_up():
        """Import vclab afresh and build the jobs, once on each CPU in
        turn; append the fastest of these times to ``setups``."""
        times = []
        for cpu in cpus:
            if len(cpus) > 1:
                pin_to({cpu})
            gc.collect()  # garbage of earlier passes and imports is not set-up work
            t0 = perf()
            vclab = fresh_import()
            api = tracing.plain_api(vclab)
            jobs = build(api, plan, args.size, workdir)
            times.append(perf() - t0)
        setups.append(min(times))
        return vclab, api, jobs

    # Each vCPU of a small VM slows down on its own, for stretches up to a
    # whole run.  Set-ups run on every CPU and passes rotate over them, so
    # that every measurement meets each of them.  The run stays one
    # thread: nothing overlaps.
    cpus = allowed_cpus() or [None]
    setups = []
    vclab, api, jobs = set_up()
    skip_errors = (vclab.BudgetExceededError, vclab.InconclusiveError)
    tracer = traced = None
    if args.trace:
        tracer = tracing.Tracer(skip_errors)
        tracer.job_id = tracing.SETUP_JOB
        traced = tracing.traced_api(api, tracer)
        # one traced set-up, whose jobs are the ones the passes run
        with tracing.kernel_and_cli_wraps(api, tracer):
            jobs = build(traced, plan, args.size, workdir)
    write_inputs(jobs)

    gate = Gate()
    walls = {False: [], True: []}
    job_ms = {}  # job index -> latencies over the untraced passes
    start = perf()
    n_pass = 0
    while True:
        use_trace = bool(args.trace) and n_pass % 2 == 1
        if len(cpus) > 1:
            pin_to({cpus[(n_pass // (1 + args.trace)) % len(cpus)]})
        if use_trace:
            with tracing.kernel_and_cli_wraps(api, tracer):
                wall, results = run_pass(jobs, traced, tracer, n_pass * len(jobs))
        else:
            wall, results = run_pass(jobs, api, None, 0)
        n_pass += 1
        walls[use_trace].append(wall)
        if not use_trace:
            for k, (_, ms, _, _) in enumerate(results):
                job_ms.setdefault(k, []).append(ms)
        check_pass(results, gate, workloads.GateError)
        if gate.failed:
            break
        elapsed = perf() - start
        # The other set-ups are spread over the run, so that their median
        # does not rest on one slow stretch of the machine.
        due = len(setups) * args.seconds / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and elapsed >= due:
            set_up()
        need_more = args.trace and not walls[True]
        if elapsed + wall > args.seconds and not need_more:
            break
    while len(setups) < SETUP_REPEATS:
        set_up()

    if len(cpus) > 1:
        pin_to(set(cpus))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    untraced = walls[False]
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}")
    best_ms = {k: min(v) for k, v in job_ms.items()}
    sampled = [ms for k, ms in best_ms.items() if jobs[k].sampled]
    print(f"passes {len(untraced)} untraced, {len(walls[True])} traced; "
          f"{len(jobs)} jobs per pass, {len(sampled)} of them sampled")
    print(f"set-up s: {' '.join(f'{w:.4f}' for w in setups)}")
    print(f"pass wall s: {' '.join(f'{w:.4f}' for w in untraced)}")
    for msg in gate.messages:
        print(f"GATE {msg}", file=sys.stderr)

    if args.trace:
        # a gate can stop the run before a traced pass has run
        overhead = min(walls[True]) - min(untraced) if walls[True] else 0.0
        metrics = tracing.per_layer_values(tracer, len(walls[True]), overhead)
        units = layer_units(metrics)
        stem = OUT / args.workload
        tracer.write(f"{stem}.spans.tsv.gz")
        tracing.write_summary(f"{stem}.trace.json", tracer, len(walls[True]), overhead,
                              {"workload": args.workload, "seed": args.seed})
        print(f"spans written to {stem}.spans.tsv.gz, summary to {stem}.trace.json")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(best_ms.values()) / 1e3,
            "job_ms.p50": percentile(sampled, 0.5),
            "job_ms.p90": percentile(sampled, 0.9),
            "exact_ratio": gate.exact / gate.attempted if gate.attempted else 0.0,
            "peak_rss_mb": rss_mb,
        }
        units = {"setup_s": "s", "wall_s": "s", "job_ms.p50": "ms",
                 "job_ms.p90": "ms", "exact_ratio": "ratio", "peak_rss_mb": "MB"}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    correct = gate.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted + gate.failed,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def layer_units(metrics):
    def unit(name):
        stat = name.rsplit(".", 1)[1]
        if stat.endswith("_per_s"):
            return "1/s"
        if stat.endswith("_s"):
            return "s"
        return {"shattered_ratio": "ratio"}.get(stat, "count")
    return {name: unit(name) for name in metrics}


if __name__ == "__main__":
    sys.exit(main())
