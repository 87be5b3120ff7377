"""Self-tests of the benchmark, on the tiny size.

    python3 -m pytest -q benchmarks/selftest.py

The file is not named test_*.py, so the repository's own test run does
not pick it up; pass it to pytest explicitly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(tmp_cwd, *args, timeout=120):
    cmd = [sys.executable, "benchmarks/run.py", *args]
    return subprocess.run(cmd, cwd=tmp_cwd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny", timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in declared:
        assert f"{m['name']} = " in proc.stdout


def _tiny_main(workload, capsys):
    code = run.main(["--workload", workload, "--seed", "2", "--seconds", "1",
                     "--size", "tiny"])
    return code, capsys.readouterr()


def test_gate_trips_on_a_perturbed_pin(monkeypatch, capsys):
    assert _tiny_main("level-search", capsys)[0] == 0
    monkeypatch.setitem(workloads.PINNED["tiny"], "ladder plane-relation(3,)", 3)
    code, out = _tiny_main("level-search", capsys)
    assert code == 1
    assert "ladder plane-relation(3,): got 2, expected 3" in out.err
    assert json.loads(out.out.strip().splitlines()[-1])["correct"] is False


def test_gate_trips_on_a_perturbed_skip_floor(monkeypatch, capsys):
    name = "ind intervals(6, 2) budget=300"
    monkeypatch.setitem(workloads.PINNED["tiny"], name, workloads.Capped(exact=2, floor=2))
    code, out = _tiny_main("level-search", capsys)
    assert code == 1 and name in out.err


def test_capped_job_accepts_its_exact_value_or_a_bounded_skip():
    api = tracing.plain_api(run.fresh_import())
    name = "ind intervals(6, 2) budget=300"
    [job] = [j for j in workloads.level_search(api, 1, "tiny", None) if j.name == name]
    skipped = workloads.SKIPPED
    assert job.check(2) == (1, 1)
    assert job.check((skipped, 1)) == (1, 0)
    assert job.check((skipped, 2)) == (1, 0)
    for wrong in (1, 3, (skipped, 0), (skipped, 3)):
        with pytest.raises(workloads.GateError, match="expected Capped"):
            job.check(wrong)


def test_gate_trips_on_a_perturbed_closed_form(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "plane_pi", lambda t: 2 + t)
    code, out = _tiny_main("shatter-profile", capsys)
    assert code == 1 and "pi* fq5: t=1: got" in out.err


def test_gate_names_a_job_that_raises(monkeypatch, capsys):
    real = workloads.WORKLOADS["level-search"]

    def broken(api, seed, size, workdir):
        jobs = real.build(api, seed, size, workdir)
        return [jobs[0]._replace(run=lambda a: 1 // 0)] + jobs[1:]

    monkeypatch.setitem(workloads.WORKLOADS, "level-search", real._replace(build=broken))
    code, out = _tiny_main("level-search", capsys)
    assert code == 1 and "vc intervals(8, 2): raised ZeroDivisionError" in out.err


def test_same_seed_same_inputs(tmp_path):
    api = tracing.plain_api(run.fresh_import())
    texts = []
    for seed in (5, 5, 6):
        plan = workloads.frontend_plan(api, seed, "tiny")
        jobs = workloads.frontend_batch(api, plan, "tiny", str(tmp_path))
        texts.append([job.inputs for job in jobs])
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def test_set_up_makes_only_the_draws_it_keeps(tmp_path):
    api = tracing.plain_api(run.fresh_import())
    plan = workloads.frontend_plan(api, 4, "tiny")
    draws = []
    counted = dict(vars(api))
    for fn in ("random_system", "random_relation"):
        counted[fn] = lambda *a, fn=getattr(api, fn), **k: draws.append(1) or fn(*a, **k)
    jobs = workloads.frontend_batch(type(api)(**counted), plan, "tiny", str(tmp_path))
    random_jobs = [j for j in jobs if j.name[-1] in workloads.SIZE_CLASSES]
    assert len(draws) == len(random_jobs) > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
