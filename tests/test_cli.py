import json
import os
import subprocess
import sys

import pytest

from vclab import SetSystem, cli, relations
from vclab.cli import main
from vclab.generators import gen_halfspaces, gen_intervals, gen_subsets_at_most_d


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_gen_round_trip(tmp_path):
    out = str(tmp_path / "subsets.json")
    assert main(["gen", "--family", "subsets", "--n", "5", "--d", "2", "--out", out]) == 0
    loaded = SetSystem.from_json(json.loads(open(out).read()))
    assert loaded == gen_subsets_at_most_d(5, 2)


def test_gen_to_stdout(capsys):
    assert main(["gen", "--family", "intervals", "--points", "4", "--k", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert SetSystem.from_json(data) == gen_intervals(4, 1)


def test_gen_all_families(tmp_path):
    commands = [
        ["gen", "--family", "halfspaces", "--coords", "0,0;1,1;2,4"],
        ["gen", "--family", "cosets", "--n", "6", "--divisors", "2,3"],
        ["gen", "--family", "subgroups", "--n", "12"],
        ["gen", "--family", "progressions", "--window", "6", "--max-modulus", "3"],
        ["gen", "--family", "pointline-fq", "--q", "3"],
        ["gen", "--family", "elekes", "--k", "1"],
        ["gen", "--family", "hypercube", "--d", "3"],
    ]
    for i, cmd in enumerate(commands):
        out = str(tmp_path / f"fam{i}.json")
        assert main(cmd + ["--out", out]) == 0
        json.loads(open(out).read())


def test_gen_halfspaces_rational_coords(tmp_path):
    out = str(tmp_path / "h.json")
    coords = "1/2,1/3;0,1;1,0;-3/4,5/7;0.25,2"
    assert main(["gen", "--family", "halfspaces", "--coords", coords, "--out", out]) == 0
    pts = [("1/2", "1/3"), (0, 1), (1, 0), ("-3/4", "5/7"), (0.25, 2)]
    assert json.loads(open(out).read()) == gen_halfspaces(pts).to_json()


def test_gen_halfspaces_equal_points_after_parsing(capsys):
    assert main(["gen", "--family", "halfspaces", "--coords", "1/2,1;2/4,1"]) == 2
    assert "points must be pairwise distinct" in capsys.readouterr().err


def test_invariants_report(tmp_path, capsys):
    path = write_json(tmp_path, "sys.json", gen_intervals(6, 1).to_json())
    assert main(["invariants", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["vc_dim"] == 2
    assert report["breadth"] == 2
    assert report["exactness"]["vc_dim"] == "exact"


def test_invariants_accepts_relation_input(tmp_path, capsys):
    rel = {"x_size": 2, "y_size": 2, "rows": ["10", "01"]}
    path = write_json(tmp_path, "rel.json", rel)
    assert main(["invariants", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["member_count"] == 2


def test_invariants_reports_skipped_on_budget(tmp_path, capsys):
    system = SetSystem.from_masks(21, [1 << (i % 21) for i in range(21)])
    path = write_json(tmp_path, "big.json", system.to_json())
    assert main(["invariants", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["exactness"]["helly"] == "skipped"
    assert report["helly"] is None


def test_shatter_profile_csv(tmp_path, capsys):
    path = write_json(tmp_path, "sys.json", gen_intervals(5, 1).to_json())
    assert main(["shatter", path, "--t", "1..5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,value,exact"
    assert lines[1:] == ["1,2,1", "2,4,1", "3,7,1", "4,11,1", "5,16,1"]


def test_shatter_singleton_family(tmp_path, capsys):
    path = write_json(
        tmp_path, "one.json", SetSystem.from_strings(4, ["1100"]).to_json()
    )
    assert main(["shatter", path, "--t", "1..4"]) == 0
    values = [
        line.split(",")[1]
        for line in capsys.readouterr().out.strip().splitlines()[1:]
    ]
    assert values == ["1", "1", "1", "1"]


def test_shatter_power_set(tmp_path, capsys):
    path = write_json(
        tmp_path, "pow.json", SetSystem.from_masks(4, range(16)).to_json()
    )
    assert main(["shatter", path, "--t", "1..4"]) == 0
    values = [
        line.split(",")[1]
        for line in capsys.readouterr().out.strip().splitlines()[1:]
    ]
    assert values == ["2", "4", "8", "16"]


def test_shatter_sample_mode_flags_rows(tmp_path, capsys):
    path = write_json(tmp_path, "sys.json", gen_intervals(6, 1).to_json())
    assert main(["shatter", path, "--t", "2..3", "--mode", "sample"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    assert all(line.endswith(",0") for line in lines)


def test_shatter_range_error(tmp_path, capsys):
    path = write_json(tmp_path, "sys.json", gen_intervals(4, 1).to_json())
    assert main(["shatter", path, "--t", "2..9"]) == 2


def test_shatter_budget_strict(tmp_path, capsys):
    path = write_json(tmp_path, "sys.json", gen_intervals(14, 1).to_json())
    assert main(["--budget", "10", "shatter", path, "--t", "7", "--strict"]) == 1
    captured = capsys.readouterr()
    assert "omitted" in captured.err
    assert captured.out.strip() == "t,value,exact"
    # without --strict the budget overrun only drops the row
    assert main(["--budget", "10", "shatter", path, "--t", "7"]) == 0


OMITTED = "".join(
    f"t={t}: C(6,{t}) exceeds the enumeration budget 10; row omitted\n"
    for t in (2, 3, 4)
)


@pytest.mark.parametrize(
    "sub, obj, rows",
    [
        ("shatter", gen_intervals(6, 1).to_json(), ["0,1,1", "1,2,1", "5,16,1", "6,22,1"]),
        (
            "dual-shatter",
            {"x_size": 4, "y_size": 6, "rows": ["110000", "011100", "001110", "100011"]},
            ["0,1,1", "1,2,1", "5,4,1", "6,4,1"],
        ),
    ],
)
def test_budget_omits_the_middle_rows(tmp_path, capsys, sub, obj, rows):
    # C(6,t) > 10 exactly for t = 2, 3, 4: each is refused before any set-up
    path = write_json(tmp_path, "in.json", obj)
    assert main(["--budget", "10", sub, path, "--t", "0..6"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "\n".join(["t,value,exact", *rows]) + "\n"
    assert captured.err == OMITTED


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


def test_calls_in_one_process_match_lone_calls(tmp_path, capsys, monkeypatch):
    """The parser is shared by the calls of one process: no option, default
    or message may carry over from one call to the next."""
    monkeypatch.setenv("COLUMNS", "80")
    system = write_json(tmp_path, "sys.json", gen_intervals(6, 1).to_json())
    rel = write_json(
        tmp_path, "rel.json", {"x_size": 3, "y_size": 3, "rows": ["110", "011", "101"]}
    )
    calls = [
        ["--budget", "1", "shatter", system, "--t", "0..3"],
        ["shatter", system, "--t", "0..3"],
        ["shatter", system, "--mode", "nope", "--t", "1"],
        ["dual-shatter", rel, "--t", "0..3"],
    ]
    in_process = [_outcome(argv, capsys) for argv in calls]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for argv, got in zip(calls, in_process):
        lone = subprocess.run(
            [sys.executable, "-m", "vclab.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        assert got == (lone.stdout, lone.stderr, lone.returncode), argv
    assert in_process[0][1].count("row omitted") == 3
    assert in_process[1][1] == ""
    assert in_process[2][2] == 2 and "invalid choice" in in_process[2][1]


def test_dual_shatter(tmp_path, capsys):
    rel = {"x_size": 3, "y_size": 3, "rows": ["110", "011", "101"]}
    path = write_json(tmp_path, "rel.json", rel)
    assert main(["dual-shatter", path, "--t", "0..3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,value,exact"
    assert len(lines) == 5


def test_verify_known_suite(capsys):
    assert main(["verify", "--suite", "balls"]) == 0
    out = capsys.readouterr().out
    assert "cases passed" in out


@pytest.mark.parametrize(
    "suite", ["sauer", "duality", "breadth-ind", "poizat", "incidence", "balls"]
)
def test_verify_budget_reaches_every_search(capsys, suite):
    assert main(["--budget", "0", "verify", "--suite", suite]) == 2
    captured = capsys.readouterr()
    assert "cases passed" not in captured.out
    assert captured.err.startswith("error: ")


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 2


def test_missing_file_is_a_usage_error(capsys):
    assert main(["invariants", "/no/such/file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["invariants", str(path)]) == 2


def test_determinism(tmp_path, capsys):
    path = write_json(tmp_path, "sys.json", gen_intervals(7, 2).to_json())
    assert main(["shatter", path, "--t", "1..6", "--mode", "sample"]) == 0
    first = capsys.readouterr().out
    assert main(["shatter", path, "--t", "1..6", "--mode", "sample"]) == 0
    assert capsys.readouterr().out == first


def test_invariants_output_is_pinned(tmp_path, capsys):
    path = write_json(tmp_path, "sys.json", gen_intervals(6, 1).to_json())
    assert main(["invariants", path]) == 0
    assert capsys.readouterr().out == (
        '{\n  "member_count": 22,\n  "exactness": {\n    "vc_dim": "exact",\n'
        '    "ind_dim": "exact",\n    "breadth": "exact",\n    "helly": "skipped"\n'
        '  },\n  "vc_dim": 2,\n  "ind_dim": 2,\n  "breadth": 2,\n  "helly": null\n}\n'
    )


@pytest.mark.parametrize(
    "obj",
    [
        {"ground_size": 3.0, "members": ["110"]},
        {"ground_size": True, "members": ["1"]},
        {"ground_size": 3},
        {"ground_size": 3, "members": [110]},
        {"x_size": 2, "y_size": 2.0, "rows": ["10", "01"]},
        {"x_size": "2", "y_size": 2, "rows": ["10", "01"]},
        {"x_size": 2, "y_size": 2, "rows": "1001"},
        ["110"],
    ],
)
def test_mistyped_json_is_a_usage_error(tmp_path, capsys, obj):
    path = write_json(tmp_path, "bad.json", obj)
    assert main(["invariants", path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["shatter", "{path}", "--t", "1..x"],
        ["gen", "--family", "halfspaces", "--coords", "0,0;1/0,1"],
        ["gen", "--family", "cosets", "--n", "6", "--divisors", "2,x"],
    ],
)
def test_malformed_option_is_a_usage_error(tmp_path, capsys, argv):
    path = write_json(tmp_path, "sys.json", gen_intervals(4, 1).to_json())
    assert main([a.format(path=path) for a in argv]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_budget_variable_is_a_usage_error(tmp_path, capsys, monkeypatch):
    path = write_json(tmp_path, "sys.json", gen_intervals(4, 1).to_json())
    monkeypatch.setenv("VCLAB_BUDGET", "lots")
    assert main(["invariants", path]) == 2
    assert "VCLAB_BUDGET" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["shatter", "{path}", "--t", "0..0"], "lots", "VCLAB_BUDGET must be an integer"),
        (["dual-shatter", "{path}", "--t", "0..0"], "lots", "VCLAB_BUDGET must be an integer"),
        (["shatter", "{path}", "--t", "1..2", "--mode", "sample"], "-3", "VCLAB_BUDGET must be >= 0"),
        (["--budget", "-1", "shatter", "{path}", "--t", "0..0"], None, "budget must be >= 0"),
    ],
)
def test_malformed_budget_fails_a_profile_that_runs_no_search(
    tmp_path, capsys, monkeypatch, argv, env, message
):
    # neither the t = 0 row nor sample mode walks t-subsets, yet the command
    # reads the budget once for all its rows
    rel = {"x_size": 3, "y_size": 3, "rows": ["110", "011", "101"]}
    path = write_json(tmp_path, "rel.json", rel)
    if env is not None:
        monkeypatch.setenv("VCLAB_BUDGET", env)
    assert main([a.format(path=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_dual_shatter_reads_the_budget_once(tmp_path, capsys, monkeypatch):
    # the command resolves the budget and hands every search an int, so no
    # row goes back to the environment
    seen = []
    walk = relations.max_traces

    def spy(masks, n, t, budget=None, spread=1):
        seen.append(budget)
        return walk(masks, n, t, budget, spread)

    monkeypatch.setattr(relations, "max_traces", spy)
    rel = {"x_size": 8, "y_size": 6, "rows": ["110010", "011100", "101011", "000111",
                                              "111000", "010101", "100110", "001001"]}
    path = write_json(tmp_path, "rel.json", rel)
    assert main(["dual-shatter", path, "--t", "0..6"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 8
    assert len(seen) == 7 and None not in seen


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["--budget", "-1", "shatter", "{path}", "--t", "0..2"], None, "budget"),
        (["--budget", "-1", "invariants", "{path}"], None, "budget"),
        (["invariants", "{path}"], "-3", "VCLAB_BUDGET"),
    ],
)
def test_negative_budget_is_a_usage_error(
    tmp_path, capsys, monkeypatch, argv, env, message
):
    path = write_json(tmp_path, "sys.json", gen_intervals(5, 1).to_json())
    if env is not None:
        monkeypatch.setenv("VCLAB_BUDGET", env)
    assert main([a.format(path=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{message} must be >= 0" in captured.err


@pytest.mark.parametrize("exc", [KeyError, ValueError])
def test_internal_errors_are_not_usage_errors(tmp_path, monkeypatch, exc):
    def broken(system, budget=None):
        raise exc("bug")

    monkeypatch.setattr(cli, "vc_dimension", broken)
    path = write_json(tmp_path, "sys.json", gen_intervals(4, 1).to_json())
    with pytest.raises(exc):
        main(["invariants", path])


GEN_OPTIONS = {
    "subsets": {"n": "3", "d": "1"},
    "intervals": {"points": "4", "k": "1"},
    "halfspaces": {"coords": "0,0;1,1"},
    "cosets": {"n": "6", "divisors": "2,3"},
    "subgroups": {"n": "6"},
    "progressions": {"window": "4", "max-modulus": "2"},
    "pointline-fq": {"q": "2"},
    "elekes": {"k": "1"},
    "hypercube": {"d": "2"},
}


@pytest.mark.parametrize(
    "family, missing",
    [(fam, opt) for fam, opts in GEN_OPTIONS.items() for opt in opts],
)
def test_gen_without_a_needed_option_is_a_usage_error(
    tmp_path, capsys, family, missing
):
    options = GEN_OPTIONS[family]
    argv = ["gen", "--family", family, "--out", str(tmp_path / "out.json")]
    assert main(argv + [a for k, v in options.items() for a in (f"--{k}", v)]) == 0
    rest = [a for k, v in options.items() if k != missing for a in (f"--{k}", v)]
    assert main(argv + rest) == 2
    assert f"--{missing}" in capsys.readouterr().err


def test_import_loads_neither_dataclasses_nor_inspect():
    """Compares the modules loaded before and after the import, so a site
    hook that loaded either module beforehand does not count."""
    code = (
        "import sys; before = set(sys.modules); import vclab.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    added = run.stdout.split()
    assert "vclab.cli" in added
    assert not {"dataclasses", "inspect"} & set(added)
