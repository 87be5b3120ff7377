"""Every case of every verification suite passes on a few seeds, and the
hypercube suite's identity agrees with its brute-force oracle."""

import pytest
from oracles import max_induced_edges

from vclab import gen_hypercube_edges
from vclab.verify import SUITES, cube_induced_edges_on_4, run_suite


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name, seed):
    cases = run_suite(name, seed=seed)
    assert cases
    assert [c.name for c in cases if c.status != "pass"] == []


@pytest.mark.parametrize("d", range(2, 6))
def test_hypercube_suite_reads_the_oracle_off_pi_4(d):
    edges, _ = gen_hypercube_edges(d)
    expect = max_induced_edges(edges, 1 << d, 4)
    assert cube_induced_edges_on_4(d) == expect
    if d <= 4:
        [case] = [c for c in run_suite("hypercube") if c.name == f"qd-4sub-d={d}"]
        assert case.observed == str(expect)
