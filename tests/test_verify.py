"""Every case of every verification suite passes on a few seeds."""

import pytest

from vclab.verify import SUITES, run_suite


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name, seed):
    cases = run_suite(name, seed=seed)
    assert cases
    assert [c.name for c in cases if c.status != "pass"] == []
