"""Budget configuration.

The default subset-evaluation budget is 10**7 and can be overridden with
the VCLAB_BUDGET environment variable.  Functions that enumerate subsets
take an optional ``budget`` argument; ``None`` means "use the default".
A budget must be a nonnegative integer; 0 permits no work at all.
"""

import os

from .errors import RangeError

DEFAULT_BUDGET = 10_000_000


def resolve_budget(budget=None):
    name = "budget"
    if budget is None:
        name, budget = "VCLAB_BUDGET", os.environ.get("VCLAB_BUDGET", DEFAULT_BUDGET)
    try:
        budget = int(budget)
    except ValueError:
        raise RangeError(f"{name} must be an integer, got {budget!r}") from None
    if budget < 0:
        raise RangeError(f"{name} must be >= 0, got {budget}")
    return budget
