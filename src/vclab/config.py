"""Budget configuration.

The default subset-evaluation budget is 10**7 and can be overridden with
the VCLAB_BUDGET environment variable.  Functions that enumerate subsets
take an optional ``budget`` argument; ``None`` means "use the default".
"""

import os

from .errors import RangeError

DEFAULT_BUDGET = 10_000_000


def resolve_budget(budget=None):
    if budget is not None:
        return int(budget)
    env = os.environ.get("VCLAB_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise RangeError(f"VCLAB_BUDGET must be an integer, got {env!r}") from None
    return DEFAULT_BUDGET
