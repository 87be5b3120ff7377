"""Exact combinatorics of finite set systems and relations.

Core objects: SetSystem, BiRelation, FormulaSet, UltrametricSpace,
RootedGraph, ShatterProfile.  See the module docstrings for the
individual invariants and constructions.
"""

from .errors import (
    BudgetExceededError,
    InconclusiveError,
    PreconditionError,
    RangeError,
    ShapeError,
    VcLabError,
)
from .estimator import ShatterProfile, classify_growth, fit_exponent
from .generators import (
    gen_arithmetic_progressions,
    gen_cosets_zn,
    gen_elekes_grid,
    gen_halfspaces,
    gen_hypercube_edges,
    gen_intervals,
    gen_pointline_fq,
    gen_subgroups_zn,
    gen_subsets_at_most_d,
    phi_hat,
    phi_hat_sandwich,
    detect_krs,
)
from .relations import (
    BiRelation,
    FormulaSet,
    boolean_combine,
    count_types,
    dual_shatter,
    dualize,
    ladder_dimension,
    lift_parameter,
    power_delta,
    relation_of,
    shelah_encode,
    system_of,
)
from .rooted import (
    RootedGraph,
    average_degree,
    classify,
    max_average_degree,
    rooted_graph_of,
)
from .setsystem import (
    SetSystem,
    TracePattern,
    breadth,
    check_breadth_duality,
    contains_trace,
    dual_system,
    helly_number,
    independence_dimension,
    pullback,
    sauer_shelah_bound,
    shatter_function,
    trace,
    vc_dimension,
)
from .ultrametric import (
    Ball,
    UltrametricSpace,
    ball_family_system,
    ball_graph_distance,
    ball_members,
    beta,
    count_balls_within,
    special_ball_count,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
