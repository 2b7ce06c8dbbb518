"""Query plans: logical specs, physical builders, and transition analysis.

A *plan spec* is a recursive structure — a stream name (leaf) or a pair of
specs (a binary operator).  Left-deep plans are written as an ordered tuple
of stream names; ``left_deep`` converts to the nested form.  The physical
builder turns a spec into an operator tree, optionally adopting states from
a previous plan (the mechanism behind every migration strategy).
"""

from repro.plans.spec import (
    PlanSpec,
    left_deep,
    is_leaf,
    leaves,
    internal_nodes,
    memberships,
    validate_spec,
    left_deep_order,
    is_left_deep,
)
from repro.plans.build import PhysicalPlan, build_plan
from repro.plans.transitions import (
    classify_states,
    pairwise_exchange,
    best_case_transition,
    worst_case_transition,
    incomplete_count,
    random_exchange,
)
from repro.plans.printer import parse_plan, format_plan, render_tree

__all__ = [
    "PlanSpec",
    "left_deep",
    "is_leaf",
    "leaves",
    "internal_nodes",
    "memberships",
    "validate_spec",
    "left_deep_order",
    "is_left_deep",
    "PhysicalPlan",
    "build_plan",
    "classify_states",
    "pairwise_exchange",
    "best_case_transition",
    "worst_case_transition",
    "incomplete_count",
    "random_exchange",
    "parse_plan",
    "format_plan",
    "render_tree",
]
