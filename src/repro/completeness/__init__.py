"""Relative information completeness: the paper's core contribution.

This package implements the three completeness models (strong, weak,
viable), the decision problems RCDP, RCQP and MINP, the consistency and
extensibility analyses of partially closed c-instances, and the tractable
data-complexity cases of Section 7.
"""

from repro.completeness.certain import (
    ExtensionCertainAnswer,
    certain_answer_over_extensions,
    certain_answer_over_models,
)
from repro.completeness.consistency import (
    consistent_world,
    extensibility_active_domain,
    extension_witness,
    is_consistent,
    is_extensible,
)
from repro.completeness.extensions import (
    bounded_extensions,
    candidate_pools,
    candidate_rows,
    has_partially_closed_extension,
    single_tuple_extensions,
    tableau_extensions,
    tableau_valuations,
)
from repro.completeness.ground import (
    IncompletenessWitness,
    find_ground_incompleteness_witness,
    ground_active_domain,
    is_ground_complete,
    is_ground_complete_bounded,
)
from repro.completeness.minp import (
    is_minimal_complete,
    is_minimal_ground_complete,
    is_minimal_strongly_complete,
    is_minimal_viably_complete,
    is_minimal_weakly_complete,
    is_minimal_weakly_complete_cq,
    minp,
)
from repro.completeness.models import STRONG, VIABLE, WEAK, CompletenessModel
from repro.completeness.rcdp import as_cinstance, is_relatively_complete, rcdp
from repro.completeness.rcqp import (
    RCQPWitness,
    construct_weakly_complete_witness,
    is_query_bounded,
    rcqp,
    rcqp_bounded_search,
    strong_rcqp_with_ind_ccs,
    weak_rcqp,
)
from repro.completeness.strong import (
    StrongIncompletenessWitness,
    find_strong_incompleteness_witness,
    is_strongly_complete,
    is_strongly_complete_bounded,
)
from repro.completeness.tractable import (
    DEFAULT_VARIABLE_BOUND,
    minp_data_complexity,
    rcdp_data_complexity,
    rcqp_data_complexity,
)
from repro.completeness.viable import (
    find_viable_witness,
    is_viably_complete,
    is_viably_complete_bounded,
)
from repro.completeness.weak import (
    WeakCompletenessReport,
    is_weakly_complete,
    is_weakly_complete_bounded,
    weak_completeness_report,
)

__all__ = [
    "CompletenessModel",
    "DEFAULT_VARIABLE_BOUND",
    "ExtensionCertainAnswer",
    "IncompletenessWitness",
    "RCQPWitness",
    "STRONG",
    "StrongIncompletenessWitness",
    "VIABLE",
    "WEAK",
    "WeakCompletenessReport",
    "as_cinstance",
    "bounded_extensions",
    "candidate_pools",
    "candidate_rows",
    "certain_answer_over_extensions",
    "certain_answer_over_models",
    "consistent_world",
    "construct_weakly_complete_witness",
    "extensibility_active_domain",
    "extension_witness",
    "find_ground_incompleteness_witness",
    "find_strong_incompleteness_witness",
    "find_viable_witness",
    "ground_active_domain",
    "has_partially_closed_extension",
    "is_consistent",
    "is_extensible",
    "is_ground_complete",
    "is_ground_complete_bounded",
    "is_minimal_complete",
    "is_minimal_ground_complete",
    "is_minimal_strongly_complete",
    "is_minimal_viably_complete",
    "is_minimal_weakly_complete",
    "is_minimal_weakly_complete_cq",
    "is_query_bounded",
    "is_relatively_complete",
    "is_strongly_complete",
    "is_strongly_complete_bounded",
    "is_viably_complete",
    "is_viably_complete_bounded",
    "is_weakly_complete",
    "is_weakly_complete_bounded",
    "minp",
    "minp_data_complexity",
    "rcdp",
    "rcdp_data_complexity",
    "rcqp",
    "rcqp_bounded_search",
    "rcqp_data_complexity",
    "single_tuple_extensions",
    "strong_rcqp_with_ind_ccs",
    "tableau_extensions",
    "tableau_valuations",
    "weak_completeness_report",
    "weak_rcqp",
]
