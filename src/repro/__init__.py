"""repro — relative information completeness for partially closed databases.

A reproduction of *"Capturing Missing Tuples and Missing Values"* (Ting Deng,
Wenfei Fan, Floris Geerts; PODS 2010, extended version ACM TODS 41(2), 2016).

The library models databases from which both **tuples** and **attribute
values** may be missing (conditional tables / c-instances) and that are
*partially closed* — bounded by master data through containment constraints.
It implements the paper's three relative-completeness models (strong, weak,
viable), the decision problems RCDP / RCQP / MINP, the consistency and
extensibility analyses, the tractable data-complexity cases of Section 7, and
executable versions of the lower-bound reductions.

Subpackages
-----------
``repro.relational``
    Schemas, domains, ground instances and master data.
``repro.queries``
    CQ, UCQ, ∃FO⁺, FO and FP query ASTs with exact evaluation and tableau
    tooling.
``repro.ctables``
    Conditional tables, c-instances, valuations, the ``Adom`` construction
    and possible-world enumeration.
``repro.constraints``
    Containment constraints plus classical dependencies (FDs, INDs, CFDs,
    denial constraints) and their encodings as CCs.
``repro.completeness``
    The paper's core contribution: the three completeness models and the
    deciders for RCDP, RCQP and MINP.
``repro.reductions``
    Executable lower-bound constructions (3SAT / QBF gadgets, FD+IND
    implication, succinct-circuit tautology).
``repro.workloads``
    The paper's patient MDM scenario and synthetic workload generators used
    by the benchmark harness.

Quickstart
----------
>>> from repro import Database, build_patient_scenario, STRONG
>>> s = build_patient_scenario()
>>> db = Database(s.figure1, s.master, s.constraints)
>>> bool(db.complete(s.q1, STRONG))
True

The :class:`Database` facade caches the ``Adom`` and the constraint checker
across calls and returns rich :class:`Decision` objects; the functional API
(``is_relatively_complete`` and friends) remains available and returns the
same :class:`Decision` objects (truthy like the old booleans).  World-search
engines are pluggable through :func:`register_engine` and selected with
:class:`EngineConfig` (or a plain name string) everywhere an ``engine=``
keyword is accepted.
"""

from __future__ import annotations

from repro.api import Database
from repro.decision import Decision, DecisionStats
from repro.incremental import UpdateBatch, UpdateResult
from repro.completeness import (
    STRONG,
    VIABLE,
    WEAK,
    CompletenessModel,
    certain_answer_over_extensions,
    certain_answer_over_models,
    is_consistent,
    is_extensible,
    is_ground_complete,
    is_minimal_complete,
    is_relatively_complete,
    is_strongly_complete,
    is_viably_complete,
    is_weakly_complete,
    minp,
    rcdp,
    rcqp,
    weak_completeness_report,
)
from repro.constraints import (
    ContainmentConstraint,
    cc,
    denial_cc,
    fd,
    fd_as_ccs,
    ind,
    projection,
    relation_containment_cc,
    satisfies_all,
)
from repro.ctables import (
    CInstance,
    CTable,
    CTableRow,
    Condition,
    build_active_domain,
    cinstance,
    condition,
    models,
    var_eq,
    var_neq,
)
from repro.exceptions import InconsistentUpdateError, ReproError, UpdateError
from repro.search import (
    EngineCapabilities,
    EngineConfig,
    SearchStats,
    WorldSearch,
    engine_names,
    register_engine,
    unregister_engine,
)
from repro.queries import (
    ConjunctiveQuery,
    FixpointQuery,
    UnionOfConjunctiveQueries,
    atom,
    boolean_cq,
    cq,
    eq,
    evaluate,
    fixpoint_query,
    fo,
    neq,
    rule,
    ucq,
    var,
    variables,
)
from repro.relational import (
    BOOLEAN_DOMAIN,
    DatabaseSchema,
    GroundInstance,
    MasterData,
    RelationSchema,
    database_schema,
    empty_instance,
    empty_master,
    finite_domain,
    infinite_domain,
    instance,
    schema,
)
from repro.workloads import build_patient_scenario, registry_workload

__version__ = "8.0.0"

__all__ = [
    "BOOLEAN_DOMAIN",
    "CInstance",
    "CTable",
    "CTableRow",
    "CompletenessModel",
    "Condition",
    "ConjunctiveQuery",
    "ContainmentConstraint",
    "Database",
    "DatabaseSchema",
    "Decision",
    "DecisionStats",
    "EngineCapabilities",
    "EngineConfig",
    "FixpointQuery",
    "GroundInstance",
    "InconsistentUpdateError",
    "MasterData",
    "RelationSchema",
    "ReproError",
    "STRONG",
    "SearchStats",
    "UpdateBatch",
    "UpdateError",
    "UpdateResult",
    "WorldSearch",
    "UnionOfConjunctiveQueries",
    "VIABLE",
    "WEAK",
    "__version__",
    "atom",
    "boolean_cq",
    "build_active_domain",
    "build_patient_scenario",
    "cc",
    "certain_answer_over_extensions",
    "certain_answer_over_models",
    "cinstance",
    "condition",
    "cq",
    "database_schema",
    "denial_cc",
    "empty_instance",
    "empty_master",
    "engine_names",
    "eq",
    "evaluate",
    "fd",
    "fd_as_ccs",
    "finite_domain",
    "fixpoint_query",
    "fo",
    "ind",
    "infinite_domain",
    "instance",
    "is_consistent",
    "is_extensible",
    "is_ground_complete",
    "is_minimal_complete",
    "is_relatively_complete",
    "is_strongly_complete",
    "is_viably_complete",
    "is_weakly_complete",
    "minp",
    "models",
    "neq",
    "projection",
    "rcdp",
    "rcqp",
    "register_engine",
    "registry_workload",
    "relation_containment_cc",
    "rule",
    "satisfies_all",
    "schema",
    "ucq",
    "unregister_engine",
    "var",
    "var_eq",
    "var_neq",
    "variables",
    "weak_completeness_report",
]
