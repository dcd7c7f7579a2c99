"""Conditional tables (c-tables), c-instances and their possible worlds.

The paper represents databases with missing values as c-instances: one
c-table per relation, constrained by master data through containment
constraints.  This package implements the representation (conditions,
c-tables, c-instances), valuations, the active-domain construction ``Adom``
and the enumeration of possible worlds ``Mod(T, D_m, V)``.
"""

from repro.ctables.adom import (
    ActiveDomain,
    build_active_domain,
    finite_domain_values,
    variable_pools,
)
from repro.ctables.cinstance import CInstance, cinstance
from repro.ctables.conditions import TRUE, Condition, condition, var_eq, var_neq
from repro.ctables.ctable import CTable, CTableRow
from repro.ctables.possible_worlds import (
    DEFAULT_ENGINE,
    default_active_domain,
    has_model,
    model_count,
    models,
    models_with_valuations,
)
from repro.ctables.valuation import (
    Valuation,
    apply_valuation,
    count_valuations,
    enumerate_assignments,
    enumerate_valuations,
)

__all__ = [
    "ActiveDomain",
    "CInstance",
    "DEFAULT_ENGINE",
    "CTable",
    "CTableRow",
    "Condition",
    "TRUE",
    "Valuation",
    "apply_valuation",
    "build_active_domain",
    "cinstance",
    "condition",
    "count_valuations",
    "default_active_domain",
    "enumerate_assignments",
    "enumerate_valuations",
    "finite_domain_values",
    "has_model",
    "model_count",
    "models",
    "models_with_valuations",
    "variable_pools",
    "var_eq",
    "var_neq",
]
