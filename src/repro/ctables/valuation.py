"""Valuations of c-instances and their enumeration over the active domain.

A valuation ``µ`` maps every variable of a c-instance to a constant of the
appropriate domain (Section 2.2).  The decision procedures only need
valuations drawing values from the active domain ``Adom``
(:mod:`repro.ctables.adom`); this module enumerates them.

Valuations are plain dictionaries ``{Variable: Constant}``; the helpers here
create, combine and enumerate them.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import ValuationError
from repro.ctables.adom import ActiveDomain, variable_pools
from repro.ctables.cinstance import CInstance
from repro.queries.terms import Variable
from repro.relational.domains import Constant
from repro.relational.instance import GroundInstance

#: A valuation is a total mapping from variables to constants.
Valuation = dict[Variable, Constant]


def check_total(valuation: Mapping[Variable, Constant], variables: Iterable[Variable]) -> None:
    """Raise unless the valuation covers every given variable."""
    missing = sorted(v.name for v in set(variables) - set(valuation))
    if missing:
        raise ValuationError(f"valuation does not cover variables {missing}")


def enumerate_assignments(
    pools: Mapping[Variable, Sequence[Constant]],
) -> Iterator[Valuation]:
    """All assignments choosing one value per variable from its pool.

    Variables are processed in name order, so the enumeration is
    deterministic.  An empty pool for any variable yields no assignments.
    """
    variables = sorted(pools, key=lambda v: v.name)
    value_lists = [list(pools[v]) for v in variables]
    for values in itertools.product(*value_lists):
        yield dict(zip(variables, values))


def enumerate_valuations(
    cinstance: CInstance,
    adom: ActiveDomain,
    fixed: Mapping[Variable, Constant] | None = None,
) -> Iterator[Valuation]:
    """All valuations of a c-instance over the active domain.

    Finite-domain attribute positions restrict the pools of the variables
    occurring in them (Section 3).  ``fixed`` pins chosen variables to given
    values (used when a caller has already guessed part of a valuation).
    """
    fixed = dict(fixed or {})
    restrictions = cinstance.variable_domains()
    free_variables = cinstance.variables() - set(fixed)
    pools = variable_pools(free_variables, adom, restrictions)
    for partial in enumerate_assignments(pools):
        valuation = dict(fixed)
        valuation.update(partial)
        yield valuation


def count_valuations(
    cinstance: CInstance,
    adom: ActiveDomain,
    fixed: Mapping[Variable, Constant] | None = None,
) -> int:
    """The number of valuations :func:`enumerate_valuations` would produce.

    ``fixed`` pins variables exactly as in :func:`enumerate_valuations`:
    pinned variables contribute no factor, only the pools of the remaining
    free variables are multiplied.
    """
    fixed = dict(fixed or {})
    restrictions = cinstance.variable_domains()
    free_variables = cinstance.variables() - set(fixed)
    pools = variable_pools(free_variables, adom, restrictions)
    total = 1
    for values in pools.values():
        total *= len(values)
    return total


def apply_valuation(
    cinstance: CInstance, valuation: Mapping[Variable, Constant]
) -> GroundInstance:
    """``µ(T)`` — alias of :meth:`CInstance.apply` with a totality check."""
    check_total(valuation, cinstance.variables())
    return cinstance.apply(valuation)
