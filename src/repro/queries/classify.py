"""Classification of queries into the paper's language hierarchy.

Table I of the paper is parameterised by the query language ``L_Q`` ∈
{CQ, UCQ, ∃FO⁺, FO, FP}.  The decision procedures dispatch on this
classification: the positive languages (CQ, UCQ, ∃FO⁺) admit exact
Adom-bounded deciders; FP admits them only in the weak model; FO admits none
(the problems are undecidable) and only bounded checks are offered.
"""

from __future__ import annotations

from enum import Enum

from repro.exceptions import QueryError
from repro.queries.cq import ConjunctiveQuery
from repro.queries.efo import ExistentialPositiveQuery
from repro.queries.evaluation import Query
from repro.queries.fo import FirstOrderQuery, NativeQuery
from repro.queries.fp import FixpointQuery
from repro.queries.ucq import UnionOfConjunctiveQueries


class QueryLanguage(str, Enum):
    """The query languages studied by the paper (plus native escape hatch)."""

    CQ = "CQ"
    UCQ = "UCQ"
    EFO = "∃FO+"
    FO = "FO"
    FP = "FP"
    NATIVE = "native"


def classify(query: Query) -> QueryLanguage:
    """The language a query representation belongs to."""
    if isinstance(query, ConjunctiveQuery):
        return QueryLanguage.CQ
    if isinstance(query, UnionOfConjunctiveQueries):
        return QueryLanguage.UCQ
    if isinstance(query, ExistentialPositiveQuery):
        return QueryLanguage.EFO
    if isinstance(query, FirstOrderQuery):
        return QueryLanguage.FO
    if isinstance(query, FixpointQuery):
        return QueryLanguage.FP
    if isinstance(query, NativeQuery):
        return QueryLanguage.NATIVE
    raise QueryError(f"unsupported query type {type(query).__name__}")


#: Languages for which the strong- and viable-model problems are decidable
#: (Theorems 4.1, 4.8, 6.1; Corollaries 6.2, 6.3).
POSITIVE_LANGUAGES = frozenset(
    {QueryLanguage.CQ, QueryLanguage.UCQ, QueryLanguage.EFO}
)

#: Languages for which the weak-model problems are decidable
#: (Theorems 5.1, 5.4, 5.6): the positive languages plus FP.
WEAKLY_DECIDABLE_LANGUAGES = POSITIVE_LANGUAGES | {QueryLanguage.FP}


def supports_exact_strong_check(query: Query) -> bool:
    """Whether the exact strong/viable-model deciders apply (Theorem 4.1 / 6.1)."""
    return classify(query) in POSITIVE_LANGUAGES


def supports_exact_weak_check(query: Query) -> bool:
    """Whether the exact weak-model deciders apply (Theorems 5.1, 5.4, 5.6)."""
    return classify(query) in WEAKLY_DECIDABLE_LANGUAGES


def as_union_of_cqs(query: Query) -> UnionOfConjunctiveQueries:
    """View a positive query as a UCQ (unfolding ∃FO⁺ when necessary).

    Raises
    ------
    QueryError
        If the query is not in a positive language.
    """
    language = classify(query)
    if language is QueryLanguage.CQ:
        return UnionOfConjunctiveQueries((query,), name=query.name)
    if language is QueryLanguage.UCQ:
        return query
    if language is QueryLanguage.EFO:
        return query.to_ucq()
    raise QueryError(
        f"query {getattr(query, 'name', query)!r} is in {language.value}, "
        "which has no UCQ unfolding"
    )
