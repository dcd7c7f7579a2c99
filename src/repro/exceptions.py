"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so client
code can catch a single base class.  Sub-classes mirror the major subsystems:
schema/data-model errors, query construction/evaluation errors, c-table
errors, constraint errors and decision-procedure errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all exceptions raised by the library."""


class SchemaError(ReproError):
    """A schema is malformed or an operation violates a schema."""


class DomainError(SchemaError):
    """A constant does not belong to the declared attribute domain."""


class ArityError(SchemaError):
    """A tuple, atom or query result has the wrong number of components."""


class UnknownRelationError(SchemaError):
    """A relation name is not declared in the schema in scope."""


class QueryError(ReproError):
    """A query is malformed (unsafe, ill-typed, unknown relation, ...)."""


class UnsafeQueryError(QueryError):
    """A query is not range restricted / not safe for evaluation."""


class EvaluationError(ReproError):
    """Query evaluation failed (e.g. fixpoint did not converge in bounds)."""


class CTableError(ReproError):
    """A c-table or c-instance is malformed."""


class ConditionError(CTableError):
    """A local condition is malformed or refers to unknown variables."""


class ValuationError(CTableError):
    """A valuation is not well defined for the c-table it is applied to."""


class ConstraintError(ReproError):
    """A containment constraint or classical dependency is malformed."""


class CompletenessError(ReproError):
    """A relative-completeness decision procedure was invoked incorrectly."""


class InconsistentCInstanceError(CompletenessError):
    """Raised when ``Mod(T, D_m, V)`` is empty but a non-empty set is required."""


class BoundExceededError(ReproError):
    """A bounded search exhausted its configured budget without an answer."""


class SearchError(ReproError):
    """A world-search engine was selected or configured incorrectly."""


class SearchCancelledError(SearchError):
    """A cooperative world search was cancelled via its ``stop_check`` hook.

    Raised by :class:`repro.search.engine.WorldSearch` when the caller-supplied
    ``stop_check`` callable reports ``True`` mid-search.  The service's
    ``/worlds`` stream uses it to stop searching once its client disconnects.
    """


class ReductionError(ReproError):
    """A lower-bound reduction was given malformed input."""


class UpdateError(ReproError):
    """An incremental update of a :class:`repro.api.Database` is malformed.

    Raised for updates that reference unknown relations, drop rows that are
    not present, or add rows violating the schema (the underlying
    :class:`~repro.exceptions.CTableError` is chained as the cause).
    """


class InconsistentUpdateError(UpdateError):
    """An :class:`repro.api.UpdateBatch` left ``Mod(T, D_m, V)`` empty.

    The batch is rolled back to the state at ``batch()`` entry before this is
    raised, so the database never remains in the inconsistent state.
    """


class ServiceError(ReproError):
    """A :mod:`repro.service` request or configuration is invalid.

    Carries the HTTP status the service maps the failure to (400 for
    malformed requests, 404 for unknown sessions, 409 for conflicts, ...),
    so the server layer can translate without pattern-matching messages.
    """

    def __init__(self, message: str, *, status: int = 400) -> None:
        super().__init__(message)
        self.status = status
