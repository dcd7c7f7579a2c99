"""Terms: variables and constants.

Queries, containment constraints and c-tables all use *terms*: either a
constant (an ordinary hashable Python value) or a :class:`Variable`.  A
variable is identified purely by its name; attribute typing (``var(A)`` in the
paper) is carried by the position in which a variable occurs, and is validated
where it matters (c-tables, finite-domain attributes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Union

from repro.exceptions import QueryError

#: Constants are plain hashable values.
ConstantTerm = Hashable


@dataclass(frozen=True, order=True)
class Variable:
    """A first-order variable, identified by its name."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise QueryError("variable name must be non-empty")

    def __repr__(self) -> str:
        return f"?{self.name}"


#: A term is either a variable or a constant.
Term = Union[Variable, ConstantTerm]


def var(name: str) -> Variable:
    """Shorthand constructor for :class:`Variable`."""
    return Variable(name)


def variables(names: str | Iterable[str]) -> tuple[Variable, ...]:
    """Create several variables at once.

    Accepts either a whitespace/comma separated string (``"x y z"``) or an
    iterable of names.

    Examples
    --------
    >>> variables("x y z")
    (?x, ?y, ?z)
    """
    if isinstance(names, str):
        parts = [p for p in names.replace(",", " ").split() if p]
    else:
        parts = list(names)
    return tuple(Variable(p) for p in parts)


def is_variable(term: Term) -> bool:
    """Whether ``term`` is a variable."""
    return isinstance(term, Variable)


def term_variables(terms: Iterable[Term]) -> set[Variable]:
    """The set of variables occurring in ``terms``."""
    return {t for t in terms if isinstance(t, Variable)}


def term_constants(terms: Iterable[Term]) -> set[ConstantTerm]:
    """The set of constants occurring in ``terms``."""
    return {t for t in terms if not isinstance(t, Variable)}


def substitute(term: Term, assignment: Mapping[Variable, ConstantTerm]) -> Term:
    """Apply a (possibly partial) assignment to a term."""
    if isinstance(term, Variable):
        return assignment.get(term, term)
    return term


def substitute_all(
    terms: Iterable[Term], assignment: Mapping[Variable, ConstantTerm]
) -> tuple[Term, ...]:
    """Apply an assignment to every term in a sequence."""
    return tuple(substitute(t, assignment) for t in terms)
