"""Selectivity-ordered hash joins for the delta constraint checker.

Given a newly pushed tuple that seeds one atom of a constraint CQ, the
remaining atoms form a join the checker must complete (or refute) against the
facts grounded so far.  This module plans and executes that join over the
hash indexes of :class:`~repro.relational.indexing.IndexedFactStore` instead
of the linear scans :func:`~repro.queries.evaluation.match_conjunction`
performs:

* **Signatures.**  For each remaining atom, the columns carrying constants or
  already-bound variables form the index *key*; the columns carrying unbound
  *relevant* variables form the index *output*.  A variable is relevant iff
  it occurs in the query head, in a comparison, or in more than one atom
  position of the body (:func:`relevant_variables`).  Unbound variables that
  are not relevant are existentially projected away by the index itself —
  CQ answers are sets, so any single witness row is as good as all of them,
  and duplicate continuations collapse into one bucket entry.

* **Greedy ordering.**  At every join step the planner derives each remaining
  atom's signature under the current assignment, looks up the *actual* bucket
  for its key, and expands the atom with the smallest bucket first — the
  bucket size under the live binding is an exact selectivity measure, not an
  estimate.  An empty bucket for any remaining atom refutes the whole
  conjunction immediately (every full match must agree with the key on the
  bound columns, so no row in the bucket means no match at all).

The acceptance rule at the leaves —
:func:`~repro.queries.evaluation.finalize_assignment` followed by a
right-hand-side membership test on the instantiated head — is the one a
linear-scan join over :func:`~repro.queries.evaluation.match_conjunction`
applies, so the two evaluation strategies agree by construction on
everything except speed; the differential suite in
``tests/search/test_indexed_store.py`` locks that in.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Mapping, Sequence

from repro.queries.atoms import Comparison, RelationAtom
from repro.queries.evaluation import finalize_assignment, instantiate_head
from repro.queries.terms import Term, Variable, is_variable
from repro.relational.domains import Constant
from repro.relational.indexing import IndexedFactStore, Signature
from repro.relational.instance import Row

_MISSING = object()


def relevant_variables(
    atoms: Sequence[RelationAtom],
    comparisons: Iterable[Comparison],
    head: tuple[Term, ...],
) -> frozenset[Variable]:
    """Variables the indexed join must keep (everything else is projected).

    A body variable is *relevant* when some later consumer can observe it:
    it appears in the head (answers depend on it), in a comparison (the leaf
    check needs it), or in at least two atom positions of the body (join
    equality — including a repeat within a single atom — must be enforced
    through it).
    """
    occurrences: dict[Variable, int] = {}
    for atom in atoms:
        for term in atom.terms:
            if is_variable(term):
                occurrences[term] = occurrences.get(term, 0) + 1
    relevant = {variable for variable, count in occurrences.items() if count > 1}
    for term in head:
        if is_variable(term):
            relevant.add(term)
    for comparison in comparisons:
        relevant.update(comparison.variables())
    return frozenset(relevant)


def atom_plan(
    atom: RelationAtom,
    assignment: Mapping[Variable, Constant],
    relevant: frozenset[Variable],
) -> tuple[Signature, Row, tuple[Variable, ...]]:
    """Derive an atom's index signature under the current assignment.

    Returns ``(signature, key_values, out_variables)``: the signature to
    index on, the concrete key to look up (constants plus bound-variable
    values, in key-position order), and the unbound relevant variables the
    bucket's out-tuples will bind (in out-position order; a variable repeated
    within the atom appears once per position, so unification over the
    out-tuple enforces the repeat).
    """
    key_positions: list[int] = []
    key_values: list[Constant] = []
    out_positions: list[int] = []
    out_variables: list[Variable] = []
    for position, term in enumerate(atom.terms):
        if is_variable(term):
            if term in assignment:
                key_positions.append(position)
                key_values.append(assignment[term])
            elif term in relevant:
                out_positions.append(position)
                out_variables.append(term)
            # An unbound irrelevant variable occurs nowhere else in the query:
            # the index projects it away (existential semantics).
        else:
            key_positions.append(position)
            key_values.append(term)
    signature: Signature = (tuple(key_positions), tuple(out_positions))
    return signature, tuple(key_values), tuple(out_variables)


def join_escapes_rhs(
    store: IndexedFactStore,
    atoms: Sequence[RelationAtom],
    comparisons: Sequence[Comparison],
    head: tuple[Term, ...],
    rhs: AbstractSet[Row],
    seed: Mapping[Variable, Constant],
    relevant: frozenset[Variable],
) -> bool:
    """Whether some completion of ``seed`` over ``atoms`` has a head ∉ ``rhs``.

    This is the indexed counterpart of a linear-scan join: it returns
    ``True`` exactly when :func:`match_conjunction` seeded with the
    same assignment would yield an assignment whose instantiated head escapes
    the constraint's right-hand side.
    """

    def descend(
        remaining: list[RelationAtom], assignment: dict[Variable, Constant]
    ) -> bool:
        if not remaining:
            completed = finalize_assignment(comparisons, assignment)
            if completed is None:
                return False
            return instantiate_head(head, completed) not in rhs
        best_index = 0
        best_bucket: Mapping[Row, int] | None = None
        best_out: tuple[Variable, ...] = ()
        for position, atom in enumerate(remaining):
            signature, key_values, out_variables = atom_plan(atom, assignment, relevant)
            bucket = store.index(atom.relation, signature).group(key_values)
            if not bucket:
                # This atom must still be matched, and every match agrees
                # with the key on the bound columns: no bucket, no match.
                return False
            if best_bucket is None or len(bucket) < len(best_bucket):
                best_index, best_bucket, best_out = position, bucket, out_variables
        assert best_bucket is not None
        rest = remaining[:best_index] + remaining[best_index + 1 :]
        for out_tuple in best_bucket:
            extended = dict(assignment)
            compatible = True
            for variable, value in zip(best_out, out_tuple):
                existing = extended.get(variable, _MISSING)
                if existing is _MISSING:
                    extended[variable] = value
                elif existing != value:
                    compatible = False
                    break
            if compatible and descend(rest, extended):
                return True
        return False

    return descend(list(atoms), dict(seed))
