"""Compiled delta plans for the constraint checker, and their hash joins.

When a tuple ``t`` joins relation ``R``, the delta checker of
:mod:`repro.search.propagation` asks, for every constraint atom over ``R``,
whether some LHS match that maps the atom onto ``t`` instantiates a head
outside the constraint's right-hand side.  Everything in that question but
the tuple and the fact store is fixed when the checker is built, so
:func:`compile_seed_plans` resolves it once per constraint into a
:class:`SeedPlan` per atom, and a push runs the plan without looking at the
CQ again (plan once, then run the plan: Neumann, "Efficiently Compiling
Efficient Query Plans for Modern Hardware", VLDB 2011):

* **Seed tests.**  The seed atom's constant positions, its repeated-variable
  positions and the comparisons it binds alone are index pairs tested on
  ``row + tail``, where the tail holds the constants they compare with.  A
  constraint with one atom is then decided from the row: head ∉ RHS.
* **Comparisons.**  A variable that no atom binds is resolved at compile
  time, through its chain of equalities, to an atom variable or a constant
  (CQs are range restricted, so one exists).  A comparison between two
  constants is decided at compile time.  Every other comparison is tested as
  soon as the seed or the join has bound both its sides.  A match is
  accepted exactly when :func:`~repro.queries.evaluation.finalize_assignment`
  would accept it (the linear-scan rule of the reference checker), given
  that ``==`` on the constants is an equivalence relation, as set membership
  already needs.
* **Join environment.**  A constraint with several atoms has one flat list
  of slots, shared by all its seed plans: a slot per *relevant* variable
  (:func:`relevant_variables`), whose bit in a bound set is ``1 << slot``,
  then the constants the join compares with.  Seeding writes the row's
  values into the seed atom's variable slots; the join writes the others.
* **Signatures.**  For each remaining atom, the columns carrying constants or
  bound variables form the index *key*; the columns carrying unbound
  relevant variables form the index *output*.  Unbound variables that are
  not relevant are existentially projected away by the index itself — CQ
  answers are sets, so any single witness row is as good as all of them,
  and duplicate continuations collapse into one bucket entry.  An atom's
  signature, and the comparisons its bindings complete, depend only on which
  variables of its :attr:`JoinAtom.mask` are bound, so the join builds a
  :class:`Probe` the first time it meets a bound subset and keeps it in the
  atom's memo, where every seed plan of the constraint finds it.
* **Greedy ordering.**  At every join step :func:`join_escapes_rhs` looks up
  the *actual* bucket of every remaining atom under the live binding and
  expands the smallest first — the bucket size is an exact selectivity
  measure, not an estimate.  An empty bucket for any remaining atom refutes
  the whole conjunction (every full match must agree with the key on the
  bound columns).  A constraint whose every match escapes (an empty RHS, as
  in a denial constraint) stops at the first complete match.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import AbstractSet, Callable, Iterable, Mapping, Sequence

from repro.exceptions import ArityError, EvaluationError
from repro.queries.atoms import Comparison, ComparisonOp, RelationAtom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Term, Variable, is_variable
from repro.relational.domains import Constant
from repro.relational.indexing import IndexedFactStore, Signature
from repro.relational.instance import Row

#: Reads a tuple of environment values at fixed indexes.
Getter = Callable[[Sequence[Constant]], Row]

#: Environment index pairs whose values must be equal / must differ.
Pairs = tuple[tuple[int, int], ...]


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


def _getter(indexes: Sequence[int]) -> Getter:
    """A callable returning ``tuple(values[i] for i in indexes)``."""
    if len(indexes) >= 2:
        return itemgetter(*indexes)
    if indexes:
        (index,) = indexes
        return lambda values: (values[index],)
    return lambda values: ()


@dataclass(frozen=True, slots=True)
class Probe:
    """One remaining atom's index lookup under one bound subset.

    ``key`` reads the lookup key from the environment; each column of a
    bucket's out-tuples is written to the matching ``out`` slot; then the
    ``same``/``differ`` pairs test the comparisons those bindings complete
    (and a variable repeated among the out columns, via a scratch slot).
    """

    signature: Signature
    key: Getter
    out: tuple[int, ...]
    same: Pairs
    differ: Pairs


#: A column the join reads: ``(position, bit, slot, scratch)`` — the
#: variable's bit (0 for a constant), its environment slot, and for a
#: variable repeated inside the atom the scratch slot its repeat binds (-1
#: otherwise).
_Column = tuple[int, int, int, int]

#: A compiled comparison: ``(left slot, right slot, is_eq, variable bits)``.
_Test = tuple[int, int, bool, int]


class JoinAtom:
    """An atom of a multi-atom constraint, as the join probes it."""

    __slots__ = ("relation", "mask", "binds", "probes", "_columns", "_tests")

    def __init__(
        self,
        relation: str,
        binds: int,
        columns: tuple[_Column, ...],
        tests: tuple[_Test, ...],
    ) -> None:
        self.relation = relation
        #: The variable bits bound once this atom is joined.
        self.binds = binds
        self._columns = columns
        #: The comparisons that share a variable with this atom.
        self._tests = tests
        mask = binds
        for *_, bits in tests:
            mask |= bits
        #: The variable bits whose binding selects the probe.
        self.mask = mask
        #: Bound subset of ``mask`` → its probe, filled by :meth:`build_probe`.
        self.probes: dict[int, Probe] = {}

    def build_probe(self, bound: int) -> Probe:
        """Build and memoise the probe under ``bound`` (a subset of ``mask``).

        The probe is a pure function of the atom and ``bound``, so
        concurrent searches that both miss the memo store equal probes.
        """
        key_positions: list[int] = []
        key_slots: list[int] = []
        out_positions: list[int] = []
        out_slots: list[int] = []
        same: list[tuple[int, int]] = []
        differ: list[tuple[int, int]] = []
        for position, bit, slot, scratch in self._columns:
            if not bit & ~bound:
                # A constant or a bound variable.
                key_positions.append(position)
                key_slots.append(slot)
                continue
            out_positions.append(position)
            if scratch < 0:
                out_slots.append(slot)
            else:
                # The repeat of an unbound variable must agree with its first
                # column.
                out_slots.append(scratch)
                same.append((slot, scratch))
        after = bound | self.binds
        for left, right, equal, bits in self._tests:
            if bits & ~bound and not bits & ~after:
                (same if equal else differ).append((left, right))
        probe = self.probes[bound] = Probe(
            signature=(tuple(key_positions), tuple(out_positions)),
            key=_getter(key_slots),
            out=tuple(out_slots),
            same=tuple(same),
            differ=tuple(differ),
        )
        return probe


@dataclass(frozen=True, slots=True)
class SeedPlan:
    """A constraint CQ compiled for tuples that match one of its atoms.

    A pushed row matches when its length is ``arity`` and the
    ``same``/``differ`` pairs hold on ``row + tail`` (constant positions,
    repeated variables and the comparisons the seed atom binds alone).
    ``head`` reads the answer row (``None``: every match escapes ``rhs``):
    from ``row + tail`` when ``atoms`` is empty (a one-atom constraint),
    from the join environment otherwise.  The join starts from
    ``template``, writes ``row[position]`` into each ``(slot, position)``
    of ``scatter``, which binds the variable bits in ``bound``, and joins
    the remaining ``atoms``.  ``reads`` lists, in order, the row positions
    the plan reads (every seed-test, ``scatter`` and one-atom ``head``
    position): rows that agree on them get the same verdict from the plan.
    """

    atom: RelationAtom
    arity: int
    reads: tuple[int, ...]
    same: Pairs
    differ: Pairs
    tail: Row
    head: Getter | None
    rhs: AbstractSet[Row]
    template: Row
    scatter: Pairs
    bound: int
    atoms: tuple[JoinAtom, ...]


def _reads(arity: int, indexes: Iterable[int]) -> tuple[int, ...]:
    """The row positions among ``indexes`` (those below ``arity``), in order."""
    return tuple(sorted({index for index in indexes if index < arity}))


def _holds(values: Sequence[Constant], same: Pairs, differ: Pairs) -> bool:
    """Whether every ``same`` pair is equal and no ``differ`` pair is."""
    for left, right in same:
        if values[left] != values[right]:
            return False
    for left, right in differ:
        if values[left] == values[right]:
            return False
    return True


def seed_matches(plan: SeedPlan, row: Row) -> Row | None:
    """The row extended by the plan's tail, or ``None`` if a seed test fails.

    A row of the wrong length raises
    :class:`~repro.exceptions.ArityError`, as
    :func:`~repro.queries.evaluation.match_atom` does.
    """
    if len(row) != plan.arity:
        atom = plan.atom
        raise ArityError(
            f"atom {atom!r} has arity {atom.arity} but relation row {row!r} "
            f"has arity {len(row)}"
        )
    values = row + plan.tail
    if (plan.same or plan.differ) and not _holds(values, plan.same, plan.differ):
        return None
    return values


def join_escapes_rhs(store: IndexedFactStore, plan: SeedPlan, seeded: Row) -> bool:
    """Whether some join of the plan's remaining atoms has a head ∉ RHS.

    ``seeded`` is what :func:`seed_matches` returned for the pushed row.
    This is the indexed counterpart of a linear-scan join: it returns
    ``True`` exactly when :func:`~repro.queries.evaluation.match_conjunction`,
    seeded with the same row, would yield an assignment whose instantiated
    head escapes the constraint's right-hand side.
    """
    values = list(plan.template)
    for slot, position in plan.scatter:
        values[slot] = seeded[position]
    return _descend(store, plan, values, plan.atoms, plan.bound)


def _descend(
    store: IndexedFactStore,
    plan: SeedPlan,
    values: list[Constant],
    remaining: tuple[JoinAtom, ...],
    bound: int,
) -> bool:
    """Join ``remaining`` greedily; ``bound`` holds the variable bits set so
    far, and ``values`` their slots (the join writes them)."""
    best = -1
    best_probe: Probe | None = None
    best_bucket: Mapping[Row, int] = {}
    for position, atom in enumerate(remaining):
        selected = bound & atom.mask
        probe = atom.probes.get(selected)
        if probe is None:
            probe = atom.build_probe(selected)
        bucket = store.index(atom.relation, probe.signature).group(probe.key(values))
        if not bucket:
            # This atom must still be matched, and every match agrees with
            # the key on the bound columns: no bucket, no match.
            return False
        if best < 0 or len(bucket) < len(best_bucket):
            best, best_probe, best_bucket = position, probe, bucket
    assert best_probe is not None
    bound |= remaining[best].binds
    rest = remaining[:best] + remaining[best + 1 :]
    out, same, differ = best_probe.out, best_probe.same, best_probe.differ
    head, rhs = plan.head, plan.rhs
    for out_tuple in best_bucket:
        for slot, value in zip(out, out_tuple):
            values[slot] = value
        if (same or differ) and not _holds(values, same, differ):
            continue
        if rest:
            if _descend(store, plan, values, rest, bound):
                return True
        elif head is None or head(values) not in rhs:
            return True
    return False


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------
def compile_seed_plans(query: ConjunctiveQuery, rhs: AbstractSet[Row]) -> tuple[SeedPlan, ...]:
    """One :class:`SeedPlan` per atom of ``query``, in atom order.

    Returns ``()`` when no match of the query can escape ``rhs``: a
    comparison that never holds (two different constants, or ``x ≠ x``) or
    a constant head inside ``rhs``.
    """
    atom_variables: set[Variable] = set()
    for atom in query.atoms:
        atom_variables |= atom.variables()
    resolved: dict[Variable, Term] = {}
    for comparison in query.comparisons:
        if not comparison.variables() <= atom_variables:
            resolved = _resolve_free_variables(query, atom_variables)
            break

    def resolve(term: Term) -> Term:
        return resolved.get(term, term) if is_variable(term) else term

    comparisons: list[tuple[Term, ComparisonOp, Term]] = []
    for comparison in query.comparisons:
        left, right = resolve(comparison.left), resolve(comparison.right)
        if is_variable(left) or is_variable(right):
            if left == right:
                if comparison.op is ComparisonOp.NEQ:
                    return ()
                continue
            comparisons.append((left, comparison.op, right))
        elif not comparison.op.holds(left, right):
            return ()
    head = tuple(resolve(term) for term in query.head)
    constant_head = not any(is_variable(term) for term in head)
    if constant_head and head in rhs:
        return ()
    # With an empty RHS, or a constant head outside it, every match escapes.
    reads_head = bool(rhs) and not constant_head
    if len(query.atoms) == 1:
        (atom,) = query.atoms
        layout = _RowLayout(atom)
        same, differ = layout.tests(atom, comparisons)
        head_slots = [layout.slot(term) for term in head] if reads_head else []
        return (
            SeedPlan(
                atom=atom,
                arity=atom.arity,
                reads=_reads(atom.arity, chain(*same, *differ, head_slots)),
                same=same,
                differ=differ,
                tail=tuple(layout.tail),
                head=_getter(head_slots) if reads_head else None,
                rhs=rhs,
                template=(),
                scatter=(),
                bound=0,
                atoms=(),
            ),
        )

    relevant = relevant_variables(query.atoms, query.comparisons, query.head)
    environment: list[Constant] = []
    slots: dict[Variable, int] = {}
    for atom in query.atoms:
        for term in atom.terms:
            if is_variable(term) and term in relevant and term not in slots:
                slots[term] = len(environment)
                environment.append(None)

    def fresh(value: Constant = None) -> int:
        environment.append(value)
        return len(environment) - 1

    def slot(term: Term) -> int:
        return slots[term] if is_variable(term) else fresh(term)

    def bit(term: Term) -> int:
        return 1 << slots[term] if is_variable(term) else 0

    tests = [
        (slot(left), slot(right), op is ComparisonOp.EQ, bit(left) | bit(right))
        for left, op, right in comparisons
    ]
    join_atoms: list[JoinAtom] = []
    for atom in query.atoms:
        columns: list[_Column] = []
        binds = 0
        for position, term in enumerate(atom.terms):
            if not is_variable(term):
                columns.append((position, 0, fresh(term), -1))
                continue
            variable_slot = slots.get(term)
            if variable_slot is None:
                # An irrelevant variable occurs nowhere else in the query:
                # the index projects it away (existential semantics).
                continue
            variable_bit = 1 << variable_slot
            # A repeat of a variable inside the atom binds a scratch slot.
            scratch = fresh() if binds & variable_bit else -1
            binds |= variable_bit
            columns.append((position, variable_bit, variable_slot, scratch))
        atom_tests = tuple(test for test in tests if test[3] & binds)
        join_atoms.append(JoinAtom(atom.relation, binds, tuple(columns), atom_tests))
    head_getter = _getter([slot(term) for term in head]) if reads_head else None
    template = tuple(environment)

    plans = []
    for index, atom in enumerate(query.atoms):
        layout = _RowLayout(atom)
        same, differ = layout.tests(atom, comparisons)
        scatter = tuple(
            (slots[term], position) for term, position in layout.slots.items() if term in slots
        )
        plans.append(
            SeedPlan(
                atom=atom,
                arity=atom.arity,
                reads=_reads(atom.arity, chain(*same, *differ, (p for _slot, p in scatter))),
                same=same,
                differ=differ,
                tail=tuple(layout.tail),
                head=head_getter,
                rhs=rhs,
                template=template,
                scatter=scatter,
                bound=join_atoms[index].binds,
                atoms=tuple(join_atoms[:index] + join_atoms[index + 1 :]),
            )
        )
    return tuple(plans)


def _resolve_free_variables(
    query: ConjunctiveQuery, atom_variables: AbstractSet[Variable]
) -> dict[Variable, Term]:
    """Map each variable no atom binds to an atom variable or a constant.

    Follows the equality comparisons outward from the atom variables and
    constants, as :func:`~repro.queries.evaluation.finalize_assignment`
    propagates values at a leaf.
    """
    resolved: dict[Variable, Term] = {}

    def lookup(term: Term) -> Term | None:
        if not is_variable(term) or term in atom_variables:
            return term
        return resolved.get(term)

    changed = True
    while changed:
        changed = False
        for comparison in query.comparisons:
            if comparison.op is not ComparisonOp.EQ:
                continue
            left, right = lookup(comparison.left), lookup(comparison.right)
            if left is not None and right is None:
                resolved[comparison.right] = left
                changed = True
            elif right is not None and left is None:
                resolved[comparison.left] = right
                changed = True
    free = query.variables() - atom_variables - resolved.keys()
    if free:
        names = [variable.name for variable in sorted(free)]
        raise EvaluationError(f"query {query.name!r} leaves variables {names} unbound")
    return resolved


class _RowLayout:
    """Slots of ``row + tail`` for one seed atom."""

    def __init__(self, seed: RelationAtom) -> None:
        self.arity = seed.arity
        self.tail: list[Constant] = []
        #: Each variable of the seed atom → its first position.
        self.slots: dict[Variable, int] = {}
        for position, term in enumerate(seed.terms):
            if is_variable(term):
                self.slots.setdefault(term, position)

    def slot(self, term: Term) -> int:
        """A variable's first position, or a new tail slot for a constant."""
        if is_variable(term):
            return self.slots[term]
        self.tail.append(term)
        return self.arity + len(self.tail) - 1

    def tests(
        self, seed: RelationAtom, comparisons: Sequence[tuple[Term, ComparisonOp, Term]]
    ) -> tuple[Pairs, Pairs]:
        """The seed's ``same``/``differ`` pairs: its constant positions, its
        repeated variables and the comparisons it binds alone."""
        same: list[tuple[int, int]] = []
        differ: list[tuple[int, int]] = []
        for position, term in enumerate(seed.terms):
            first = self.slot(term)
            if first != position:
                same.append((first, position))
        for left, op, right in comparisons:
            if all(not is_variable(term) or term in self.slots for term in (left, right)):
                (same if op is ComparisonOp.EQ else differ).append(
                    (self.slot(left), self.slot(right))
                )
        return tuple(same), tuple(differ)
