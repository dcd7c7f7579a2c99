"""Hash indexes over ground facts, keyed by bound-position signatures.

The delta constraint checker (:mod:`repro.search.propagation`) turns every
pushed tuple into a handful of conjunctive-query joins: the remaining atoms of
each constraint CQ must be matched against the facts grounded so far.  Before
this module those joins were linear scans over per-relation tuple sets; the
classes here replace them with hash lookups.

A :class:`FactIndex` materialises one *signature* of a relation: a pair
``(key_positions, out_positions)`` of column indexes.  For every stored row it
groups the projection onto ``out_positions`` under the projection onto
``key_positions``.  Looking up the current binding of an atom's bound columns
then yields exactly the candidate continuations, already projected onto the
columns the rest of the join can still use — columns carrying variables that
occur nowhere else in the query (and not in the head or comparisons) are
projected away entirely, which collapses duplicate continuations into one
bucket entry.  Because two distinct rows may project onto the same out-tuple,
buckets are *multisets* (out-tuple → multiplicity): removing one of the two
rows must not delete the shared continuation.

:class:`IndexedFactStore` is the mutable fact store used by
:class:`~repro.search.propagation.CheckerSession`.  It subclasses
``dict[str, set[Row]]`` so every existing consumer of the plain
``facts`` mapping keeps working unchanged, and adds:

* :meth:`IndexedFactStore.add_row` / :meth:`IndexedFactStore.discard_row` —
  the only mutators; they keep every built index in sync with the base sets,
  so index entries added on push are unwound exactly on pop.
* :meth:`IndexedFactStore.index` — lazily builds (then incrementally
  maintains) the :class:`FactIndex` for a signature.  Nothing is indexed
  until a join first asks for a signature, so non-indexed sessions pay only
  an empty-tuple lookup per mutation.
* attribute-value interning: equal constants pushed through the store are
  canonicalised to one representative object, so the hash of a hot value is
  computed against the same object identity in every bucket.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from repro.relational.domains import Constant
from repro.relational.instance import Row

#: A bound-position signature: column indexes the join has bindings for
#: (lookup key) and column indexes the join still needs (projected output).
Signature = tuple[tuple[int, ...], tuple[int, ...]]

_EMPTY_BUCKET: Mapping[Row, int] = {}


def _single(position: int, row: Row) -> Row:
    return (row[position],)


def _nothing(row: Row) -> Row:
    return ()


def _projector(positions: tuple[int, ...]) -> Callable[[Row], Row]:
    """A function projecting a row onto ``positions``, always as a tuple.

    ``itemgetter`` returns a tuple for two or more positions only: with one
    it returns the bare value, and with none it cannot be built.  Every
    projector pickles, so an index does too.
    """
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        return partial(_single, positions[0])
    return _nothing


class FactIndex:
    """One hash index over one relation for one bound-position signature.

    ``buckets`` maps each key projection to the multiset of out projections
    of the rows sharing that key; a key whose multiset empties is dropped.
    The join sizes a bucket exactly (``len``), so no statistics are kept.
    Both projections are compiled once, when the index is built.
    """

    __slots__ = ("key_positions", "out_positions", "buckets", "_key", "_out")

    def __init__(
        self,
        key_positions: tuple[int, ...],
        out_positions: tuple[int, ...],
        rows: Iterable[Row] = (),
    ) -> None:
        self.key_positions = key_positions
        self.out_positions = out_positions
        self._key = _projector(key_positions)
        self._out = _projector(out_positions)
        self.buckets: dict[Row, dict[Row, int]] = {}
        for row in rows:
            self.add(row)

    def add(self, row: Row) -> None:
        """Register one stored row with the index."""
        bucket = self.buckets.setdefault(self._key(row), {})
        out = self._out(row)
        bucket[out] = bucket.get(out, 0) + 1

    def discard(self, row: Row) -> None:
        """Unregister one previously :meth:`add`-ed row."""
        key = self._key(row)
        out = self._out(row)
        bucket = self.buckets[key]
        count = bucket[out] - 1
        if count:
            bucket[out] = count
        else:
            del bucket[out]
            if not bucket:
                del self.buckets[key]

    def group(self, key: Row) -> Mapping[Row, int]:
        """The out-tuple multiset stored under ``key`` (empty if absent)."""
        return self.buckets.get(key, _EMPTY_BUCKET)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FactIndex(key={self.key_positions}, out={self.out_positions}, "
            f"{len(self.buckets)} buckets)"
        )


class IndexedFactStore(dict[str, set[Row]]):
    """Mutable per-relation fact sets with lazily built hash indexes.

    The mapping interface is the plain ``{relation: set-of-rows}`` store the
    rest of the search stack already consumes; mutation must go through
    :meth:`add_row` / :meth:`discard_row` so the built indexes stay
    consistent with the base sets.
    """

    __slots__ = ("_indexes", "_relation_indexes", "_interned")

    def __init__(self, relation_names: Iterable[str] = ()) -> None:
        super().__init__({name: set() for name in relation_names})
        # signature-keyed view plus a per-relation list for O(#indexes)
        # maintenance on the mutation path.
        self._indexes: dict[tuple[str, Signature], FactIndex] = {}
        self._relation_indexes: dict[str, list[FactIndex]] = {}
        self._interned: dict[Constant, Constant] = {}

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def intern_row(self, row: Row) -> Row:
        """Canonicalise the attribute values of ``row`` to one object each."""
        interned = self._interned
        return tuple(interned.setdefault(value, value) for value in row)

    # ------------------------------------------------------------------
    # mutation (the only writers; keep base sets and indexes in sync)
    # ------------------------------------------------------------------
    def add_row(self, relation: str, row: Row) -> tuple[Row, bool]:
        """Add ``row`` to ``relation``; return ``(stored row, was added)``.

        The returned row is the interned representative actually stored —
        callers should record *that* object (e.g. on an undo trail) so a
        later :meth:`discard_row` hits the same dictionary entries.
        """
        store = self.setdefault(relation, set())
        row = self.intern_row(row)
        if row in store:
            return row, False
        store.add(row)
        for index in self._relation_indexes.get(relation, ()):
            index.add(row)
        return row, True

    def discard_row(self, relation: str, row: Row) -> bool:
        """Remove a previously added row, unwinding its index entries.

        Returns whether the row was present (and therefore removed), so
        callers batching removals — the incremental-update path of
        :meth:`repro.api.Database.update` — can report exactly which drops
        took effect without a separate membership probe.
        """
        store = self.get(relation)
        if store is None or row not in store:
            return False
        store.discard(row)
        for index in self._relation_indexes.get(relation, ()):
            index.discard(row)
        return True

    # ------------------------------------------------------------------
    # index access
    # ------------------------------------------------------------------
    def index(self, relation: str, signature: Signature) -> FactIndex:
        """The :class:`FactIndex` for ``(relation, signature)``.

        Built lazily from the rows currently stored, then maintained
        incrementally by :meth:`add_row` / :meth:`discard_row`.
        """
        key = (relation, signature)
        index = self._indexes.get(key)
        if index is None:
            index = FactIndex(*signature, rows=self.get(relation, ()))
            self._indexes[key] = index
            self._relation_indexes.setdefault(relation, []).append(index)
        return index
