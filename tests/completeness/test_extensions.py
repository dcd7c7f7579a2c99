"""Oracle-backed coverage for ``completeness/extensions.py``.

Every enumerator in :mod:`repro.completeness.extensions` is compared against
an independent brute-force oracle built directly from ``itertools.product``
over the Adom pools plus :func:`satisfies_all` on complete instances —
no shared code paths with the enumerators under test:

* :func:`candidate_rows` — exact candidate universe, finite-domain
  restrictions, and the ``fresh_first`` reordering (same set, fresh-valued
  rows first);
* :func:`single_tuple_extensions` / :func:`has_partially_closed_extension`
  — exactly the partially closed one-tuple supersets;
* :func:`tableau_valuations` / :func:`tableau_extensions` — exactly the
  comparison-respecting valuations whose frozen tableau keeps the instance
  partially closed;
* :func:`bounded_extensions` — exactly the partially closed supersets
  adding at most ``k`` Adom tuples (CC monotonicity makes every
  intermediate partially closed, so the BFS loses nothing);
* the ``require_consistent`` interplay: deciders on an *inconsistent*
  c-instance raise by default and go vacuous with
  ``require_consistent=False``, while a consistent-but-inextensible world
  shows the extension machinery and the deciders agreeing on emptiness.
"""

from __future__ import annotations

import itertools

import pytest

from repro.completeness.consistency import (
    extensibility_active_domain,
    extension_witness,
    is_consistent,
    is_extensible,
)  # noqa: F401  (is_extensible exercised in the lazy-limit regression)
from repro.completeness.extensions import (
    bounded_extensions,
    candidate_rows,
    has_partially_closed_extension,
    single_tuple_extensions,
    tableau_extensions,
    tableau_valuations,
)
from repro.completeness.ground import is_ground_complete_bounded
from repro.completeness.strong import is_strongly_complete, is_strongly_complete_bounded
from repro.completeness.weak import is_weakly_complete
from repro.constraints.containment import (
    cc,
    denial_cc,
    projection,
    relation_containment_cc,
    satisfies_all,
)
from repro.ctables.cinstance import cinstance
from repro.exceptions import BoundExceededError, InconsistentCInstanceError
from repro.queries.atoms import atom, eq, neq
from repro.queries.cq import cq
from repro.queries.tableau import freeze
from repro.queries.terms import var
from repro.relational.domains import BOOLEAN_DOMAIN
from repro.relational.instance import empty_instance, instance
from repro.relational.master import MasterData, empty_master
from repro.relational.schema import RelationSchema, database_schema, schema
from repro.utils.naming import is_fresh_constant

# The brute-force oracles are shared with the three-way extension-parity suite
# (tests/search/test_extension_parity.py); one definition, two consumers.
from tests.search.harness import (
    oracle_bounded_extensions,
    oracle_candidate_rows,
    oracle_single_tuple_extensions,
)

x, y = var("x"), var("y")

BOOL_PAIR_SCHEMA = database_schema(
    RelationSchema("R", [("A", BOOLEAN_DOMAIN), ("B", BOOLEAN_DOMAIN)])
)
MASTER_PAIR = MasterData(
    database_schema(schema("Rm", "A", "B")), {"Rm": [(0, 0), (1, 1)]}
)
BOUND_CC = cc(
    cq("bound", [x, y], atoms=[atom("R", x, y)]),
    projection("Rm", "A", "B"),
    name="r⊆rm",
)


# ---------------------------------------------------------------------------
# candidate_rows
# ---------------------------------------------------------------------------
class TestCandidateRows:
    def test_matches_oracle_universe(self):
        base = instance(BOOL_PAIR_SCHEMA, R=[(0, 0)])
        adom = extensibility_active_domain(base, MASTER_PAIR, [BOUND_CC])
        produced = list(candidate_rows(BOOL_PAIR_SCHEMA["R"], adom))
        assert produced == oracle_candidate_rows(BOOL_PAIR_SCHEMA["R"], adom)

    def test_fresh_first_reorders_but_preserves_the_set(self):
        pair_schema = database_schema(schema("R", "A", "B"))
        base = instance(pair_schema, R=[("c", "d")])
        adom = extensibility_active_domain(base, empty_master(pair_schema), [])
        default_order = list(candidate_rows(pair_schema["R"], adom))
        fresh_order = list(candidate_rows(pair_schema["R"], adom, fresh_first=True))
        assert set(default_order) == set(fresh_order)
        # Every all-fresh row precedes every no-fresh row in fresh_first mode.
        first_no_fresh = next(
            i
            for i, row in enumerate(fresh_order)
            if not any(is_fresh_constant(value) for value in row)
        )
        assert all(
            any(is_fresh_constant(value) for value in row)
            for row in fresh_order[:first_no_fresh]
        )
        assert any(is_fresh_constant(value) for value in fresh_order[0])


# ---------------------------------------------------------------------------
# single-tuple extensions vs the oracle
# ---------------------------------------------------------------------------
class TestSingleTupleExtensions:
    @pytest.mark.parametrize("engine", ["naive", "propagating", "sat"])
    @pytest.mark.parametrize(
        "base_rows",
        [[], [(0, 0)], [(0, 0), (1, 1)]],
    )
    def test_matches_oracle(self, base_rows, engine):
        base = instance(BOOL_PAIR_SCHEMA, R=base_rows)
        adom = extensibility_active_domain(base, MASTER_PAIR, [BOUND_CC])
        produced = set(
            single_tuple_extensions(base, MASTER_PAIR, [BOUND_CC], adom, engine=engine)
        )
        assert produced == oracle_single_tuple_extensions(
            base, MASTER_PAIR, [BOUND_CC], adom
        )

    def test_relations_filter_restricts_target(self):
        two_schema = database_schema(schema("R", "A"), schema("S", "A"))
        base = empty_instance(two_schema)
        adom = extensibility_active_domain(base, empty_master(two_schema), [])
        only_s = list(
            single_tuple_extensions(
                base, empty_master(two_schema), [], adom, relations=["S"]
            )
        )
        assert only_s
        assert all(ext.relation("R").rows == frozenset() for ext in only_s)
        assert all(len(ext.relation("S").rows) == 1 for ext in only_s)

    def test_limit_raises_bound_exceeded(self):
        base = instance(BOOL_PAIR_SCHEMA, R=[])
        adom = extensibility_active_domain(base, MASTER_PAIR, [BOUND_CC])
        with pytest.raises(BoundExceededError):
            list(single_tuple_extensions(base, MASTER_PAIR, [BOUND_CC], adom, limit=1))

    def test_early_witness_beats_a_tight_limit(self):
        # Historical lazy-limit semantics: a valid extension that sits early
        # in candidate-pool order is found and returned before the budget
        # trips, even though the full universe (4) exceeds the budget (1);
        # the same probe drained to exhaustion still raises.
        base = instance(BOOL_PAIR_SCHEMA, R=[])
        adom = extensibility_active_domain(base, MASTER_PAIR, [BOUND_CC])
        first = next(
            single_tuple_extensions(base, MASTER_PAIR, [BOUND_CC], adom, limit=1)
        )
        assert (0, 0) in first["R"]
        assert has_partially_closed_extension(
            base, MASTER_PAIR, [BOUND_CC], adom, limit=1
        )
        assert is_extensible(base, MASTER_PAIR, [BOUND_CC], adom, limit=1).holds

    def test_unbudgeted_probe_engages_fresh_value_symmetry(self):
        # The unbudgeted probe searches one valuation per orbit of the
        # fresh-value permutation group (``break_symmetry=True``).  Observe
        # the engine objects it creates through the registry collector and
        # check the fresh-value ranking is actually installed — and that the
        # verdict matches the budgeted (unreduced, per-candidate) path.
        from repro.search.registry import collect_searches

        two_schema = database_schema(schema("R", "A", "B"))
        master = MasterData(
            database_schema(schema("Rm", "A", "B")), {"Rm": [("m0", "m1")]}
        )
        # Forbid rows with A = B: the constraint's variables put two fresh,
        # nothing-distinguishes-them values into the extensibility Adom.
        forbid_equal = denial_cc(
            cq("V", [], atoms=[atom("R", x, y)], comparisons=[eq(x, y)]),
            two_schema,
        )
        base = instance(two_schema, R=[("m0", "m1")])
        adom = extensibility_active_domain(base, master, [forbid_equal])
        assert len(adom.fresh_values) >= 2

        searches: list = []
        with collect_searches(searches):
            unbudgeted = has_partially_closed_extension(
                base, master, [forbid_equal], adom
            )
        assert unbudgeted is True
        ranked = [s for s in searches if getattr(s, "_fresh_rank", None)]
        assert ranked, "probe never installed a fresh-value ranking"
        assert all(
            set(s._fresh_rank) <= set(adom.fresh_values) for s in ranked
        )
        # Parity with the historical budgeted scan (same verdict, no
        # symmetry reduction there because of per-candidate accounting).
        assert has_partially_closed_extension(
            base, master, [forbid_equal], adom, limit=1000
        ) is True

    def test_has_extension_agrees_with_oracle(self):
        # The full Rm-image base admits no strict extension inside Rm.
        saturated = instance(BOOL_PAIR_SCHEMA, R=[(0, 0), (1, 1)])
        adom = extensibility_active_domain(saturated, MASTER_PAIR, [BOUND_CC])
        oracle = oracle_single_tuple_extensions(
            saturated, MASTER_PAIR, [BOUND_CC], adom
        )
        assert has_partially_closed_extension(
            saturated, MASTER_PAIR, [BOUND_CC], adom
        ) == bool(oracle)
        assert not oracle  # every remaining Boolean pair violates the bound


# ---------------------------------------------------------------------------
# tableau valuations / extensions vs the oracle
# ---------------------------------------------------------------------------
class TestTableauExtensions:
    def test_valuations_respect_comparisons_and_finite_domains(self):
        base = instance(BOOL_PAIR_SCHEMA, R=[(0, 0)])
        adom = extensibility_active_domain(base, MASTER_PAIR, [BOUND_CC])
        query = cq("Q", [x], atoms=[atom("R", x, y)], comparisons=[neq(x, y)])
        produced = list(tableau_valuations(query, adom, base))
        # Oracle: x and y range over the Boolean attribute domains; x ≠ y.
        expected = [
            {x: a, y: b} for a in (0, 1) for b in (0, 1) if a != b
        ]
        assert sorted(produced, key=repr) == sorted(expected, key=repr)

    def test_extensions_match_oracle(self):
        base = instance(BOOL_PAIR_SCHEMA, R=[(0, 0)])
        adom = extensibility_active_domain(base, MASTER_PAIR, [BOUND_CC])
        query = cq("Q", [x, y], atoms=[atom("R", x, y)])
        produced = {
            extended
            for _valuation, extended in tableau_extensions(
                base, query, MASTER_PAIR, [BOUND_CC], adom
            )
        }
        expected = set()
        for valuation in tableau_valuations(query, adom, base):
            extended = base.with_tuples(freeze(query.atoms, valuation))
            if satisfies_all(extended, MASTER_PAIR, [BOUND_CC]):
                expected.add(extended)
        assert produced == expected
        # Non-strict extensions are included: ν(T_Q) ⊆ I yields I itself.
        assert base in produced

    def test_limit_raises_bound_exceeded(self):
        base = instance(BOOL_PAIR_SCHEMA, R=[(0, 0)])
        adom = extensibility_active_domain(base, MASTER_PAIR, [BOUND_CC])
        query = cq("Q", [x, y], atoms=[atom("R", x, y)])
        with pytest.raises(BoundExceededError):
            list(
                tableau_extensions(
                    base, query, MASTER_PAIR, [BOUND_CC], adom, limit=1
                )
            )

    def test_early_witness_beats_a_tight_limit(self):
        # Lazy-limit semantics for the tableau route: the ν = {x↦0, y↦0}
        # valuation is first in enumeration order and partially closed, so a
        # budget of 1 still yields it; draining past the budget raises.
        base = instance(BOOL_PAIR_SCHEMA, R=[(0, 0)])
        adom = extensibility_active_domain(base, MASTER_PAIR, [BOUND_CC])
        query = cq("Q", [x, y], atoms=[atom("R", x, y)])
        valuation, extended = next(
            tableau_extensions(base, query, MASTER_PAIR, [BOUND_CC], adom, limit=1)
        )
        assert valuation == {x: 0, y: 0}
        assert extended == base


# ---------------------------------------------------------------------------
# bounded extensions vs the oracle
# ---------------------------------------------------------------------------
class TestBoundedExtensions:
    @pytest.mark.parametrize("engine", ["naive", "propagating", "sat"])
    @pytest.mark.parametrize("max_new_tuples", [1, 2])
    def test_matches_oracle(self, max_new_tuples, engine):
        base = instance(BOOL_PAIR_SCHEMA, R=[])
        adom = extensibility_active_domain(base, MASTER_PAIR, [BOUND_CC])
        produced = set(
            bounded_extensions(
                base, MASTER_PAIR, [BOUND_CC], adom,
                max_new_tuples=max_new_tuples, engine=engine,
            )
        )
        assert produced == oracle_bounded_extensions(
            base, MASTER_PAIR, [BOUND_CC], adom, max_new_tuples
        )

    def test_yields_each_extension_once(self):
        base = instance(BOOL_PAIR_SCHEMA, R=[])
        adom = extensibility_active_domain(base, MASTER_PAIR, [BOUND_CC])
        produced = list(
            bounded_extensions(base, MASTER_PAIR, [BOUND_CC], adom, max_new_tuples=2)
        )
        assert len(produced) == len(set(produced))

    def test_limit_raises_bound_exceeded(self):
        pair_schema = database_schema(schema("R", "A", "B"))
        base = instance(pair_schema, R=[("c", "d")])
        adom = extensibility_active_domain(base, empty_master(pair_schema), [])
        # 3 Adom values -> 8 unconstrained one-tuple extensions; a budget of
        # 3 inspected instances must trip.
        with pytest.raises(BoundExceededError):
            list(
                bounded_extensions(
                    base, empty_master(pair_schema), [], adom,
                    max_new_tuples=2, limit=3,
                )
            )


# ---------------------------------------------------------------------------
# regression: a bounded-extension budget hit exactly at the last candidate
# ---------------------------------------------------------------------------
class TestBoundedLimitExactRegression:
    """``limit`` counts *distinct* extensions, so an exact budget completes.

    Before the fix, ``bounded_extensions`` charged duplicate extensions (the
    same 2-tuple superset reached along both addition orders) against the
    budget, so a ``limit`` equal to the number of distinct extensions
    spuriously raised :class:`BoundExceededError` on a trailing duplicate —
    and that raise escaped the bounded deciders *before* they could return
    their ``require_consistent``-aware verdict.
    """

    BOOL_UNARY = database_schema(RelationSchema("R", [("A", BOOLEAN_DOMAIN)]))

    def _context(self):
        base = empty_instance(self.BOOL_UNARY)
        master = empty_master(database_schema(schema("M", "A")))
        adom = extensibility_active_domain(base, master, [])
        return base, master, adom

    def test_exact_budget_completes_despite_trailing_duplicate(self):
        base, master, adom = self._context()
        # Distinct extensions of ∅ by ≤ 2 Boolean tuples: {0}, {1}, {0,1};
        # the old per-candidate counter saw 4 (the duplicate {1,0} order).
        produced = list(
            bounded_extensions(base, master, [], adom, max_new_tuples=2, limit=3)
        )
        assert len(produced) == 3
        assert produced == list(dict.fromkeys(produced))
        with pytest.raises(BoundExceededError):
            list(bounded_extensions(base, master, [], adom, max_new_tuples=2, limit=2))

    def test_bounded_decider_survives_an_exact_budget(self):
        base, master, adom = self._context()
        # A constant-answer query: no extension changes it, so the decider
        # must drain all three distinct extensions — exactly the budget.
        constant_query = cq("Q", [], comparisons=[eq(1, 1)])
        exact = is_ground_complete_bounded(
            base, constant_query, master, [], max_new_tuples=2, adom=adom, limit=3
        )
        unlimited = is_ground_complete_bounded(
            base, constant_query, master, [], max_new_tuples=2, adom=adom
        )
        assert exact.holds is True
        assert exact == unlimited

    def test_strong_bounded_with_exact_budget_and_require_consistent(self):
        _base, master, _adom = self._context()
        constant_query = cq("Q", [], comparisons=[eq(1, 1)])
        T = cinstance(self.BOOL_UNARY)  # one world: the empty instance
        verdict = is_strongly_complete_bounded(
            T, constant_query, master, [], max_new_tuples=2, limit=3
        )
        assert verdict.holds is True
        # The flag keeps working when the budget is tight: an inconsistent
        # input still raises by default and goes vacuous with the flag off.
        forbid_all = denial_cc(cq("forbid", [x], atoms=[atom("R", x)]))
        bad = cinstance(self.BOOL_UNARY, R=[(x,)])
        with pytest.raises(InconsistentCInstanceError):
            is_strongly_complete_bounded(
                bad, constant_query, master, [forbid_all],
                max_new_tuples=2, limit=3,
            )
        assert is_strongly_complete_bounded(
            bad, constant_query, master, [forbid_all],
            max_new_tuples=2, limit=3, require_consistent=False,
        ).holds is True


# ---------------------------------------------------------------------------
# require_consistent interplay with the extension machinery
# ---------------------------------------------------------------------------
class TestRequireConsistentInterplay:
    @pytest.fixture
    def inconsistent(self):
        """A c-instance with no model at all (every R tuple is forbidden)."""
        bool_schema = database_schema(RelationSchema("R", [("A", BOOLEAN_DOMAIN)]))
        forbid_all = denial_cc(cq("q", [x], atoms=[atom("R", x)]))
        T = cinstance(bool_schema, R=[(x,)])
        master = empty_master(database_schema(schema("M", "A")))
        return T, master, [forbid_all]

    @pytest.mark.parametrize("engine", ["naive", "propagating", "sat"])
    def test_deciders_raise_then_go_vacuous(self, inconsistent, engine):
        T, master, constraints = inconsistent
        assert not is_consistent(T, master, constraints, engine=engine)
        query = cq("Q", [x], atoms=[atom("R", x)])
        for decider in (is_strongly_complete, is_weakly_complete):
            with pytest.raises(InconsistentCInstanceError):
                decider(T, query, master, constraints, engine=engine)
            assert decider(
                T, query, master, constraints,
                require_consistent=False, engine=engine,
            )

    def test_inextensible_world_of_a_consistent_cinstance(self):
        # R bounded by a single-tuple master: the world {(1,1)} saturates the
        # bound, so Ext(I) = ∅ — extensibility and the oracle agree.
        master = MasterData(
            database_schema(
                RelationSchema("Rm", [("A", BOOLEAN_DOMAIN), ("B", BOOLEAN_DOMAIN)])
            ),
            {"Rm": [(1, 1)]},
        )
        constraint = relation_containment_cc("R", BOOL_PAIR_SCHEMA, "Rm")
        world = instance(BOOL_PAIR_SCHEMA, R=[(1, 1)])
        adom = extensibility_active_domain(world, master, [constraint])
        assert not oracle_single_tuple_extensions(world, master, [constraint], adom)
        assert not is_extensible(world, master, [constraint])
        assert extension_witness(world, master, [constraint]) is None

    def test_extension_witness_is_partially_closed_superset(self):
        base = instance(BOOL_PAIR_SCHEMA, R=[(0, 0)])
        witness = extension_witness(base, MASTER_PAIR, [BOUND_CC])
        assert witness is not None
        assert witness.size == base.size + 1
        assert satisfies_all(witness, MASTER_PAIR, [BOUND_CC])
        assert base.relation("R").rows < witness.relation("R").rows

    def test_weak_decider_consumes_extension_family(self):
        # A base world with extensions: the weak decider's verdict must match
        # a manual check over the oracle's extension family for a point query.
        base_cinstance = cinstance(BOOL_PAIR_SCHEMA, R=[(1, 1)])
        query = cq("Q", [x], atoms=[atom("R", x, x)])
        verdict = is_weakly_complete(
            base_cinstance, query, MASTER_PAIR, [BOUND_CC]
        )
        # (0,0) can always be added, adding answer 0: not weakly complete.
        assert verdict.holds is False
