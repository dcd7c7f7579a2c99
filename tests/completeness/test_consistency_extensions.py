"""Tests for extensions, the consistency problem and the extensibility problem."""

import pytest

from repro.completeness.consistency import (
    consistent_world,
    extension_witness,
    is_consistent,
    is_extensible,
)
from repro.completeness.extensions import (
    bounded_extensions,
    candidate_rows,
    has_partially_closed_extension,
    single_tuple_extensions,
    tableau_extensions,
    tableau_valuations,
)
from repro.constraints.containment import denial_cc, relation_containment_cc
from repro.ctables.adom import build_active_domain
from repro.ctables.cinstance import CInstance, cinstance
from repro.ctables.conditions import condition
from repro.ctables.ctable import CTable, CTableRow
from repro.exceptions import BoundExceededError
from repro.queries.atoms import atom, eq, neq
from repro.queries.cq import boolean_cq, cq
from repro.queries.terms import var
from repro.relational.domains import BOOLEAN_DOMAIN
from repro.relational.instance import empty_instance, instance
from repro.relational.master import MasterData, empty_master
from repro.relational.schema import RelationSchema, database_schema, schema

x, y, a, b = var("x"), var("y"), var("a"), var("b")


@pytest.fixture
def pair_schema():
    return database_schema(schema("R", "A", "B"))


@pytest.fixture
def bool_pair_schema():
    return database_schema(
        RelationSchema("R", [("A", BOOLEAN_DOMAIN), ("B", BOOLEAN_DOMAIN)])
    )


@pytest.fixture
def master_pair():
    master_schema = database_schema(schema("Rm", "A", "B"))
    return MasterData(master_schema, {"Rm": [(0, 0), (1, 1)]})


class TestCandidateRowsAndExtensions:
    def test_candidate_rows_respect_finite_domains(self, bool_pair_schema):
        T = cinstance(bool_pair_schema)
        adom = build_active_domain(cinstance=T)
        rows = list(candidate_rows(bool_pair_schema["R"], adom))
        assert set(rows) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_single_tuple_extensions_respect_ccs(self, bool_pair_schema, master_pair):
        constraint = relation_containment_cc("R", bool_pair_schema, "Rm")
        base = empty_instance(bool_pair_schema)
        adom = build_active_domain(cinstance=cinstance(bool_pair_schema), master=master_pair)
        extensions = list(
            single_tuple_extensions(base, master_pair, [constraint], adom)
        )
        added = {tuple(ext["R"].rows)[0] for ext in extensions}
        assert added == {(0, 0), (1, 1)}

    def test_single_tuple_extensions_skip_existing_rows(self, bool_pair_schema, master_pair):
        constraint = relation_containment_cc("R", bool_pair_schema, "Rm")
        base = instance(bool_pair_schema, R=[(0, 0)])
        adom = build_active_domain(cinstance=cinstance(bool_pair_schema), master=master_pair)
        extensions = list(single_tuple_extensions(base, master_pair, [constraint], adom))
        assert len(extensions) == 1
        assert (1, 1) in extensions[0]["R"]

    def test_extension_budget(self, pair_schema):
        base = empty_instance(pair_schema)
        md = empty_master(database_schema(schema("Rm", "A", "B")))
        adom = build_active_domain(
            cinstance=cinstance(pair_schema), extra_constants=set(range(10))
        )
        with pytest.raises(BoundExceededError):
            list(single_tuple_extensions(base, md, [], adom, limit=5))

    def test_bounded_extensions_depth(self, bool_pair_schema, master_pair):
        constraint = relation_containment_cc("R", bool_pair_schema, "Rm")
        base = empty_instance(bool_pair_schema)
        adom = build_active_domain(cinstance=cinstance(bool_pair_schema), master=master_pair)
        depth1 = list(bounded_extensions(base, master_pair, [constraint], adom, 1))
        depth2 = list(bounded_extensions(base, master_pair, [constraint], adom, 2))
        assert {ext.size for ext in depth1} == {1}
        assert {ext.size for ext in depth2} == {1, 2}

    def test_tableau_valuations_satisfy_comparisons(self, bool_pair_schema):
        q = cq("Q", [x], atoms=[atom("R", x, y)], comparisons=[neq(x, y)])
        adom = build_active_domain(cinstance=cinstance(bool_pair_schema))
        valuations = list(tableau_valuations(q, adom, empty_instance(bool_pair_schema)))
        assert valuations
        assert all(v[x] != v[y] for v in valuations)
        assert all(v[x] in (0, 1) and v[y] in (0, 1) for v in valuations)

    def test_tableau_extensions_partially_closed_only(self, bool_pair_schema, master_pair):
        constraint = relation_containment_cc("R", bool_pair_schema, "Rm")
        q = cq("Q", [x, y], atoms=[atom("R", x, y)])
        base = empty_instance(bool_pair_schema)
        adom = build_active_domain(cinstance=cinstance(bool_pair_schema), master=master_pair)
        results = list(
            tableau_extensions(base, q, master_pair, [constraint], adom)
        )
        worlds = {tuple(sorted(ext["R"].rows)) for _v, ext in results}
        assert worlds == {((0, 0),), ((1, 1),)}


class TestConsistencyProblem:
    def test_unconstrained_cinstance_is_consistent(self, pair_schema):
        md = empty_master(database_schema(schema("Rm", "A", "B")))
        T = cinstance(pair_schema, R=[(x, 1)])
        assert is_consistent(T, md, [])
        assert consistent_world(T, md, []) is not None

    def test_denial_constraint_can_make_inconsistent(self, pair_schema):
        md = empty_master(database_schema(schema("Rm", "A", "B")))
        forbid_all = denial_cc(boolean_cq("q", atoms=[atom("R", a, b)]))
        T = cinstance(pair_schema, R=[(x, 1)])
        assert not is_consistent(T, md, [forbid_all])
        assert consistent_world(T, md, [forbid_all]) is None

    def test_conditions_can_restore_consistency(self, bool_pair_schema):
        # The denial constraint forbids rows with A = 1; the c-table row can
        # only avoid it because its condition allows choosing x = 0.
        md = empty_master(database_schema(schema("Rm", "A", "B")))
        forbid_one = denial_cc(
            boolean_cq("q", atoms=[atom("R", a, b)], comparisons=[eq(a, 1)])
        )
        table = CTable(bool_pair_schema["R"], [CTableRow((x, 0))])
        T = CInstance(bool_pair_schema, {"R": table})
        assert is_consistent(T, md, [forbid_one])
        # A condition that pins the variable to the forbidden value does not
        # make the c-instance inconsistent: the violating valuation simply
        # drops the row, leaving the (consistent) empty world.
        table_pinned = CTable(
            bool_pair_schema["R"], [CTableRow((x, 0), condition(eq(x, 1)))]
        )
        T_pinned = CInstance(bool_pair_schema, {"R": table_pinned})
        assert is_consistent(T_pinned, md, [forbid_one])
        assert consistent_world(T_pinned, md, [forbid_one]).is_empty()
        # A ground row carrying the forbidden value, however, is inconsistent.
        T_bad = cinstance(bool_pair_schema, R=[(1, 0)])
        assert not is_consistent(T_bad, md, [forbid_one])

    def test_master_bound_consistency(self, bool_pair_schema, master_pair):
        constraint = relation_containment_cc("R", bool_pair_schema, "Rm")
        consistent = cinstance(bool_pair_schema, R=[(x, x)])
        # A ground row outside the master relation cannot be repaired by any
        # valuation, so the c-instance represents no partially closed world.
        inconsistent = cinstance(bool_pair_schema, R=[(0, 1), (x, x)])
        assert is_consistent(consistent, master_pair, [constraint])
        assert not is_consistent(inconsistent, master_pair, [constraint])


class TestExtensibilityProblem:
    def test_unconstrained_instance_is_extensible(self, pair_schema):
        md = empty_master(database_schema(schema("Rm", "A", "B")))
        assert is_extensible(empty_instance(pair_schema), md, [])
        assert extension_witness(empty_instance(pair_schema), md, []) is not None

    def test_saturated_instance_is_not_extensible(self, bool_pair_schema, master_pair):
        constraint = relation_containment_cc("R", bool_pair_schema, "Rm")
        saturated = instance(bool_pair_schema, R=[(0, 0), (1, 1)])
        assert not is_extensible(saturated, master_pair, [constraint])
        assert extension_witness(saturated, master_pair, [constraint]) is None

    def test_partially_saturated_instance_is_extensible(self, bool_pair_schema, master_pair):
        constraint = relation_containment_cc("R", bool_pair_schema, "Rm")
        partial = instance(bool_pair_schema, R=[(0, 0)])
        assert is_extensible(partial, master_pair, [constraint])
        witness = extension_witness(partial, master_pair, [constraint])
        assert witness is not None
        assert (1, 1) in witness["R"]

    def test_denial_of_everything_blocks_extension(self, bool_pair_schema):
        md = empty_master(database_schema(schema("Rm", "A", "B")))
        forbid_all = denial_cc(boolean_cq("q", atoms=[atom("R", a, b)]))
        assert not is_extensible(empty_instance(bool_pair_schema), md, [forbid_all])

    def test_has_partially_closed_extension_matches_is_extensible(
        self, bool_pair_schema, master_pair
    ):
        constraint = relation_containment_cc("R", bool_pair_schema, "Rm")
        base = instance(bool_pair_schema, R=[(0, 0)])
        adom = build_active_domain(
            cinstance=cinstance(bool_pair_schema), master=master_pair
        )
        assert has_partially_closed_extension(base, master_pair, [constraint], adom)
