"""Tests for c-tables and c-instances, including the paper's Figure 1."""

import pytest

from repro.exceptions import CTableError, ValuationError
from repro.ctables.cinstance import CInstance, cinstance
from repro.ctables.conditions import TRUE, condition
from repro.ctables.ctable import CTable, CTableRow
from repro.queries.atoms import neq
from repro.queries.terms import var
from repro.relational.domains import BOOLEAN_DOMAIN
from repro.relational.instance import Relation, instance
from repro.relational.schema import RelationSchema, database_schema, schema

x, y, z, w, u = var("x"), var("y"), var("z"), var("w"), var("u")


@pytest.fixture
def mvisit_schema():
    """The MVisit schema of Example 1.1."""
    return schema("MVisit", "NHS", "name", "city", "yob", "GD", "Date", "Diag", "DrID")


@pytest.fixture
def figure1_ctable(mvisit_schema):
    """The c-table of Figure 1."""
    return CTable(
        mvisit_schema,
        [
            CTableRow(("915-15-335", "John", "EDI", 2000, "M", "15/03/2015", "Flu", "01")),
            CTableRow(
                ("915-15-356", x, "EDI", z, "F", "15/03/2015", "Diabetes", "01"),
                condition(neq(z, 2001)),
            ),
            CTableRow(
                ("915-15-357", "Mary", w, 2000, "F", "15/03/2015", "Influenza", u),
                condition(neq(w, "EDI")),
            ),
            CTableRow(("915-15-358", "Jack", "LON", 2000, "M", "15/03/2015", "Influenza", "02")),
            CTableRow(("915-15-359", "Louis", "LON", 2000, "M", "15/03/2015", "Diabetes", "03")),
        ],
    )


class TestCTableRow:
    def test_variables_and_constants(self):
        row = CTableRow((x, 1, "a"), condition(neq(x, 2)))
        assert row.variables() == {x}
        assert row.constants() == {1, "a", 2}
        assert not row.is_ground()

    def test_ground_row(self):
        assert CTableRow((1, 2)).is_ground()

    def test_apply_respects_condition(self):
        row = CTableRow((x,), condition(neq(x, 0)))
        assert row.apply({x: 1}) == (1,)
        assert row.apply({x: 0}) is None

    def test_apply_requires_total_valuation(self):
        with pytest.raises(ValuationError):
            CTableRow((x, y)).apply({x: 1})

    def test_condition_only_variables_counted(self):
        row = CTableRow((1,), condition(neq(y, 0)))
        assert row.variables() == {y}
        assert row.term_variables() == set()


class TestCTable:
    def test_figure1_shape(self, figure1_ctable):
        assert len(figure1_ctable) == 5
        assert figure1_ctable.variables() == {x, z, w, u}
        assert not figure1_ctable.is_ground()
        assert "915-15-335" in figure1_ctable.constants()

    def test_arity_mismatch_rejected(self, mvisit_schema):
        with pytest.raises(CTableError):
            CTable(mvisit_schema, [CTableRow((1, 2))])

    def test_finite_domain_enforced_for_constants(self):
        rel = RelationSchema("R", [("A", BOOLEAN_DOMAIN)])
        CTable(rel, [CTableRow((0,)), CTableRow((x,))])
        with pytest.raises(CTableError):
            CTable(rel, [CTableRow((7,))])

    def test_plain_sequences_accepted_as_rows(self, mvisit_schema):
        table = CTable(
            mvisit_schema,
            [("915-15-001", "Ann", "EDI", 1999, "F", "01/01/2015", "Flu", "09")],
        )
        assert len(table) == 1
        assert table.rows[0].condition is TRUE

    def test_add_and_remove_row(self, figure1_ctable):
        extended = figure1_ctable.add_row(
            ("915-15-360", "Zoe", "EDI", 2001, "F", "16/03/2015", "Flu", "04")
        )
        assert len(extended) == 6
        assert len(figure1_ctable) == 5
        assert len(extended.remove_row(5)) == 5
        with pytest.raises(CTableError):
            figure1_ctable.remove_row(10)

    def test_restrict(self, figure1_ctable):
        restricted = figure1_ctable.restrict([0, 2])
        assert len(restricted) == 2
        with pytest.raises(CTableError):
            figure1_ctable.restrict([99])

    def test_apply_drops_condition_violating_rows(self, figure1_ctable):
        valuation = {x: "Alice", z: 2001, w: "LON", u: "05"}
        ground = figure1_ctable.apply(valuation)
        # Row t2 requires z ≠ 2001, so it is dropped; the other four remain.
        assert len(ground) == 4

    def test_apply_keeps_all_rows_when_conditions_hold(self, figure1_ctable):
        valuation = {x: "Alice", z: 2000, w: "LON", u: "05"}
        assert len(figure1_ctable.apply(valuation)) == 5

    def test_from_relation_round_trip(self, mvisit_schema):
        rel = Relation(
            mvisit_schema,
            [("915-15-001", "Ann", "EDI", 1999, "F", "01/01/2015", "Flu", "09")],
        )
        table = CTable.from_relation(rel)
        assert table.is_ground()
        assert table.apply({}) == rel


class TestCInstance:
    @pytest.fixture
    def db(self, mvisit_schema):
        return database_schema(mvisit_schema)

    def test_construction_and_size(self, db, figure1_ctable):
        T = CInstance(db, {"MVisit": figure1_ctable})
        assert T.size == 5
        assert T.variables() == {x, z, w, u}
        assert not T.is_ground()

    def test_unknown_relation_rejected(self, db):
        with pytest.raises(CTableError):
            CInstance(db, {"Other": []})

    def test_apply_produces_ground_instance(self, db, figure1_ctable):
        T = CInstance(db, {"MVisit": figure1_ctable})
        world = T.apply({x: "Alice", z: 1999, w: "GLA", u: "07"})
        assert world.schema == db
        assert world.size == 5

    def test_with_and_without_row(self, db, figure1_ctable):
        T = CInstance(db, {"MVisit": figure1_ctable})
        bigger = T.with_row(
            "MVisit", ("915-15-400", "Eve", "EDI", 2002, "F", "20/03/2015", "Flu", "08")
        )
        assert bigger.size == 6
        assert T.size == 5
        assert bigger.without_row("MVisit", 5).size == 5

    def test_proper_subinstances(self, db, figure1_ctable):
        T = CInstance(db, {"MVisit": figure1_ctable})
        subs = list(T.proper_subinstances())
        assert len(subs) == 5
        assert all(sub.size == 4 for sub in subs)

    def test_strict_subinstances_counts(self):
        db = database_schema(schema("R", "A"))
        T = cinstance(db, R=[(x,), (1,)])
        subs = list(T.strict_subinstances())
        # Removing any non-empty subset of 2 rows: 3 possibilities.
        assert len(subs) == 3
        assert {s.size for s in subs} == {0, 1}

    def test_from_ground_instance(self, db):
        ground = instance(
            db,
            MVisit=[("915-15-001", "Ann", "EDI", 1999, "F", "01/01/2015", "Flu", "09")],
        )
        T = CInstance.from_ground_instance(ground)
        assert T.is_ground()
        assert T.apply({}) == ground

    def test_variable_domains(self):
        rel = RelationSchema("R", [("A", BOOLEAN_DOMAIN), "B"])
        db = database_schema(rel)
        T = cinstance(db, R=[(x, y)])
        domains = T.variable_domains()
        assert domains[x] == BOOLEAN_DOMAIN
        assert y not in domains

    def test_equality_and_hash(self, db, figure1_ctable):
        a = CInstance(db, {"MVisit": figure1_ctable})
        b = CInstance(db, {"MVisit": figure1_ctable})
        assert a == b
        assert hash(a) == hash(b)
