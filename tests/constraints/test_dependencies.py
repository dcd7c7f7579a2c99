"""Tests for classical dependencies and their satisfaction."""

import pytest

from repro.constraints.dependencies import (
    WILDCARD,
    DenialConstraint,
    cfd,
    fd,
    ind,
    satisfies_dependencies,
)
from repro.exceptions import ConstraintError
from repro.queries.atoms import atom, neq
from repro.queries.cq import boolean_cq, cq
from repro.queries.terms import var
from repro.relational.instance import instance
from repro.relational.schema import database_schema, schema

x, y = var("x"), var("y")


@pytest.fixture
def emp_schema():
    return database_schema(
        schema("Emp", "id", "name", "dept", "city"),
        schema("Dept", "dept", "manager"),
    )


class TestFunctionalDependency:
    def test_satisfied(self, emp_schema):
        db = instance(
            emp_schema,
            Emp=[(1, "Ann", "CS", "EDI"), (2, "Bob", "CS", "EDI")],
        )
        assert fd("Emp", "id", "name").is_satisfied(db)
        assert fd("Emp", "dept", "city").is_satisfied(db)

    def test_violated(self, emp_schema):
        db = instance(
            emp_schema,
            Emp=[(1, "Ann", "CS", "EDI"), (1, "Anne", "CS", "EDI")],
        )
        dependency = fd("Emp", "id", "name")
        assert not dependency.is_satisfied(db)

    def test_composite_sides(self, emp_schema):
        db = instance(
            emp_schema,
            Emp=[(1, "Ann", "CS", "EDI"), (2, "Ann", "CS", "GLA")],
        )
        assert fd("Emp", ["name", "dept"], ["city"]).is_satisfied(db) is False

    def test_empty_rhs_rejected(self):
        with pytest.raises(ConstraintError):
            fd("Emp", "id", [])

    def test_string_attribute_lists(self):
        dependency = fd("Emp", "id dept", "name, city")
        assert dependency.lhs == ("id", "dept")
        assert dependency.rhs == ("name", "city")


class TestInclusionDependency:
    def test_satisfied(self, emp_schema):
        db = instance(
            emp_schema,
            Emp=[(1, "Ann", "CS", "EDI")],
            Dept=[("CS", "Carol"), ("Math", "Dave")],
        )
        assert ind("Emp", "dept", "Dept", "dept").is_satisfied(db)

    def test_violated(self, emp_schema):
        db = instance(
            emp_schema,
            Emp=[(1, "Ann", "Physics", "EDI")],
            Dept=[("CS", "Carol")],
        )
        assert not ind("Emp", "dept", "Dept", "dept").is_satisfied(db)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ConstraintError):
            ind("Emp", ["dept", "city"], "Dept", ["dept"])

    def test_empty_attribute_list_rejected(self):
        with pytest.raises(ConstraintError):
            ind("Emp", [], "Dept", [])


class TestConditionalFunctionalDependency:
    def test_pattern_restricts_scope(self, emp_schema):
        db = instance(
            emp_schema,
            Emp=[
                (1, "Ann", "CS", "EDI"),
                (2, "Bob", "CS", "GLA"),   # violates dept→city only within pattern
                (3, "Eve", "Math", "EDI"),
                (4, "Joe", "Math", "GLA"),
            ],
        )
        # Unconditional FD dept → city is violated...
        assert not fd("Emp", "dept", "city").is_satisfied(db)
        # ... and so is the CFD restricted to dept = CS ...
        assert not cfd("Emp", "dept", "city", pattern=("CS", WILDCARD)).is_satisfied(db)
        # ... but the CFD restricted to a department with consistent cities holds.
        consistent = instance(
            emp_schema,
            Emp=[(1, "Ann", "CS", "EDI"), (3, "Eve", "Math", "EDI"), (4, "Joe", "Math", "GLA")],
        )
        assert cfd("Emp", "dept", "city", pattern=("CS", WILDCARD)).is_satisfied(consistent)

    def test_constant_rhs_pattern(self, emp_schema):
        db_ok = instance(emp_schema, Emp=[(1, "Ann", "CS", "EDI")])
        db_bad = instance(emp_schema, Emp=[(1, "Ann", "CS", "GLA")])
        dependency = cfd("Emp", "dept", "city", pattern=("CS", "EDI"))
        assert dependency.is_satisfied(db_ok)
        assert not dependency.is_satisfied(db_bad)

    def test_default_pattern_is_plain_fd(self, emp_schema):
        db = instance(emp_schema, Emp=[(1, "Ann", "CS", "EDI"), (1, "Ann", "CS", "GLA")])
        assert not cfd("Emp", "id", "city").is_satisfied(db)

    def test_pattern_length_checked(self):
        with pytest.raises(ConstraintError):
            cfd("Emp", "dept", "city", pattern=("CS",))


class TestDenialConstraint:
    def test_boolean_query_required(self):
        with pytest.raises(ConstraintError):
            DenialConstraint(cq("q", [x], atoms=[atom("Emp", x, y, var("d"), var("c"))]))

    def test_satisfaction(self, emp_schema):
        forbid = DenialConstraint(
            boolean_cq(
                "same_id_diff_name",
                atoms=[
                    atom("Emp", x, var("n1"), var("d1"), var("c1")),
                    atom("Emp", x, var("n2"), var("d2"), var("c2")),
                ],
                comparisons=[neq(var("n1"), var("n2"))],
            )
        )
        ok = instance(emp_schema, Emp=[(1, "Ann", "CS", "EDI")])
        bad = instance(emp_schema, Emp=[(1, "Ann", "CS", "EDI"), (1, "Anne", "CS", "EDI")])
        assert forbid.is_satisfied(ok)
        assert not forbid.is_satisfied(bad)


class TestDependencyCollections:
    def test_satisfies_dependencies(self, emp_schema):
        db = instance(
            emp_schema,
            Emp=[(1, "Ann", "CS", "EDI")],
            Dept=[("CS", "Carol")],
        )
        deps = [fd("Emp", "id", "name"), ind("Emp", "dept", "Dept", "dept")]
        assert satisfies_dependencies(db, deps)
