"""Tests for conjunctive queries and unions of conjunctive queries."""

import pytest

from repro.exceptions import QueryError, UnsafeQueryError
from repro.queries.atoms import atom, eq, neq
from repro.queries.cq import boolean_cq, cq
from repro.queries.terms import var
from repro.queries.ucq import UnionOfConjunctiveQueries, as_ucq, ucq, ucq_from

x, y, z, w = var("x"), var("y"), var("z"), var("w")


class TestConjunctiveQueryConstruction:
    def test_basic_query(self):
        q = cq("Q", [x], atoms=[atom("R", x, y)])
        assert q.arity == 1
        assert q.head_variables() == {x}
        assert q.body_variables() - q.head_variables() == {y}
        assert q.relation_names() == {"R"}

    def test_boolean_query(self):
        q = boolean_cq("Q", atoms=[atom("R", x)])
        assert q.arity == 0

    def test_constants_collected(self):
        q = cq("Q", [x, "out"], atoms=[atom("R", x, 1)], comparisons=[neq(x, 2)])
        assert q.constants() == {"out", 1, 2}

    def test_unsafe_head_variable_rejected(self):
        with pytest.raises(UnsafeQueryError):
            cq("Q", [x], atoms=[atom("R", y)])

    def test_unsafe_comparison_variable_rejected(self):
        with pytest.raises(UnsafeQueryError):
            cq("Q", [], atoms=[atom("R", x)], comparisons=[neq(y, 1)])

    def test_equality_binding_makes_head_safe(self):
        # Example 5.5 of the paper: Q(x) = ∃y,z (R1(y) ∧ R2(z) ∧ x = a).
        q = cq(
            "Q",
            [x],
            atoms=[atom("R1", y), atom("R2", z)],
            comparisons=[eq(x, "a")],
        )
        assert x in q.bound_variables()

    def test_equality_chain_binding(self):
        q = cq(
            "Q",
            [x],
            atoms=[atom("R", y)],
            comparisons=[eq(x, z), eq(z, y)],
        )
        assert q.bound_variables() >= {x, y, z}

    def test_inequality_does_not_bind(self):
        with pytest.raises(UnsafeQueryError):
            cq("Q", [x], atoms=[atom("R", y)], comparisons=[neq(x, y)])

    def test_inequality_classification(self):
        q = cq("Q", [x], atoms=[atom("R", x)], comparisons=[neq(x, 1), eq(x, x)])
        assert len(q.inequality_atoms()) == 1
        assert len(q.equality_atoms()) == 1
        assert not q.is_inequality_free()


class TestConjunctiveQueryTransformations:
    def test_substitute(self):
        q = cq("Q", [x], atoms=[atom("R", x, y)])
        grounded = q.substitute({y: 7})
        assert grounded.atoms[0].terms == (x, 7)

    def test_rename_variables(self):
        q = cq("Q", [x], atoms=[atom("R", x, y)])
        renamed = q.rename_variables({x: w})
        assert renamed.head == (w,)
        assert renamed.atoms[0].terms == (w, y)

    def test_rename_apart(self):
        q = cq("Q", [x], atoms=[atom("R", x, y)])
        renamed = q.rename_apart({x})
        assert renamed.head[0] != x
        assert renamed.variables().isdisjoint({x})
        # Renaming away from disjoint variables is a no-op.
        assert q.rename_apart({var("unrelated")}) is q

    def test_tableau_view(self):
        q = cq("Q", [x], atoms=[atom("R", x, y)], comparisons=[neq(y, 1)])
        tableau, head = q.tableau()
        assert tableau == q.atoms
        assert head == q.head

    def test_repr_contains_name(self):
        assert "Q1" in repr(cq("Q1", [x], atoms=[atom("R", x)]))


class TestUnionOfConjunctiveQueries:
    def test_construction(self):
        q1 = cq("Q1", [x], atoms=[atom("R", x)])
        q2 = cq("Q2", [y], atoms=[atom("S", y)])
        u = ucq("U", q1, q2)
        assert u.arity == 1
        assert len(u) == 2
        assert u.relation_names() == {"R", "S"}

    def test_arity_mismatch_rejected(self):
        q1 = cq("Q1", [x], atoms=[atom("R", x)])
        q2 = cq("Q2", [x, y], atoms=[atom("R", x, y)])
        with pytest.raises(QueryError):
            ucq("U", q1, q2)

    def test_empty_union_rejected(self):
        with pytest.raises(QueryError):
            UnionOfConjunctiveQueries((), name="U")

    def test_as_ucq(self):
        q = cq("Q", [x], atoms=[atom("R", x)])
        u = as_ucq(q)
        assert isinstance(u, UnionOfConjunctiveQueries)
        assert as_ucq(u) is u

    def test_union_of_unions(self):
        q1 = as_ucq(cq("Q1", [x], atoms=[atom("R", x)]))
        q2 = as_ucq(cq("Q2", [y], atoms=[atom("S", y)]))
        assert len(q1.union(q2)) == 2

    def test_variables_and_constants(self):
        q1 = cq("Q1", [x], atoms=[atom("R", x, 1)])
        q2 = cq("Q2", [y], atoms=[atom("S", y, "a")])
        u = ucq_from([q1, q2], name="U")
        assert u.variables() == {x, y}
        assert u.constants() == {1, "a"}

    def test_boolean_ucq(self):
        u = ucq("U", boolean_cq("Q1", atoms=[atom("R", x)]))
        assert u.arity == 0

    def test_inequality_free(self):
        q1 = cq("Q1", [x], atoms=[atom("R", x)])
        q2 = cq("Q2", [x], atoms=[atom("R", x)], comparisons=[neq(x, 1)])
        assert as_ucq(q1).is_inequality_free()
        assert not ucq("U", q1, q2).is_inequality_free()
