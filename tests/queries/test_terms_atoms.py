"""Tests for terms and atomic formulas."""

import pytest

from repro.exceptions import QueryError
from repro.queries.atoms import ComparisonOp, atom, eq, neq
from repro.queries.terms import (
    Variable,
    is_variable,
    substitute,
    substitute_all,
    term_constants,
    term_variables,
    var,
    variables,
)


class TestVariables:
    def test_var_constructor(self):
        assert var("x") == Variable("x")

    def test_empty_name_rejected(self):
        with pytest.raises(QueryError):
            var("")

    def test_variables_from_string(self):
        assert variables("x y, z") == (var("x"), var("y"), var("z"))

    def test_variables_from_iterable(self):
        assert variables(["a", "b"]) == (var("a"), var("b"))

    def test_is_variable(self):
        assert is_variable(var("x"))
        assert not is_variable("x")

    def test_term_sets(self):
        terms = (var("x"), 1, var("y"), "a")
        assert term_variables(terms) == {var("x"), var("y")}
        assert term_constants(terms) == {1, "a"}

    def test_substitute(self):
        assignment = {var("x"): 5}
        assert substitute(var("x"), assignment) == 5
        assert substitute(var("y"), assignment) == var("y")
        assert substitute(7, assignment) == 7
        assert substitute_all((var("x"), 7), assignment) == (5, 7)

    def test_ordering(self):
        assert sorted([var("b"), var("a")]) == [var("a"), var("b")]


class TestRelationAtom:
    def test_construction(self):
        a = atom("R", var("x"), 1)
        assert a.relation == "R"
        assert a.arity == 2
        assert a.variables() == {var("x")}
        assert a.constants() == {1}

    def test_empty_relation_name_rejected(self):
        with pytest.raises(QueryError):
            atom("", var("x"))

    def test_zero_arity_rejected(self):
        with pytest.raises(QueryError):
            atom("R")

    def test_substitute(self):
        a = atom("R", var("x"), var("y"))
        assert a.substitute({var("x"): 3}).terms == (3, var("y"))

    def test_rename(self):
        a = atom("R", var("x"), 1)
        assert a.rename({var("x"): var("z")}).terms == (var("z"), 1)

    def test_equality_hash(self):
        assert atom("R", var("x")) == atom("R", var("x"))
        assert hash(atom("R", var("x"))) == hash(atom("R", var("x")))


class TestComparison:
    def test_eq_and_neq(self):
        assert eq(var("x"), 1).op is ComparisonOp.EQ
        assert neq(var("x"), 1).op is ComparisonOp.NEQ

    def test_variables_constants(self):
        c = eq(var("x"), 1)
        assert c.variables() == {var("x")}
        assert c.constants() == {1}

    def test_ground_evaluation(self):
        assert eq(1, 1).evaluate_ground()
        assert not eq(1, 2).evaluate_ground()
        assert neq(1, 2).evaluate_ground()
        assert not neq(1, 1).evaluate_ground()

    def test_evaluate_under_assignment(self):
        assert eq(var("x"), 1).evaluate({var("x"): 1})
        assert not neq(var("x"), 1).evaluate({var("x"): 1})

    def test_non_ground_evaluation_rejected(self):
        with pytest.raises(QueryError):
            eq(var("x"), 1).evaluate_ground()

    def test_negate(self):
        assert eq(1, 2).negate().op is ComparisonOp.NEQ
        assert neq(1, 2).negate().op is ComparisonOp.EQ

    def test_operator_holds(self):
        assert ComparisonOp.EQ.holds("a", "a")
        assert ComparisonOp.NEQ.holds("a", "b")

    def test_substitute(self):
        c = eq(var("x"), var("y"))
        grounded = c.substitute({var("x"): 1, var("y"): 2})
        assert grounded.is_ground()
        assert not grounded.evaluate_ground()

    def test_rename(self):
        c = neq(var("x"), "c")
        renamed = c.rename({var("x"): var("w")})
        assert renamed.left == var("w")
        assert renamed.right == "c"
