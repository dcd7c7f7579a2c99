"""Tests for c-table local conditions."""

import pytest

from repro.exceptions import ConditionError
from repro.ctables.conditions import TRUE, Condition, condition, var_eq, var_neq
from repro.queries.atoms import eq, neq
from repro.queries.terms import var

x, y, z = var("x"), var("y"), var("z")


class TestConditionBasics:
    def test_true_condition(self):
        assert TRUE.is_true
        assert TRUE.evaluate({})
        assert TRUE.variables() == set()

    def test_condition_variables_and_constants(self):
        c = condition(neq(x, 2001), eq(y, z))
        assert c.variables() == {x, y, z}
        assert c.constants() == {2001}

    def test_non_comparison_conjunct_rejected(self):
        with pytest.raises(ConditionError):
            Condition(("not a comparison",))

    def test_var_eq_and_var_neq_helpers(self):
        assert var_eq(x, 5) == eq(x, 5)
        assert var_neq(x, y) == neq(x, y)
        with pytest.raises(ConditionError):
            var_eq(5, x)
        with pytest.raises(ConditionError):
            var_neq("c", x)


class TestConditionEvaluation:
    def test_satisfied(self):
        c = condition(neq(x, 2001))
        assert c.evaluate({x: 2000})
        assert not c.evaluate({x: 2001})

    def test_conjunction_semantics(self):
        c = condition(neq(x, 1), eq(y, 2))
        assert c.evaluate({x: 0, y: 2})
        assert not c.evaluate({x: 1, y: 2})
        assert not c.evaluate({x: 0, y: 3})

    def test_variable_to_variable(self):
        c = condition(eq(x, y))
        assert c.evaluate({x: "a", y: "a"})
        assert not c.evaluate({x: "a", y: "b"})

    def test_missing_variable_rejected(self):
        with pytest.raises(ConditionError):
            condition(eq(x, y)).evaluate({x: 1})

    def test_extra_variables_in_valuation_ignored(self):
        assert condition(eq(x, 1)).evaluate({x: 1, y: 99})


class TestConditionCombinators:
    def test_rename(self):
        c = condition(eq(x, y)).rename({x: z})
        assert c.variables() == {z, y}

    def test_substitute_drops_true_conjuncts(self):
        c = condition(eq(x, 1), neq(y, 2)).substitute({x: 1})
        assert c.conjuncts == (neq(y, 2),)

    def test_substitute_keeps_false_conjuncts(self):
        c = condition(eq(x, 1)).substitute({x: 2})
        assert not c.is_true
        assert not c.evaluate({})
