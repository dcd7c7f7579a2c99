"""Active-domain FO semantics and the utility iterators backing the deciders."""

import pytest

from repro.queries.evaluation import evaluate, evaluate_fo
from repro.queries.fo import fo, native_query
from repro.queries.formulas import comp, conj, disj, exists, forall, negate, rel
from repro.queries.atoms import eq, neq
from repro.queries.terms import var
from repro.relational.instance import empty_instance, instance
from repro.relational.schema import database_schema, schema
from repro.utils.itertools_ext import powerset

x, y = var("x"), var("y")

EDGE = database_schema(schema("E", "src", "dst"))


@pytest.fixture
def triangle():
    return instance(EDGE, E=[(1, 2), (2, 3), (3, 1)])


class TestFOEvaluation:
    def test_negation_under_active_domain(self, triangle):
        # Nodes with an outgoing edge but no self-loop.
        q = fo("NoLoop", [x], conj(rel("E", x, y), negate(rel("E", x, x))))
        assert evaluate(q, triangle) == {(1,), (2,), (3,)}

    def test_universal_quantification(self, triangle):
        # "x reaches every node directly" — false for every node of the triangle.
        q = fo("Hub", [x], forall([y], rel("E", x, y)))
        assert evaluate_fo(q, triangle) == frozenset()
        # Add the missing edges for node 1 (including a self-loop): 1 becomes a hub.
        extended = triangle.with_tuples({"E": [(1, 1), (1, 3)]})
        assert evaluate_fo(q, extended) == {(1,)}

    def test_disjunction_and_comparisons(self, triangle):
        q = fo(
            "Q",
            [x, y],
            conj(rel("E", x, y), disj(comp(eq(x, 1)), comp(eq(y, 1)))),
        )
        assert evaluate(q, triangle) == {(1, 2), (3, 1)}

    def test_existential_matches_cq_semantics(self, triangle):
        q = fo("Src", [x], exists([y], rel("E", x, y)))
        assert evaluate(q, triangle) == {(1,), (2,), (3,)}

    def test_empty_instance_boolean_queries(self):
        empty = empty_instance(EDGE)
        some_edge = fo("Any", [], exists([x], exists([y], rel("E", x, y))))
        no_edge = fo("None", [], negate(exists([x], exists([y], rel("E", x, y)))))
        assert evaluate(some_edge, empty) == frozenset()
        assert evaluate(no_edge, empty) == {()}

    def test_inequality_atom(self, triangle):
        q = fo("NotTwo", [x], conj(exists([y], rel("E", x, y)), comp(neq(x, 2))))
        assert evaluate(q, triangle) == {(1,), (3,)}

    def test_native_query_wrapping(self, triangle):
        q = native_query("loops", 1, lambda inst: frozenset(
            (a,) for (a, b) in inst["E"].rows if a == b
        ))
        assert evaluate(q, triangle) == frozenset()
        assert q.arity != 0


class TestIteratorUtilities:
    def test_powerset_sizes(self):
        items = ["a", "b", "c"]
        assert len(list(powerset(items))) == 8
        assert len(list(powerset(items, include_empty=False))) == 7
