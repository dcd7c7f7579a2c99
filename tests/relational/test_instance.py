"""Tests for ground relations, ground instances and master data."""

import pytest

from repro.exceptions import ArityError, SchemaError, UnknownRelationError
from repro.relational.instance import (
    GroundInstance,
    Relation,
    empty_instance,
    instance,
)
from repro.relational.master import MasterData, empty_master
from repro.relational.schema import database_schema, schema


@pytest.fixture
def db_schema():
    return database_schema(schema("R", "A", "B"), schema("S", "C"))


class TestRelation:
    def test_rows_deduplicated(self):
        rel = Relation(schema("R", "A"), [(1,), (1,), (2,)])
        assert len(rel) == 2

    def test_membership(self):
        rel = Relation(schema("R", "A", "B"), [(1, 2)])
        assert (1, 2) in rel
        assert (2, 1) not in rel

    def test_arity_enforced(self):
        with pytest.raises(ArityError):
            Relation(schema("R", "A", "B"), [(1,)])

    def test_add_remove_are_functional(self):
        rel = Relation(schema("R", "A"), [(1,)])
        bigger = rel.add((2,))
        assert len(rel) == 1
        assert len(bigger) == 2
        assert len(bigger.remove((1,), (2,))) == 0

    def test_union(self):
        r = schema("R", "A")
        a = Relation(r, [(1,), (2,)])
        b = Relation(r, [(2,), (3,)])
        assert a.union(b).rows == {(1,), (2,), (3,)}

    def test_schema_mismatch_rejected(self):
        a = Relation(schema("R", "A"), [(1,)])
        b = Relation(schema("S", "A"), [(1,)])
        with pytest.raises(SchemaError):
            a.union(b)

    def test_subset_relations(self):
        r = schema("R", "A")
        small = Relation(r, [(1,)])
        big = Relation(r, [(1,), (2,)])
        assert small.issubset(big)

    def test_constants(self):
        rel = Relation(schema("R", "A", "B"), [(1, "x")])
        assert rel.constants() == {1, "x"}

    def test_iteration_deterministic(self):
        rel = Relation(schema("R", "A"), [(2,), (1,)])
        assert list(rel) == list(rel)

    def test_equality_and_hash(self):
        r = schema("R", "A")
        assert Relation(r, [(1,)]) == Relation(r, [(1,)])
        assert hash(Relation(r, [(1,)])) == hash(Relation(r, [(1,)]))

    def test_is_empty(self):
        assert Relation(schema("R", "A")).is_empty()


class TestGroundInstance:
    def test_construction(self, db_schema):
        inst = instance(db_schema, R=[(1, 2)], S=[(3,)])
        assert inst.size == 2
        assert (1, 2) in inst["R"]

    def test_missing_relations_default_empty(self, db_schema):
        inst = instance(db_schema, R=[(1, 2)])
        assert inst["S"].is_empty()

    def test_unknown_relation_rejected(self, db_schema):
        with pytest.raises(UnknownRelationError):
            GroundInstance(db_schema, {"T": [(1,)]})
        inst = instance(db_schema)
        with pytest.raises(UnknownRelationError):
            inst.relation("T")

    def test_empty_instance(self, db_schema):
        inst = empty_instance(db_schema)
        assert inst.is_empty()
        assert inst.size == 0

    def test_with_tuple_is_functional(self, db_schema):
        inst = empty_instance(db_schema)
        bigger = inst.with_tuple("R", (1, 2))
        assert inst.is_empty()
        assert bigger.size == 1

    def test_with_tuples_multiple_relations(self, db_schema):
        inst = empty_instance(db_schema).with_tuples({"R": [(1, 2)], "S": [(3,)]})
        assert inst.size == 2

    def test_with_tuples_unknown_relation(self, db_schema):
        with pytest.raises(UnknownRelationError):
            empty_instance(db_schema).with_tuples({"T": [(1,)]})

    def test_without_tuple(self, db_schema):
        inst = instance(db_schema, R=[(1, 2), (3, 4)])
        smaller = inst.without_tuple("R", (1, 2))
        assert smaller.size == 1
        assert (3, 4) in smaller["R"]

    def test_union(self, db_schema):
        a = instance(db_schema, R=[(1, 2)])
        b = instance(db_schema, R=[(3, 4)], S=[(5,)])
        u = a.union(b)
        assert u.size == 3

    def test_extension_order(self, db_schema):
        small = instance(db_schema, R=[(1, 2)])
        big = instance(db_schema, R=[(1, 2)], S=[(3,)])
        assert small.issubset(big)
        assert big.extends(small)
        assert not small.extends(small)
        assert not small.extends(big)

    def test_constants(self, db_schema):
        inst = instance(db_schema, R=[(1, "a")], S=[("b",)])
        assert inst.constants() == {1, "a", "b"}

    def test_tuples_iteration(self, db_schema):
        inst = instance(db_schema, R=[(1, 2)], S=[(3,)])
        assert set(inst.tuples()) == {("R", (1, 2)), ("S", (3,))}

    def test_proper_subinstances(self, db_schema):
        inst = instance(db_schema, R=[(1, 2)], S=[(3,)])
        subs = list(inst.proper_subinstances())
        assert len(subs) == 2
        assert all(sub.size == 1 for sub in subs)

    def test_equality_and_hash(self, db_schema):
        a = instance(db_schema, R=[(1, 2)])
        b = instance(db_schema, R=[(1, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_schema_comparison_rejected(self, db_schema):
        other = database_schema(schema("R", "A", "B"))
        with pytest.raises(SchemaError):
            instance(db_schema).issubset(instance(other))

    def test_relation_object_reuse(self, db_schema):
        rel = Relation(db_schema["R"], [(1, 2)])
        inst = GroundInstance(db_schema, {"R": rel})
        assert inst["R"] == rel

    def test_relation_object_schema_mismatch(self, db_schema):
        rel = Relation(schema("R", "A"), [(1,)])
        with pytest.raises(SchemaError):
            GroundInstance(db_schema, {"R": rel})


class TestMasterData:
    def test_wraps_instance(self, db_schema):
        md = MasterData(db_schema, {"R": [(1, 2)]})
        assert md.size == 1
        assert (1, 2) in md["R"]
        assert md.schema == db_schema
        assert "R" in md

    def test_empty_master(self, db_schema):
        md = empty_master(db_schema)
        assert md.size == 0

    def test_equality(self, db_schema):
        assert MasterData(db_schema, {"R": [(1, 2)]}) == MasterData(
            db_schema, {"R": [(1, 2)]}
        )
        assert empty_master(db_schema) != MasterData(db_schema, {"R": [(1, 2)]})
