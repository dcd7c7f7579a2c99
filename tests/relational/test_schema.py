"""Tests for relation and database schemas."""

import pytest

from repro.exceptions import ArityError, SchemaError, UnknownRelationError
from repro.relational.domains import BOOLEAN_DOMAIN, finite_domain
from repro.relational.schema import (
    Attribute,
    DatabaseSchema,
    RelationSchema,
    database_schema,
    schema,
)


class TestAttribute:
    def test_default_domain_is_infinite(self):
        assert Attribute("A").domain.is_infinite

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("")

    def test_equality(self):
        assert Attribute("A") == Attribute("A")
        assert Attribute("A", BOOLEAN_DOMAIN) != Attribute("A")


class TestRelationSchema:
    def test_shorthand_constructor(self):
        r = schema("R", "A", "B", "C")
        assert r.name == "R"
        assert r.arity == 3
        assert r.attribute_names == ("A", "B", "C")

    def test_mixed_attribute_specs(self):
        r = RelationSchema("R", ["A", ("B", BOOLEAN_DOMAIN), Attribute("C")])
        assert r.attribute("B").domain.is_finite
        assert r.attribute("A").domain.is_infinite

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            schema("R", "A", "A")

    def test_zero_arity_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", [])

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            schema("", "A")

    def test_position_of(self):
        r = schema("R", "A", "B")
        assert r.position_of("B") == 1
        with pytest.raises(SchemaError):
            r.position_of("Z")

    def test_validate_tuple_arity(self):
        r = schema("R", "A", "B")
        assert r.validate_tuple((1, 2)) == (1, 2)
        with pytest.raises(ArityError):
            r.validate_tuple((1,))

    def test_validate_tuple_finite_domain(self):
        r = RelationSchema("R", [("A", BOOLEAN_DOMAIN)])
        assert r.validate_tuple((1,)) == (1,)
        with pytest.raises(SchemaError):
            r.validate_tuple((5,))

    def test_rename(self):
        r = schema("R", "A", "B")
        s = r.rename("S")
        assert s.name == "S"
        assert s.attributes == r.attributes

    def test_bad_attribute_spec(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", [42])


class TestDatabaseSchema:
    def test_construction_and_lookup(self):
        db = database_schema(schema("R", "A"), schema("S", "B"))
        assert db["R"].arity == 1
        assert "S" in db
        assert "T" not in db
        assert db.relation_names == ("R", "S")

    def test_unknown_relation(self):
        db = database_schema(schema("R", "A"))
        with pytest.raises(UnknownRelationError):
            db["S"]

    def test_duplicate_relation_rejected(self):
        with pytest.raises(SchemaError):
            database_schema(schema("R", "A"), schema("R", "B"))

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            DatabaseSchema([])

    def test_extend(self):
        db = database_schema(schema("R", "A"))
        extended = db.extend(schema("S", "B"))
        assert "S" in extended
        assert "S" not in db

    def test_restrict(self):
        db = database_schema(schema("R", "A"), schema("S", "B"))
        assert database_schema(schema("R", "A")) == db.restrict(["R"])

    def test_equality_and_hash(self):
        a = database_schema(schema("R", "A"), schema("S", "B"))
        b = database_schema(schema("R", "A"), schema("S", "B"))
        assert a == b
        assert hash(a) == hash(b)

    def test_iteration_preserves_order(self):
        db = database_schema(schema("R", "A"), schema("S", "B"))
        assert [r.name for r in db] == ["R", "S"]

    def test_len(self):
        assert len(database_schema(schema("R", "A"), schema("S", "B"))) == 2

    def test_finite_domain_round_trip(self):
        dom = finite_domain("city", ("EDI", "LON"))
        db = database_schema(RelationSchema("R", [("city", dom)]))
        assert db["R"].attribute("city").domain == dom
