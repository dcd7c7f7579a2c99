"""Relational substrate: domains, schemas, ground instances and master data.

This package implements the classical relational data model the paper builds
on (Section 2.1): attributes with finite or infinite domains, relation and
database schemas, ground instances (databases without missing values), master
data, and the hash indexes over ground facts that the delta checker joins
through.
"""

from repro.relational.domains import (
    ANY,
    BOOLEAN_DOMAIN,
    Constant,
    Domain,
    finite_domain,
    infinite_domain,
)
from repro.relational.indexing import (
    FactIndex,
    IndexedFactStore,
    Signature,
)
from repro.relational.instance import (
    GroundInstance,
    Relation,
    Row,
    empty_instance,
    instance,
)
from repro.relational.master import MasterData, empty_master
from repro.relational.schema import (
    Attribute,
    DatabaseSchema,
    RelationSchema,
    database_schema,
    schema,
)

__all__ = [
    "ANY",
    "BOOLEAN_DOMAIN",
    "Attribute",
    "Constant",
    "DatabaseSchema",
    "Domain",
    "FactIndex",
    "GroundInstance",
    "IndexedFactStore",
    "MasterData",
    "Relation",
    "RelationSchema",
    "Row",
    "Signature",
    "database_schema",
    "empty_instance",
    "empty_master",
    "finite_domain",
    "infinite_domain",
    "instance",
    "schema",
]
