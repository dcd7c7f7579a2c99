"""Synthetic workload generators for the benchmark harness.

The paper has no datasets: its "experiments" are complexity claims.  The
benchmark harness therefore needs *parameterised families* of inputs whose
size can be swept:

* :func:`registry_workload` — a generic MDM-style workload: a database
  relation bounded by a master registry through an IND-shaped CC, with a
  configurable number of master rows, database rows, missing values
  (variables) and query shape.  Growing the master registry grows the active
  domain, which is the lever the Table-I benchmarks sweep.
* :func:`random_cinstance` — random c-instances with a controlled number of
  rows and variables over a given schema.
* :func:`chain_fp_query` — FP reachability queries of growing arity for the
  weak-model FP benchmarks.
* :func:`inequality_chain_workload` — the inequality-heavy family targeted
  by the SAT engine: FD-forced equalities plus a ≠-chain of denial CCs over
  a Boolean value column, closable into an (odd ⇒ inconsistent) cycle.
* :func:`skewed_join_workload` — a hub-skewed graph family targeted by the
  *indexed* delta checker: a three-hop chain constraint over an ``Edge``
  relation whose rows pile into one hot source bucket, so a linear scan
  touches every row per join step while a hash index touches one bucket
  (often a projected or empty one).

All generators are deterministic given their ``seed``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from repro.constraints.containment import (
    ContainmentConstraint,
    cc,
    denial_cc,
    projection,
)
from repro.ctables.cinstance import CInstance
from repro.ctables.ctable import CTable, CTableRow
from repro.queries.atoms import RelationAtom, atom, eq, neq
from repro.queries.cq import ConjunctiveQuery, boolean_cq, cq
from repro.queries.fp import FixpointQuery, fixpoint_query, rule
from repro.queries.terms import Term, Variable, var
from repro.queries.ucq import UnionOfConjunctiveQueries, ucq_from
from repro.relational.domains import BOOLEAN_DOMAIN, Constant, Domain
from repro.relational.instance import GroundInstance, instance
from repro.relational.master import MasterData, empty_master
from repro.relational.schema import DatabaseSchema, RelationSchema, database_schema, schema


@dataclass(frozen=True)
class RegistryWorkload:
    """A generated MDM-style workload (database bounded by a master registry)."""

    schema: DatabaseSchema
    master: MasterData
    constraints: list[ContainmentConstraint]
    cinstance: CInstance
    ground_db: GroundInstance
    point_query: ConjunctiveQuery
    full_query: ConjunctiveQuery
    union_query: UnionOfConjunctiveQueries
    master_size: int
    variable_count: int


def registry_workload(
    master_size: int = 4,
    db_rows: int = 2,
    variable_count: int = 1,
    with_fd: bool = True,
    seed: int = 0,
) -> RegistryWorkload:
    """Build a registry workload of the requested size.

    The schema is ``Record(key, value)`` bounded by the master registry
    ``Registry(key, value)`` of ``master_size`` rows; the generated database
    holds ``db_rows`` rows of which ``variable_count`` have a missing value.
    The queries ask for the value of a specific key (``point_query``), for
    all registered values (``full_query``) and for their union
    (``union_query``).
    """
    rng = random.Random(seed)
    db_schema = database_schema(schema("Record", "key", "value"))
    master_schema = database_schema(schema("Registry", "key", "value"))

    master_rows = [(f"k{i}", f"v{i}") for i in range(master_size)]
    master = MasterData(master_schema, {"Registry": master_rows})

    k, v, v2 = var("k"), var("v"), var("v2")
    bound = cc(
        cq("all_records", [k, v], atoms=[atom("Record", k, v)]),
        projection("Registry", "key", "value"),
        name="record⊆registry",
    )
    constraints = [bound]
    if with_fd:
        constraints.append(
            denial_cc(
                boolean_cq(
                    "fd_key_value",
                    atoms=[atom("Record", k, v), atom("Record", k, v2)],
                    comparisons=[neq(v, v2)],
                ),
                name="fd:key→value",
            )
        )

    rows: list[CTableRow] = []
    chosen = rng.sample(range(master_size), k=min(db_rows, master_size))
    for index, master_index in enumerate(chosen):
        key, value = master_rows[master_index]
        if index < variable_count:
            rows.append(CTableRow((key, Variable(f"m{index}"))))
        else:
            rows.append(CTableRow((key, value)))
    cinstance = CInstance(db_schema, {"Record": CTable(db_schema["Record"], rows)})
    ground_rows = [master_rows[i] for i in chosen]
    ground_db = instance(db_schema, Record=ground_rows)

    target_key = master_rows[chosen[0]][0] if chosen else "k0"
    point_query = cq("PointQ", [v], atoms=[atom("Record", target_key, v)])
    full_query = cq("FullQ", [k, v], atoms=[atom("Record", k, v)])
    union_query = ucq_from(
        [
            cq("U1", [v], atoms=[atom("Record", target_key, v)]),
            cq("U2", [v], atoms=[atom("Record", k, v)], comparisons=[eq(k, "k1")]),
        ],
        name="UnionQ",
    )

    return RegistryWorkload(
        schema=db_schema,
        master=master,
        constraints=constraints,
        cinstance=cinstance,
        ground_db=ground_db,
        point_query=point_query,
        full_query=full_query,
        union_query=union_query,
        master_size=master_size,
        variable_count=variable_count,
    )


def random_cinstance(
    db_schema: DatabaseSchema,
    relation: str,
    rows: int,
    variable_count: int,
    constant_pool: Sequence,
    seed: int = 0,
) -> CInstance:
    """A random c-instance with the requested number of rows and variables."""
    rng = random.Random(seed)
    rel_schema = db_schema[relation]
    built_rows: list[CTableRow] = []
    variables_remaining = variable_count
    for row_index in range(rows):
        terms: list[Term] = []
        for position in range(rel_schema.arity):
            if variables_remaining > 0 and rng.random() < 0.5:
                terms.append(Variable(f"v{row_index}_{position}"))
                variables_remaining -= 1
            else:
                terms.append(rng.choice(list(constant_pool)))
        built_rows.append(CTableRow(tuple(terms)))
    # Force any leftover variables into the last rows deterministically.
    row_cursor = 0
    while variables_remaining > 0 and built_rows:
        row = built_rows[row_cursor % len(built_rows)]
        terms = list(row.terms)
        terms[0] = Variable(f"extra{variables_remaining}")
        built_rows[row_cursor % len(built_rows)] = CTableRow(tuple(terms), row.condition)
        variables_remaining -= 1
        row_cursor += 1
    return CInstance(db_schema, {relation: CTable(rel_schema, built_rows)})


def chain_fp_query(length: int = 2, relation: str = "Record") -> FixpointQuery:
    """An FP query following ``length`` joins of the relation's key/value graph.

    Used by the weak-model FP benchmarks: the fixpoint closes the binary
    relation transitively and returns all reachable pairs.
    """
    x, y, z = var("x"), var("y"), var("z")
    rules = [
        rule(RelationAtom("Path", (x, y)), RelationAtom(relation, (x, y))),
        rule(
            RelationAtom("Path", (x, z)),
            RelationAtom("Path", (x, y)),
            RelationAtom(relation, (y, z)),
        ),
    ]
    return fixpoint_query(f"Chain{length}", output="Path", rules=rules)


@dataclass(frozen=True)
class InequalityChainWorkload:
    """An inequality-heavy workload (FD + ≠-chained denial constraints)."""

    schema: DatabaseSchema
    master: MasterData
    constraints: list[ContainmentConstraint]
    cinstance: CInstance
    pair_count: int
    cycle: bool


def inequality_chain_workload(
    pair_count: int, close_cycle: bool = True
) -> InequalityChainWorkload:
    """Build the inequality-heavy chain family of size ``pair_count``.

    The schema is ``Record(key, value)`` with a Boolean value column.  For
    each ``i < pair_count`` the c-instance holds two rows ``(kᵢ, aᵢ)`` and
    ``(kᵢ, bᵢ)`` with fresh variables; the constraints are

    * an FD-style denial CC (``Record(k,v) ∧ Record(k,v') ∧ v ≠ v' ⊆ ∅``)
      forcing ``aᵢ = bᵢ``, and
    * one denial CC per chain link (``Record(kᵢ,v) ∧ Record(kᵢ₊₁,v') ∧
      v = v' ⊆ ∅``) forcing consecutive keys to carry *different* values.

    With ``close_cycle`` the last key links back to the first, so an odd
    ``pair_count`` makes the instance inconsistent (a proper 2-colouring of
    an odd cycle cannot exist) while an even one stays consistent.  Every
    constraint turns on an (in)equality comparison, which is the regime the
    SAT engine handles natively and the monotone-CC pruner cannot prune
    early; the benchmark harness sweeps this family for the
    naive/propagating/sat comparison.
    """
    db_schema = database_schema(
        RelationSchema("Record", ["key", ("value", BOOLEAN_DOMAIN)])
    )
    master = empty_master(database_schema(schema("M", "A")))
    k, v, v2 = var("k"), var("v"), var("v2")
    constraints = [
        denial_cc(
            boolean_cq(
                "fd_key_value",
                atoms=[atom("Record", k, v), atom("Record", k, v2)],
                comparisons=[neq(v, v2)],
            ),
            name="fd:key→value",
        )
    ]
    links = [(i, i + 1) for i in range(pair_count - 1)]
    if close_cycle:
        links.append((pair_count - 1, 0))
    for a, b in links:
        constraints.append(
            denial_cc(
                boolean_cq(
                    f"link_{a}_{b}",
                    atoms=[atom("Record", f"k{a}", v), atom("Record", f"k{b}", v2)],
                    comparisons=[eq(v, v2)],
                ),
                name=f"neq:k{a},k{b}",
            )
        )
    rows: list[CTableRow] = []
    for index in range(pair_count):
        rows.append(CTableRow((f"k{index}", Variable(f"a{index}"))))
        rows.append(CTableRow((f"k{index}", Variable(f"b{index}"))))
    cinst = CInstance(db_schema, {"Record": CTable(db_schema["Record"], rows)})
    return InequalityChainWorkload(
        schema=db_schema,
        master=master,
        constraints=constraints,
        cinstance=cinst,
        pair_count=pair_count,
        cycle=close_cycle,
    )


@dataclass(frozen=True)
class WidePoolWorkload:
    """A wide-first-pool workload: every variable ranges over the whole Adom."""

    schema: DatabaseSchema
    master: MasterData
    constraints: list[ContainmentConstraint]
    cinstance: CInstance
    rows: int
    values_per_key: int
    consistent: bool


def wide_pool_workload(rows: int, values_per_key: int) -> WidePoolWorkload:
    """Build the wide-pool family: one fresh variable per key, wide pools.

    The schema is ``Record(key, value)`` bounded by the master registry
    ``Registry(key, value)``, which holds every pair ``(kᵢ, vⱼ)`` for
    ``i < rows`` and ``j < values_per_key`` — each key may carry any of the
    shared values.  The c-instance has one row ``(kᵢ, wᵢ)`` per key with a
    fresh variable ``wᵢ``, and the constraints are

    * the registry bound (``Record ⊆ π_{key,value}(Registry)``), restricting
      each ``wᵢ`` to the ``values_per_key`` shared values, and
    * an all-distinct denial CC (``Record(k,v) ∧ Record(k',v') ∧ k ≠ k' ∧
      v = v' ⊆ ∅``), forbidding two keys from carrying the same value.

    By pigeonhole the instance is consistent iff ``rows ≤ values_per_key``;
    in the inconsistent regime every decider must exhaust the whole search
    tree.  Every variable's candidate pool is the full active domain
    (``rows + values_per_key`` registry constants plus one fresh value per
    variable), so the tree is *wide at the root*, and the per-node pruning
    work (a join of the all-distinct CC over the grounded rows) is heavy.
    The service's ``wide`` workload plugin serves this family.
    """
    db_schema = database_schema(schema("Record", "key", "value"))
    master_schema = database_schema(schema("Registry", "key", "value"))
    master_rows = [
        (f"k{i}", f"v{j}") for i in range(rows) for j in range(values_per_key)
    ]
    master = MasterData(master_schema, {"Registry": master_rows})

    k, v, k2, v2 = var("k"), var("v"), var("k2"), var("v2")
    constraints = [
        cc(
            cq("all_records", [k, v], atoms=[atom("Record", k, v)]),
            projection("Registry", "key", "value"),
            name="record⊆registry",
        ),
        denial_cc(
            boolean_cq(
                "all_distinct",
                atoms=[atom("Record", k, v), atom("Record", k2, v2)],
                comparisons=[neq(k, k2), eq(v, v2)],
            ),
            name="all-distinct:value",
        ),
    ]
    table_rows = [
        CTableRow((f"k{i}", Variable(f"w{i}"))) for i in range(rows)
    ]
    cinst = CInstance(db_schema, {"Record": CTable(db_schema["Record"], table_rows)})
    return WidePoolWorkload(
        schema=db_schema,
        master=master,
        constraints=constraints,
        cinstance=cinst,
        rows=rows,
        values_per_key=values_per_key,
        consistent=rows <= values_per_key,
    )


def point_queries_for_keys(keys: Sequence[str]) -> list[ConjunctiveQuery]:
    """One point query per key (used to build fixed query workloads)."""
    v = var("v")
    return [
        cq(f"Point_{key}", [v], atoms=[atom("Record", key, v)]) for key in keys
    ]


@dataclass(frozen=True)
class WideConstraintWorkload:
    """A wide-LHS constraint workload (the delta checker's target regime)."""

    schema: DatabaseSchema
    master: MasterData
    constraints: list[ContainmentConstraint]
    cinstance: CInstance
    ground_rows: int
    variable_rows: int
    width: int
    values: int


def wide_constraint_workload(
    ground_rows: int = 18,
    variable_rows: int = 3,
    width: int = 3,
    values: int = 3,
) -> WideConstraintWorkload:
    """Build the wide-constraint family targeted by the delta checker.

    The schema is ``Record(key, value)`` with a finite ``values``-element
    value domain; the c-instance holds ``ground_rows`` ground rows (one per
    key, values cycling) plus ``variable_rows`` rows ``(kᵢ, wᵢ)`` with fresh
    variables, and the single constraint is a **wide** containment

        ``q(v₁, …, v_w) :- Record(x₁, v₁), …, Record(x_w, v_w)
        ⊆ π(Allowed)``

    whose ``Allowed`` master relation holds the full ``values^width`` value
    combinations — the constraint never fires, so every engine walks the
    same (small) search tree, but *checking* it on every new tuple is the
    per-node cost the benchmark measures.  Re-evaluating the whole LHS per
    grounded tuple joins ``|Record|^width`` atom combinations; the delta
    checker seeds each of the ``width`` atoms with the new tuple and joins
    only the remaining ``width - 1`` outward, an ``O(|Record|/width)``
    per-node advantage that grows with the instance.  The benchmark gates
    (`bench_engine.py`) require the indexed delta checker to be ≥ 3x faster
    per node than the full-recompute reference checker at ``width=3``, and
    ≥ 3x faster than the linear-scan delta reference at ``width=4``, where
    the remaining-atom join is deep enough for the hash-join planner to
    dominate the shared per-node search overhead.
    """
    value_domain = Domain(
        name=f"values{values}", values=frozenset(f"v{j}" for j in range(values))
    )
    db_schema = database_schema(
        RelationSchema("Record", ["key", ("value", value_domain)])
    )
    allowed_attrs = [f"V{i}" for i in range(width)]
    master_schema = database_schema(schema("Allowed", *allowed_attrs))
    combos = [
        tuple(f"v{j}" for j in combo)
        for combo in itertools.product(range(values), repeat=width)
    ]
    master = MasterData(master_schema, {"Allowed": combos})

    value_vars = [var(f"v{i}") for i in range(width)]
    key_vars = [var(f"x{i}") for i in range(width)]
    wide = cc(
        cq(
            "wide_values",
            value_vars,
            atoms=[
                atom("Record", key_vars[i], value_vars[i]) for i in range(width)
            ],
        ),
        projection("Allowed", *allowed_attrs),
        name=f"width-{width}-values",
    )

    rows: list[CTableRow] = [
        CTableRow((f"k{i}", f"v{i % values}")) for i in range(ground_rows)
    ]
    rows += [
        CTableRow((f"k{ground_rows + j}", Variable(f"w{j}")))
        for j in range(variable_rows)
    ]
    cinst = CInstance(db_schema, {"Record": CTable(db_schema["Record"], rows)})
    return WideConstraintWorkload(
        schema=db_schema,
        master=master,
        constraints=[wide],
        cinstance=cinst,
        ground_rows=ground_rows,
        variable_rows=variable_rows,
        width=width,
        values=values,
    )


@dataclass(frozen=True)
class SkewedJoinWorkload:
    """A hub-skewed join workload (the indexed delta checker's target regime)."""

    schema: DatabaseSchema
    master: MasterData
    constraints: list[ContainmentConstraint]
    cinstance: CInstance
    hub_degree: int
    medium_degree: int
    variable_rows: int
    values: int


def skewed_join_workload(
    hub_degree: int = 24,
    variable_rows: int = 3,
    values: int = 3,
    medium_degree: int = 4,
) -> SkewedJoinWorkload:
    """Build the skew family that punishes linear constraint-check scans.

    The schema is a graph relation ``Edge(src, tag, dst)`` whose ``dst``
    column ranges over the finite domain ``{d0, …, d_{values-1}}``, and the
    single constraint is a three-hop chain containment

        ``q(x0, x3) :- Edge(x0, t1, x1), Edge(x1, t2, x2), Edge(x2, t3, x3)
        ⊆ π(Reach)``

    whose ``Reach`` master relation holds every source/destination pair, so
    the constraint never fires and every checker walks the identical search
    tree while doing maximal join work per pushed tuple.  The ground rows
    are deliberately *skewed*:

    * ``hub_degree`` rows fan out of the hot hub ``d0`` (destinations
      cycling over the domain),
    * ``medium_degree`` rows point from ``d1`` back to the hub, and
    * ``d2, …`` have **no** outgoing edges at all.

    Each ``tag`` value is unique to its row and appears nowhere else in the
    constraint, so the hash indexes of :mod:`repro.relational.indexing`
    project it away: the hot bucket collapses from ``hub_degree`` rows to at
    most ``values`` distinct ``(dst,)`` continuations, an empty ``d2``
    bucket refutes a join step in one dict lookup, and seeding the chain's
    middle atom with a fresh ``gⱼ`` vertex dead-ends immediately because no
    edge *enters* ``gⱼ``.  A linear scan re-walks all ``hub_degree +
    medium_degree + variable_rows`` rows at every join step in all of those
    situations, which is exactly the per-node gap the
    ``REQUIRED_INDEX_SPEEDUP`` gate in ``bench_engine.py`` measures.

    The c-instance adds ``variable_rows`` rows ``(gⱼ, tⱼ, wⱼ)`` with fresh
    source vertices and a missing destination each, giving the search
    ``values^variable_rows`` leaves with one delta check per node.
    """
    dst_domain = Domain(
        name=f"dst{values}", values=frozenset(f"d{j}" for j in range(values))
    )
    db_schema = database_schema(
        RelationSchema("Edge", ["src", "tag", ("dst", dst_domain)])
    )
    master_schema = database_schema(schema("Reach", "src", "dst"))
    sources = [f"d{j}" for j in range(values)] + [
        f"g{j}" for j in range(variable_rows)
    ]
    destinations = [f"d{j}" for j in range(values)]
    master = MasterData(
        master_schema,
        {"Reach": [(a, b) for a in sources for b in destinations]},
    )

    x0, x1, x2, x3 = var("x0"), var("x1"), var("x2"), var("x3")
    t1, t2, t3 = var("t1"), var("t2"), var("t3")
    chain = cc(
        cq(
            "three_hop",
            [x0, x3],
            atoms=[
                atom("Edge", x0, t1, x1),
                atom("Edge", x1, t2, x2),
                atom("Edge", x2, t3, x3),
            ],
        ),
        projection("Reach", "src", "dst"),
        name="three-hop⊆reach",
    )

    rows: list[CTableRow] = [
        CTableRow(("d0", f"e{i}", f"d{i % values}")) for i in range(hub_degree)
    ]
    rows += [CTableRow(("d1", f"f{i}", "d0")) for i in range(medium_degree)]
    rows += [
        CTableRow((f"g{j}", f"t{j}", Variable(f"w{j}")))
        for j in range(variable_rows)
    ]
    cinst = CInstance(db_schema, {"Edge": CTable(db_schema["Edge"], rows)})
    return SkewedJoinWorkload(
        schema=db_schema,
        master=master,
        constraints=[chain],
        cinstance=cinst,
        hub_degree=hub_degree,
        medium_degree=medium_degree,
        variable_rows=variable_rows,
        values=values,
    )


@dataclass(frozen=True)
class DisconnectedComponentsWorkload:
    """A workload of independent sub-instances (the component counter's regime)."""

    schema: DatabaseSchema
    master: MasterData
    constraints: list[ContainmentConstraint]
    cinstance: CInstance
    components: int
    rows_per_component: int
    values: int
    row_width: int
    #: the exact number of distinct worlds: ``values ** (row_width * components)``
    world_count: int


def disconnected_components_workload(
    components: int = 3,
    rows_per_component: int = 3,
    values: int = 4,
    row_width: int = 1,
) -> DisconnectedComponentsWorkload:
    """Build the disconnected-components family for the gen-2 SAT stack.

    The schema is ``Record(key, v0, …, v_{row_width-1})`` with every value
    column ranging over the shared finite domain ``{v0, …, v_{values-1}}``.
    Component ``i`` contributes ``rows_per_component`` rows, all carrying the
    component key ``cᵢ`` and fresh variables in every value column; one
    FD-style denial CC per value column (``Record(k,…,u,…) ∧ Record(k,…,t,…)
    ∧ u ≠ t ⊆ ∅``, joined on the key) forces the whole component to agree on
    each column.  Constraint matches join on the key, so they never cross
    components — the CNF clause graph splits into ``components`` independent
    parts, one per key.

    Every component therefore collapses to a single tuple ``(cᵢ, v⃗)`` with
    ``values ** row_width`` choices of ``v⃗``, making the world count exactly
    ``values ** (row_width * components)`` — which blocking-clause
    enumeration pays in full while component-caching counting pays
    ``components · values ** row_width`` (less, with isomorphic components
    cached).  Widening ``row_width`` grows the violation join
    (``values ** (2·row_width)`` matches per column per component).
    """
    value_domain = Domain(
        name=f"val{values}", values=frozenset(f"v{j}" for j in range(values))
    )
    db_schema = database_schema(
        RelationSchema(
            "Record",
            ["key"] + [(f"v{c}", value_domain) for c in range(row_width)],
        )
    )
    master = empty_master(database_schema(schema("M", "A")))

    k = var("k")
    constraints: list[ContainmentConstraint] = []
    for column in range(row_width):
        left = [var(f"u{c}") for c in range(row_width)]
        right = [var(f"t{c}") for c in range(row_width)]
        constraints.append(
            denial_cc(
                boolean_cq(
                    f"fd_key_v{column}",
                    atoms=[
                        atom("Record", k, *left),
                        atom("Record", k, *right),
                    ],
                    comparisons=[neq(left[column], right[column])],
                ),
                name=f"fd:key→v{column}",
            )
        )

    rows: list[CTableRow] = []
    for i in range(components):
        for j in range(rows_per_component):
            rows.append(
                CTableRow(
                    (f"c{i}",)
                    + tuple(
                        Variable(f"x{i}_{j}_{c}") for c in range(row_width)
                    )
                )
            )
    cinst = CInstance(db_schema, {"Record": CTable(db_schema["Record"], rows)})
    return DisconnectedComponentsWorkload(
        schema=db_schema,
        master=master,
        constraints=constraints,
        cinstance=cinst,
        components=components,
        rows_per_component=rows_per_component,
        values=values,
        row_width=row_width,
        world_count=values ** (row_width * components),
    )


# ---------------------------------------------------------------------------
# update-stream workloads (incremental Database.update benchmarks/tests)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class UpdateStep:
    """One scripted update: add or drop one ground row of a relation."""

    kind: str  # "add" | "drop"
    relation: str
    row: tuple[Constant, ...]


@dataclass(frozen=True)
class UpdateStreamWorkload:
    """A registry workload plus a deterministic ground add/drop script.

    The script only ever adds tuples built from the master registry's
    constants, so the Prop. 3.3 active domain never changes across the
    stream: the incremental SAT session of :class:`repro.api.Database` can
    keep its encoding and live solver for the whole script (the property the
    ``update_stream`` benchmark family measures).
    """

    base: RegistryWorkload
    script: tuple[UpdateStep, ...]


def update_stream_workload(
    steps: int = 50,
    master_size: int = 6,
    db_rows: int = 3,
    variable_count: int = 1,
    with_fd: bool = True,
    include_violations: bool = False,
    seed: int = 0,
) -> UpdateStreamWorkload:
    """A registry workload with a ``steps``-long ground add/drop script.

    Each step drops one currently present ground row (if any remain) or adds
    one registry pair not currently present.  With ``include_violations`` the
    script occasionally adds an off-registry pair — a ground row that
    certainly violates the IND-shaped CC, driving the database through
    inconsistent states (useful for differential fuzzing; the benchmark
    keeps the default consistent stream).  Deterministic given ``seed``.
    """
    base = registry_workload(
        master_size=master_size,
        db_rows=db_rows,
        variable_count=variable_count,
        with_fd=with_fd,
        seed=seed,
    )
    rng = random.Random(f"update-stream:{seed}")
    registry_pairs = sorted(base.master.relation("Registry").rows)
    off_registry = [
        (key, "v-off") for key, _value in registry_pairs
    ]  # value absent from the registry: certain CC violation once added
    present: list[tuple[Constant, ...]] = sorted(
        row.terms
        for row in base.cinstance.table("Record").rows
        if not row.variables()
    )
    script: list[UpdateStep] = []
    for _step in range(steps):
        can_drop = bool(present)
        absent = [p for p in registry_pairs if p not in present]
        if include_violations and rng.random() < 0.15:
            candidates = [p for p in off_registry if p not in present]
            if candidates:
                row = rng.choice(candidates)
                script.append(UpdateStep("add", "Record", row))
                present.append(row)
                continue
        if can_drop and (not absent or rng.random() < 0.5):
            row = rng.choice(present)
            script.append(UpdateStep("drop", "Record", row))
            present.remove(row)
        elif absent:
            row = rng.choice(absent)
            script.append(UpdateStep("add", "Record", row))
            present.append(row)
        elif can_drop:
            row = rng.choice(present)
            script.append(UpdateStep("drop", "Record", row))
            present.remove(row)
    return UpdateStreamWorkload(base=base, script=tuple(script))
