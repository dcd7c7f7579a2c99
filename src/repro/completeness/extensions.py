"""Partially closed extensions ``Ext(I, D_m, V)``.

``Ext(I, D_m, V)`` is the set of ground instances ``I'`` that strictly extend
``I`` and remain partially closed, i.e. ``(I', D_m) |= V`` (Section 2.1).
The set is infinite in general; the paper's algorithms only ever enumerate
two restricted families of extensions, both with values drawn from the active
domain ``Adom``:

* *single-tuple extensions* ``I ∪ {t}`` — sufficient for the extensibility
  problem (Proposition 3.3) and, for monotone queries, for the certain answer
  over all extensions (Lemma 5.2 / Theorem 5.4); and
* *query-tableau extensions* ``I ∪ ν(T_Q)`` — sufficient for the strong-model
  characterisation (Lemma 4.2 / 4.3).

Both searches are **engine-routed**: an extension search *is* a world search
over the c-instance obtained by adjoining candidate rows with fresh variables
(one all-variable row for the single-tuple case, the query tableau's atoms
for the tableau case) to the ground instance ``I``.  Every enumerator below
therefore accepts the same ``engine=`` selection as the rest of the library
(a registered engine name, an :class:`~repro.search.registry.EngineConfig`,
or ``None`` for the default) and resolves it through the engine registry —
the propagating engine prunes constraint-violating candidates without
materialising the cross product the original scan walked, the SAT engine
applies its own machinery, and the naive engine reproduces the original
scan as the reference the parity harness compares against.

The deciders test many ground instances (the worlds of ``Mod_Adom(T)``)
against the same adjoined rows over one Adom, so the searches are built
once per decider call: :class:`TableauExtensions` and
:class:`SingleTupleExtensions` hold one
:class:`~repro.search.registry.SearchTemplate` per tableau or relation, and
their ``over(I)`` roots it at each instance.  The one-shot functions below
build one and use it once.

:func:`candidate_rows` survives as a thin cross product over
:func:`candidate_pools`, the *pool provider* the engine routing and the
remaining direct consumers (the certain-answer short-circuit sweep, the RCQP
combination scan) share.

Both enumerations are exponential in the worst case (that is the content of
the lower bounds); the generators accept an optional ``limit`` budget on the
candidate universe — the product of the candidate pools — so callers fail
fast instead of looping silently.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from repro.constraints.containment import ContainmentConstraint, satisfies_all
from repro.ctables.adom import ActiveDomain
from repro.ctables.cinstance import CInstance
from repro.exceptions import BoundExceededError
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Variable, is_variable
from repro.relational.domains import Constant
from repro.relational.instance import GroundInstance, Row
from repro.relational.master import MasterData
from repro.relational.schema import DatabaseSchema, RelationSchema

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle
    # through repro.reductions.implication, which consumes candidate_rows)
    from repro.search.propagation import ConstraintChecker
    from repro.search.registry import EngineConfig, SearchTemplate


def candidate_pools(
    relation: RelationSchema, adom: ActiveDomain, fresh_first: bool = False
) -> list[list[Constant]]:
    """Per-attribute candidate pools over ``Adom`` for a relation schema.

    Attributes with finite domains range over their finite domain, other
    attributes over the whole active domain, exactly as in the paper's
    extensibility algorithm (Proposition 3.3).  This is the pool provider
    behind :func:`candidate_rows` and the engine-routed extension searches —
    by construction it produces exactly the pools the world-search engines
    derive for an adjoined all-variable row, which is what makes the two
    enumeration strategies interchangeable.

    With ``fresh_first=True`` each pool visits the fresh (``New``) constants
    of ``Adom`` before the input constants.  This does not change the pools'
    contents, only their order; callers that search for *one* satisfying
    tuple typically find fresh-valued tuples acceptable first, because fresh
    values rarely trigger containment-constraint violations.
    """
    fresh = set(adom.fresh_values)

    def order(pool: list[Constant]) -> list[Constant]:
        if not fresh_first:
            return pool
        return sorted(pool, key=lambda value: (value not in fresh, repr(value)))

    return [
        order(adom.pool_for(attribute.domain)) for attribute in relation.attributes
    ]


def candidate_rows(
    relation: RelationSchema, adom: ActiveDomain, fresh_first: bool = False
) -> Iterator[Row]:
    """All tuples over ``Adom`` conforming to a relation schema.

    The cross product of :func:`candidate_pools`; kept for consumers that
    genuinely want the raw candidate universe in pool order (the
    certain-answer sweep's fresh-first short-circuit, the RCQP combination
    scan, oracles in tests).
    """
    for combo in itertools.product(*candidate_pools(relation, adom, fresh_first)):
        yield tuple(combo)


def _budget_exceeded(limit: int | None, what: str) -> BoundExceededError:
    return BoundExceededError(f"{what} enumeration exceeded {limit} candidates")


def _extension_variables(name: str, relation: RelationSchema) -> tuple[Variable, ...]:
    """One fresh variable per attribute of the adjoined candidate row.

    The names cannot collide with anything in the search: the base instance
    is ground, so the adjoined row's variables are the only variables of the
    augmented c-instance.
    """
    return tuple(
        Variable(f"_ext_{name}_{i}") for i in range(relation.arity)
    )


class SingleTupleExtensions:
    """The single-tuple extension searches of one schema over one Adom.

    Built once per decider call and rooted at each instance by
    :meth:`over`; the parameters are those of
    :func:`single_tuple_extensions`, whose semantics :meth:`over` has.  The
    search template of a relation is built on its first engine-routed
    search and shared by every later instance.
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        master: MasterData,
        constraints: Sequence[ContainmentConstraint],
        adom: ActiveDomain,
        relations: Sequence[str] | None = None,
        limit: int | None = None,
        engine: EngineConfig | str | None = None,
        fresh_first: bool = False,
    ) -> None:
        from repro.search.registry import EngineConfig as _EngineConfig

        self._schema = schema
        self._master = master
        self._constraints = constraints
        self._adom = adom
        self._limit = limit
        self._engine: EngineConfig | str | None = engine
        self._scan_only = False
        if fresh_first:
            config = _EngineConfig.coerce(engine)
            if config.spec().capabilities.pool_order_hints:
                self._engine = _EngineConfig(
                    name=config.name,
                    options={**dict(config.options), "pool_order": "fresh_first"},
                )
            else:
                self._scan_only = True
        names = relations if relations is not None else schema.relation_names
        self._pools = {
            name: candidate_pools(schema[name], adom, fresh_first) for name in names
        }
        self._templates: dict[str, tuple[tuple[Variable, ...], SearchTemplate]] = {}

    def _template(self, name: str) -> tuple[tuple[Variable, ...], SearchTemplate]:
        from repro.ctables.possible_worlds import search_template

        entry = self._templates.get(name)
        if entry is None:
            variables = _extension_variables(name, self._schema[name])
            template = search_template(
                CInstance(self._schema).with_row(name, variables),
                self._master, self._constraints, self._adom,
                engine=self._engine,
            )
            entry = self._templates[name] = (variables, template)
        return entry

    def over(self, instance: GroundInstance) -> Iterator[GroundInstance]:
        """Partially closed extensions of ``instance`` by one Adom tuple."""
        limit = self._limit
        inspected = 0
        for name, pools in self._pools.items():
            universe = math.prod(len(pool) for pool in pools)
            existing = instance.relation(name).rows
            if (limit is not None and inspected + universe > limit) or self._scan_only:
                # Direct scan: either the budget cannot cover this relation's
                # universe (inspect candidates one at a time so a witness early
                # in pool order is still found, and the bound trips exactly
                # where it used to), or a fresh-first sweep was requested and
                # the selected engine cannot honour the pool-order hint.
                for row in itertools.product(*pools):
                    inspected += 1
                    if limit is not None and inspected > limit:
                        raise _budget_exceeded(limit, "single-tuple extension")
                    if row in existing:
                        continue
                    extended = instance.with_tuple(name, row)
                    if satisfies_all(extended, self._master, self._constraints):
                        yield extended
                continue
            inspected += universe
            variables, template = self._template(name)
            for valuation, _world in template.over(instance).search():
                row = tuple(valuation[variable] for variable in variables)
                if row in existing:
                    continue
                yield instance.with_tuple(name, row)


def single_tuple_extensions(
    instance: GroundInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain,
    relations: Sequence[str] | None = None,
    limit: int | None = None,
    engine: EngineConfig | str | None = None,
    fresh_first: bool = False,
) -> Iterator[GroundInstance]:
    """Partially closed extensions of ``I`` obtained by adding one Adom tuple.

    Routed through the world-search engine registry: for each target relation
    the search runs over ``I`` adjoined with one all-variable row, whose
    satisfying valuations are exactly the addable tuples (valuations that
    ground the row onto an existing tuple reproduce ``I`` itself and are
    filtered out — extensions are strict).  Callers that extend many
    instances over one Adom build one :class:`SingleTupleExtensions` instead.

    Parameters
    ----------
    relations:
        Restrict the relation the new tuple is added to (all relations of the
        schema by default).
    limit:
        Optional cap on the number of candidate tuples inspected; exceeding
        it raises :class:`BoundExceededError`.  A relation whose candidate
        universe fits the remaining budget is searched through the engine
        (the whole universe is charged up front — a draining consumer would
        inspect exactly that many candidates); a relation that could not be
        drained within the budget falls back to the lazy per-candidate scan,
        preserving the historical semantics where an early witness is found
        and returned before the budget runs out.
    engine:
        World-search engine selection, as accepted everywhere else in the
        library.
    fresh_first:
        Order the candidate sweep with the fresh ``New`` values of the
        active domain first (stably).  Fresh values are the candidates most
        likely to produce genuinely new tuples, so consumers that stop at
        the first (or first *unhelpful*) extension find one sooner.  On the
        engine-routed path the hint travels as the ``pool_order`` engine
        option; engines that do not declare
        :attr:`~repro.search.registry.EngineCapabilities.pool_order_hints`
        cannot honour it, so the sweep falls back to the direct fresh-first
        candidate scan instead — the extension *set* is identical on every
        path, only the discovery order differs.
    """
    yield from SingleTupleExtensions(
        instance.schema, master, constraints, adom, relations=relations,
        limit=limit, engine=engine, fresh_first=fresh_first,
    ).over(instance)


# reprolint: disable=R004 -- boolean existence probe consumed by
# is_extensible(), which wraps the verdict in a Decision with stats.
def has_partially_closed_extension(
    instance: GroundInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain,
    limit: int | None = None,
    engine: EngineConfig | str | None = None,
) -> bool:
    """Whether ``Ext(I, D_m, V)`` is non-empty.

    For CCs defined by (monotone) CQs, an extension exists iff a *single
    tuple* can be added without violating ``V`` (Proposition 3.3), and the
    added tuple may be assumed to take values in ``Adom``.

    The unbudgeted probe runs with ``has_model``-style fresh-value symmetry
    breaking: per relation, the search over ``I`` adjoined with one
    all-variable row enumerates one valuation per orbit of the fresh-value
    permutation group (``break_symmetry=True``).  ``I`` may mention fresh
    Adom values (a possible world of a c-instance does, wherever a variable
    took one); those values are distinguished, like every constant of
    ``I``, and left out of the ranks, so only the fresh values that nothing
    in the input mentions are permuted.  This is sound for the
    strict-extension filter because the acceptance predicate — "the adjoined
    row differs from every existing tuple of ``I``" — is invariant under
    permutations of those values: they occur in no tuple of ``I``, so
    permuting them maps strict-extension witnesses to strict-extension
    witnesses within the same orbit.  A relation with no existing tuples
    cannot produce a duplicate at all, so there the probe collapses to a
    plain existence check and engines may additionally cancel in-flight
    work at the first world.

    A ``limit`` budget keeps the historical per-candidate accounting (and
    its :class:`BoundExceededError` trip point), which is incompatible with
    orbit-level enumeration, so the budgeted path scans unreduced.
    """
    if limit is not None:
        for _ in single_tuple_extensions(
            instance, master, constraints, adom, limit=limit,
            engine=engine,
        ):
            return True
        return False

    from repro.ctables.possible_worlds import search_template

    schema = instance.schema
    for name in schema.relation_names:
        existing = instance.relation(name).rows
        variables = _extension_variables(name, schema[name])
        run = search_template(
            CInstance(schema).with_row(name, variables), master, constraints, adom,
            engine=engine, break_symmetry=True,
        ).over(instance)
        if not existing:
            if run.has_world():
                return True
            continue
        for valuation, _world in run.search():
            if tuple(valuation[variable] for variable in variables) not in existing:
                return True
    return False


def _tableau_pools(
    query: ConjunctiveQuery,
    adom: ActiveDomain,
    schema: DatabaseSchema | None,
) -> tuple[list[Variable], list[list[Constant]]]:
    """The (sorted) query variables and their candidate pools over ``Adom``.

    Variables occurring in finite-domain attribute positions are restricted
    to those domains when the relation is part of the instance schema — the
    same restriction the world-search engines derive from the augmented
    c-instance's ``variable_domains``.
    """
    variables = sorted(query.variables(), key=lambda v: v.name)
    restrictions: dict[Variable, list[Constant]] = {}
    if schema is not None:
        for atom in query.atoms:
            if atom.relation not in schema:
                continue
            rel_schema = schema[atom.relation]
            for attribute, term in zip(rel_schema.attributes, atom.terms):
                if is_variable(term) and attribute.domain.is_finite:
                    pool = adom.pool_for(attribute.domain)
                    current = restrictions.get(term)
                    restrictions[term] = (
                        pool if current is None else [v for v in current if v in pool]
                    )
    pools = [restrictions.get(v, adom.ordered()) for v in variables]
    return variables, pools


def tableau_valuations(
    query: ConjunctiveQuery,
    adom: ActiveDomain,
    instance: GroundInstance | None = None,
) -> Iterator[dict[Variable, Constant]]:
    """All valuations of a query tableau's variables over ``Adom``.

    The valuations produced satisfy the query's comparison atoms (a valuation
    violating them can never witness a new query answer).  Variables occurring
    in finite-domain attribute positions are restricted to those domains when
    the relation is part of the instance schema.
    """
    variables, pools = _tableau_pools(
        query, adom, instance.schema if instance is not None else None
    )
    for combo in itertools.product(*pools):
        valuation = dict(zip(variables, combo))
        if all(c.evaluate(valuation) for c in query.comparisons):
            yield valuation


class TableauExtensions:
    """The tableau-extension search of one CQ over one Adom.

    Built once per decider call and rooted at each instance by
    :meth:`over`, whose semantics are those of :func:`tableau_extensions`.
    The engine search over the tableau's rows is compiled here, once, as a
    :class:`~repro.search.registry.SearchTemplate`; a ``limit`` the
    valuation universe exceeds, and a tableau without atoms, keep the
    direct scans.  ``checker`` is handed to the engine (the ground check
    shares its own).
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        schema: DatabaseSchema,
        master: MasterData,
        constraints: Sequence[ContainmentConstraint],
        adom: ActiveDomain,
        limit: int | None = None,
        engine: EngineConfig | str | None = None,
        checker: ConstraintChecker | None = None,
    ) -> None:
        from repro.ctables.possible_worlds import search_template

        self._query = query
        self._master = master
        self._constraints = constraints
        self._adom = adom
        variables, pools = _tableau_pools(query, adom, schema)
        self._limit = (
            limit
            if limit is not None and math.prod(len(pool) for pool in pools) > limit
            else None
        )
        row_variables: set[Variable] = set()
        for atom in query.atoms:
            row_variables |= atom.variables()
        # Query variables bound only through equality atoms occur in no
        # tableau row: they are enumerated directly over their pools.
        self._free = [
            (variable, pool)
            for variable, pool in zip(variables, pools)
            if variable not in row_variables
        ]
        self._template: SearchTemplate | None = None
        if self._limit is None and query.atoms:
            tableau = CInstance(schema)
            for atom in query.atoms:
                tableau = tableau.with_row(atom.relation, atom.terms)
            self._template = search_template(
                tableau, master, constraints, adom,
                engine=engine, checker=checker,
            )

    def _merged_valuations(
        self, engine_valuation: Mapping[Variable, Constant]
    ) -> Iterator[dict[Variable, Constant]]:
        if not self._free:
            yield dict(engine_valuation)
            return
        free = self._free
        for combo in itertools.product(*(pool for _variable, pool in free)):
            merged = dict(engine_valuation)
            merged.update(zip((variable for variable, _pool in free), combo))
            yield merged

    def over(
        self, instance: GroundInstance
    ) -> Iterator[tuple[dict[Variable, Constant], GroundInstance]]:
        """Partially closed extensions ``instance ∪ ν(T_Q)``, with ``ν``."""
        from repro.queries.tableau import freeze

        query, master, constraints = self._query, self._master, self._constraints
        comparisons = query.comparisons
        if self._limit is not None:
            limit = self._limit
            inspected = 0
            for valuation in tableau_valuations(query, self._adom, instance):
                inspected += 1
                if inspected > limit:
                    raise _budget_exceeded(limit, "tableau extension")
                extended = instance.with_tuples(freeze(query.atoms, valuation))
                if satisfies_all(extended, master, constraints):
                    yield valuation, extended
            return
        if self._template is None:
            # No tableau rows: the "extension" is I itself, kept iff partially
            # closed; every comparison-satisfying valuation is a witness.
            if not satisfies_all(instance, master, constraints):
                return
            for valuation in self._merged_valuations({}):
                if all(c.evaluate(valuation) for c in comparisons):
                    yield valuation, instance
            return
        for engine_valuation, _world in self._template.over(instance).search():
            for valuation in self._merged_valuations(engine_valuation):
                if not all(c.evaluate(valuation) for c in comparisons):
                    continue
                yield valuation, instance.with_tuples(freeze(query.atoms, valuation))


def tableau_extensions(
    instance: GroundInstance,
    query: ConjunctiveQuery,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain,
    limit: int | None = None,
    engine: EngineConfig | str | None = None,
) -> Iterator[tuple[dict[Variable, Constant], GroundInstance]]:
    """Partially closed extensions ``I ∪ ν(T_Q)`` for Adom-valuations ``ν``.

    Yields ``(ν, I ∪ ν(T_Q))`` pairs for every valuation such that the
    extension is partially closed.  The extension need not be *strict*: if
    ``ν(T_Q) ⊆ I`` the pair is still yielded (the strong-model check compares
    query answers, for which equality is then immediate).

    Engine-routed: the search runs over ``I`` adjoined with the query
    tableau's atoms as c-table rows, so the engines prune
    constraint-violating valuations instead of testing ``satisfies_all`` per
    cross-product point.  Query variables bound only through equality atoms
    (they occur in no tableau row) are enumerated directly over their pools,
    and the query's comparison atoms are applied to the merged valuation —
    exactly the :func:`tableau_valuations` semantics.  Callers that extend
    many instances by one tableau over one Adom build one
    :class:`TableauExtensions` instead.

    ``limit`` caps the number of candidate valuations inspected.  When the
    valuation universe fits the budget the engine search runs (and the whole
    universe is charged); otherwise the lazy per-valuation scan runs so that
    witnesses early in enumeration order are still produced before the bound
    trips, exactly as before the engine routing.
    """
    yield from TableauExtensions(
        query, instance.schema, master, constraints, adom,
        limit=limit, engine=engine,
    ).over(instance)


def bounded_extensions(
    instance: GroundInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain,
    max_new_tuples: int = 1,
    limit: int | None = None,
    engine: EngineConfig | str | None = None,
) -> Iterator[GroundInstance]:
    """Partially closed extensions adding up to ``max_new_tuples`` Adom tuples.

    Used by the *bounded* completeness checks for FO and FP in the strong and
    viable models, where the exact problems are undecidable: any extension
    found here that changes the query answer refutes completeness; finding
    none is necessary but not sufficient for completeness.

    ``limit`` caps the number of **distinct** extension instances produced;
    an extension reachable along several addition orders is counted (and
    yielded) once, and a budget equal to the number of distinct extensions
    completes normally instead of tripping on a trailing duplicate.
    """
    extensions = SingleTupleExtensions(
        instance.schema, master, constraints, adom, engine=engine
    )
    frontier: list[GroundInstance] = [instance]
    seen: set[GroundInstance] = {instance}
    produced = 0
    for _ in range(max_new_tuples):
        next_frontier: list[GroundInstance] = []
        for current in frontier:
            for extended in extensions.over(current):
                if extended in seen:
                    continue
                produced += 1
                if limit is not None and produced > limit:
                    raise BoundExceededError(
                        f"bounded extension enumeration exceeded {limit} instances"
                    )
                seen.add(extended)
                next_frontier.append(extended)
                yield extended
        frontier = next_frontier
