"""The SAT-backed world-search engine (``engine="sat"``).

:class:`SATWorldSearch` decides and enumerates ``Mod_Adom(T, D_m, V)`` by
handing the one-shot CNF encoding of :mod:`repro.search.cnf_encoding` to the
DPLL solver of :mod:`repro.reductions.dpll`.  It mirrors the API of
:class:`repro.search.engine.WorldSearch`, so
:mod:`repro.ctables.possible_worlds` routes through it transparently:

* :meth:`has_world` runs a single satisfiability check — existence questions
  (consistency, the MINP emptiness probe) never enumerate anything;
* :meth:`search` enumerates satisfying assignments with selector-projected
  blocking clauses, yielding each Adom valuation exactly once together with
  its world — exactly the pairs the naive cross-product scan accepts.  The
  solver branches on the selectors only and resumes from each model's trail
  instead of starting over;
* :meth:`worlds` deduplicates by the shared canonical form, as on every
  engine (:class:`repro.search.engine.WorldSearchBase`);
* :meth:`count_worlds` multiplies the distinct sub-world counts of the
  clause graph's connected components.

Both SAT counts (per component here, and
:meth:`IncrementalSATSession.count_worlds`) run :func:`_count_cubes`, which
blocks only the selectors of the variables a model's world depends on, so
one solve covers a cube of valuations with one world.  :meth:`search`
blocks every variable, since it yields every valuation.

Compared with the propagating engine, the SAT route front-loads all
constraint reasoning into clause generation: conditions and
(in)equality-heavy containment constraints are evaluated once, and the solver
then explores the valuation space with unit propagation, learned conflicts
and restarts instead of per-node conjunctive-query re-evaluation.

:class:`IncrementalSATSession` is the :class:`repro.api.Database` facade's
long-lived variant: the same encoder and two long-lived solvers, one for
existence and witnesses and one for enumeration, all surviving a stream of
ground-tuple updates.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Sequence

from repro.constraints.containment import ContainmentConstraint
from repro.ctables.adom import ActiveDomain
from repro.ctables.cinstance import CInstance
from repro.ctables.ctable import CTableRow
from repro.ctables.valuation import Valuation
from repro.queries.terms import Variable
from repro.reductions.dpll import DPLLSolver, SolverStats
from repro.relational.instance import GroundInstance, Row
from repro.relational.master import MasterData
from repro.search.cnf_encoding import (
    IncrementalEncoder,
    WorldEncoding,
    encode_world_search,
    iter_solver_models,
)
from repro.search.engine import SearchStats, WorldSearchBase
from repro.search.propagation import ConstraintChecker


#: One clause-graph component: its c-instance variables, clauses and rows.
_Component = tuple[
    list[Variable], list[tuple[int, ...]], list[tuple[str, CTableRow]]
]


class SATWorldSearch(WorldSearchBase):
    """SAT-backed enumeration of ``Mod_Adom(T, D_m, V)``.

    Parameters mirror :class:`repro.search.engine.WorldSearch`: the
    decision-procedure input plus an optional prebuilt
    :class:`ConstraintChecker` whose precomputed right-hand sides the encoder
    reuses.  The CNF encoding (:func:`encode_world_search`) is built eagerly
    — its cost corresponds to the constraint pre-evaluation of the other
    engines; a solver deciding the selectors only is created per call.
    """

    def __init__(
        self,
        cinstance: CInstance,
        master: MasterData,
        constraints: Sequence[ContainmentConstraint],
        adom: ActiveDomain | None = None,
        *,
        checker: ConstraintChecker | None = None,
    ) -> None:
        self._cinstance = cinstance
        self._encoding: WorldEncoding = encode_world_search(
            cinstance, master, constraints, adom, checker=checker
        )
        self._component_cache: dict[object, tuple[int, int]] = {}
        self.stats = SearchStats(nodes=None, encoding=self._encoding.stats)

    @property
    def encoding(self) -> WorldEncoding:
        """The CNF encoding backing the search."""
        return self._encoding

    def _solver(
        self,
        clauses: Sequence[tuple[int, ...]] | None = None,
        decisions: Iterable[int] | None = None,
    ) -> DPLLSolver:
        """A solver over ``clauses`` (default: the whole encoding) deciding
        ``decisions`` (default: every selector)."""
        # One SolverStats ledger outlives every solver instance, so a
        # has_world() followed by a search() reports the total work instead
        # of silently discarding the existence check's counters.
        if self.stats.solver is None:
            self.stats.solver = SolverStats()
        if clauses is None:
            clauses = self._encoding.clauses
        if decisions is None:
            decisions = self._encoding.selector.values()
        return DPLLSolver(clauses, stats=self.stats.solver, decisions=decisions)

    def search(self) -> Iterator[tuple[Valuation, GroundInstance]]:
        """Enumerate ``(µ, µ(T))`` pairs: one per selector-projected model."""
        if self._encoding.trivially_unsat:
            return
        for valuation in iter_solver_models(self._encoding, self._solver()):
            self.stats.worlds += 1
            yield valuation, self._cinstance.apply(valuation)

    def has_world(self) -> bool:
        """Whether ``Mod_Adom(T, D_m, V)`` is non-empty: one SAT call."""
        if self._encoding.trivially_unsat:
            return False
        return self._solver().solve() is not None

    # ------------------------------------------------------------------
    # component-caching counting
    # ------------------------------------------------------------------
    def count_worlds(self) -> int:
        """The number of distinct worlds, as a product over components.

        Two c-instance variables interact — through a shared row, a shared
        candidate tuple or a violation clause — exactly when their selectors
        are connected in the clause graph, once the asserted guards are
        taken out: a clause holding a guard is satisfied and a negated guard
        is false (left in, the ground tuples would glue unrelated variables
        together).  Component tuple universes are therefore disjoint, so the
        number of distinct worlds is the product of the per-component counts
        of distinct sub-worlds, the sets of non-ground tuples a component's
        rows produce.  Sub-counts are cached by a canonical component
        fingerprint, so isomorphic components (renamed copies of one
        sub-instance) are counted once.  A connected instance is one
        component; a variable-free one has none and counts one world, or
        none when its ground tuples violate a constraint.  A component is
        counted on a solver of its own, one model per cube of valuations
        that give one sub-world (:func:`_count_cubes`).

        No :class:`~repro.relational.instance.GroundInstance` is built.
        ``stats.worlds`` counts the satisfying valuations (the
        product of the per-component ones), as enumeration would.
        """
        encoding = self._encoding
        if encoding.trivially_unsat:
            return 0
        selectors = set(encoding.selector.values())
        # encode_world_search asserts each ground tuple's guard as a unit
        # clause: the encoding's only positive units outside the selectors.
        guards = {
            clause[0]
            for clause in encoding.clauses
            if len(clause) == 1 and clause[0] > 0 and clause[0] not in selectors
        }

        parent: dict[int, int] = {}

        def find(item: int) -> int:
            root = item
            while parent.setdefault(root, root) != root:
                root = parent[root]
            while parent[item] != root:  # path compression
                parent[item], item = root, parent[item]
            return root

        def union(left: int, right: int) -> None:
            left_root, right_root = find(left), find(right)
            if left_root != right_root:
                parent[right_root] = left_root

        clauses: list[tuple[int, ...]] = []
        for clause in encoding.clauses:
            if any(lit in guards for lit in clause):
                continue
            reduced = tuple(lit for lit in clause if -lit not in guards)
            if not reduced:
                return 0  # a violation over ground tuples alone
            clauses.append(reduced)
            for lit in reduced[1:]:
                union(abs(reduced[0]), abs(lit))

        # Keep each row inside one component, even a row that never grounds
        # (and so has no producer clause joining its variables).
        anchor = {
            variable: encoding.selector[(variable, encoding.pools[variable][0])]
            for variable in encoding.variables
        }
        ground: set[tuple[str, Row]] = set()
        rows: list[tuple[str, CTableRow, Variable]] = []
        for name, _index, row in self._cinstance.rows():
            row_variables = sorted(row.variables(), key=lambda v: v.name)
            if not row_variables:
                tuple_ = row.apply({})
                if tuple_ is not None:
                    ground.add((name, tuple_))
                continue
            for variable in row_variables[1:]:
                union(anchor[row_variables[0]], anchor[variable])
            rows.append((name, row, row_variables[0]))

        # root → (variables, clauses, rows) of its component
        components: dict[int, _Component] = {}

        def component(item: int) -> _Component:
            return components.setdefault(find(item), ([], [], []))

        for variable in encoding.variables:
            component(anchor[variable])[0].append(variable)
        for clause in clauses:
            component(abs(clause[0]))[1].append(clause)
        for name, row, variable in rows:
            component(anchor[variable])[2].append((name, row))

        self.stats.components = len(components)
        total = valuations = 1
        for variables, component_clauses, component_rows in components.values():
            fingerprint = self._component_fingerprint(variables, component_clauses)
            counted = self._component_cache.get(fingerprint)
            if counted is None:
                solver = self._solver(
                    component_clauses, encoding.selector_scope(variables)
                )
                counted = _count_cubes(
                    encoding, solver, variables, component_rows, ground
                )
                self._component_cache[fingerprint] = counted
            else:
                self.stats.component_cache_hits += 1
            total *= counted[0]
            valuations *= counted[1]
            if total == 0:
                break
        self.stats.worlds += valuations
        self.stats.duplicate_worlds += valuations - total
        return total

    def _component_fingerprint(
        self, variables: Sequence[Variable], clauses: Sequence[tuple[int, ...]]
    ) -> object:
        """A canonical form identifying a component up to variable renaming.

        Encoding variables are renamed 1..n — selectors first (c-instance
        variable order × pool order), presence variables by first occurrence
        in the clause walk — so two components that are renamed copies of
        the same sub-instance hash equal.  The canonical clause list is then
        sorted (literals within each clause too): violation clauses arrive in
        match-enumeration order, which differs between otherwise identical
        components, and clause order carries no meaning for the count.  The
        producer clauses ``¬conj ∨ p`` carry which renamed conjunctions
        yield one tuple, and the units left by asserted guards mark the
        ground ones, so the clauses and pool sizes determine the count of
        distinct sub-worlds.
        """
        encoding = self._encoding
        rename = {
            selector: position + 1
            for position, selector in enumerate(encoding.selector_scope(variables))
        }
        canonical_clauses = []
        for clause in clauses:
            renamed = []
            for lit in clause:
                mapped = rename.setdefault(abs(lit), len(rename) + 1)
                renamed.append(mapped if lit > 0 else -mapped)
            canonical_clauses.append(tuple(sorted(renamed)))
        canonical_clauses.sort()
        pool_sizes = tuple(len(encoding.pools[variable]) for variable in variables)
        return pool_sizes, tuple(canonical_clauses)


def _count_cubes(
    encoding: WorldEncoding,
    solver: DPLLSolver,
    variables: Sequence[Variable],
    rows: Sequence[tuple[str, CTableRow]],
    ground: set[tuple[str, Row]],
    assumptions: Sequence[int] = (),
    activation: int | None = None,
) -> tuple[int, int]:
    """Distinct worlds and satisfying valuations, one solve per cube.

    ``rows`` are the variable rows over ``variables`` and ``ground`` the
    tuples every world holds, so a world is told apart by the tuples its
    rows produce outside ``ground``.  A model's world depends only on the
    variables of the rows' conditions and the term variables of the rows
    whose condition holds: a valuation that agrees with the model there
    drops the same rows and grounds the others to the same tuples, and it
    depends on the same variables.  So the model's blocking clause names
    only those variables' selectors, and the model stands for its cube of
    valuations, as many as the product of the other variables' pool sizes.
    Two cubes that share a valuation are one cube, so each valuation is
    counted once.  Two cubes can still have one world (a row may produce a
    ground tuple), so worlds are deduplicated.

    ``solver`` must hold the encoding's clauses and decide at least the
    selectors of ``variables``.  The count runs under ``assumptions``.  With
    ``activation`` it also runs under that literal, every blocking clause
    carries its negation, and the solver retires it at the end, as in
    :func:`~repro.search.cnf_encoding.iter_solver_models`.
    """
    pools = encoding.pools
    conditioned = {v for _name, row in rows for v in row.condition.variables()}
    entries = [(name, row, row.term_variables()) for name, row in rows]
    assumed = list(assumptions)
    carried: tuple[int, ...] = ()
    if activation is not None:
        assumed.append(activation)
        carried = (-activation,)
    worlds: set[frozenset[tuple[str, Row]]] = set()
    valuations = 0
    try:
        while (model := solver.solve(assumed)) is not None:
            valuation = encoding.decode(model, variables)
            relevant = set(conditioned)
            world = set()
            for name, row, terms in entries:
                produced = row.apply(valuation)
                if produced is not None:
                    relevant |= terms
                    if (name, produced) not in ground:
                        world.add((name, produced))
            worlds.add(frozenset(world))
            cube: Valuation = {}
            weight = 1
            for variable in variables:
                if variable in relevant:
                    cube[variable] = valuation[variable]
                else:
                    weight *= len(pools[variable])
            valuations += weight
            if not cube:
                break  # the cube holds every valuation
            solver.add_clause(encoding.blocking_clause(cube) + carried)
    finally:
        if activation is not None:
            solver.retire(activation)
    return len(worlds), valuations


class IncrementalSATSession(WorldSearchBase):
    """A SAT search that outlives a stream of ground-tuple updates.

    Owned by the :class:`repro.api.Database` facade (one per facade, for
    the engine the built-in SAT factory builds): instead of re-encoding and
    re-solving from scratch after every :meth:`~repro.api.Database.update`,
    the session keeps

    * an :class:`~repro.search.cnf_encoding.IncrementalEncoder`, whose clause
      set only ever grows (guards express drops through assumptions) and
      holds no clause for a match no world can contain, and
    * two long-lived DPLL solvers, each fed the new clauses before it is
      used and solved under the current guard assumptions, so learned
      clauses, activities, saved phases and the level-0 trail accumulate
      across the whole update stream.  Both branch on the selectors only.

    Existence checks and witnesses (:meth:`has_world`, :meth:`first_world`)
    use the **live solver** (``reused_solver`` in the stats reports its
    reuse).  Model enumeration (:meth:`search`, and :meth:`count_worlds`,
    which blocks one cube of valuations per model) runs on the
    **enumeration solver**: each enumeration also assumes the session's
    activation literal ``a``, every blocking clause carries ``¬a``, and
    retiring ``a`` at the end drops those clauses and everything learned
    from them, so one enumeration never constrains the next.
    Counting never touches the live solver, so a witness never depends on
    whether a count ran first.  Both solvers share the ``stats.solver``
    ledger; ``worlds`` and ``duplicate_worlds`` describe the most recent
    call.

    Calls on one session are serialised by :attr:`lock`, which
    :meth:`has_world`, :meth:`first_world`, :meth:`count_worlds`,
    :meth:`apply` and the enumeration behind :meth:`search` hold; a caller
    that reads :attr:`stats` after a call from another thread holds it
    across both.  :meth:`search` drains the enumeration under the lock
    before it yields the first world.

    The session only absorbs updates that keep the encoding's fixed parts
    fixed: ground-tuple adds/drops under an unchanged active domain,
    variable set and finite-domain restriction map.  The facade checks those
    triggers (:meth:`compatible`) and rebuilds the session otherwise.
    """

    def __init__(
        self,
        cinstance: CInstance,
        master: MasterData,
        constraints: Sequence[ContainmentConstraint],
        adom: ActiveDomain,
        *,
        checker: ConstraintChecker | None = None,
    ) -> None:
        self._cinstance = cinstance
        self._adom = adom
        self._variables = frozenset(cinstance.variables())
        self._variable_domains = dict(cinstance.variable_domains())
        self._encoder = IncrementalEncoder(
            cinstance, master, constraints, adom, checker=checker
        )
        self._solver = DPLLSolver(decisions=self._encoder.encoding.selector.values())
        self._solved_live = False
        self._fed = 0
        # Built by the first enumeration: many sessions never count.
        self._enumerator: DPLLSolver | None = None
        self._enumerator_fed = 0
        self._activation = self._encoder.fresh_activation()
        self.lock = threading.RLock()
        self.stats = SearchStats(
            nodes=None, encoding=self._encoder.encoding.stats, solver=self._solver.stats
        )

    @property
    def cinstance(self) -> CInstance:
        """The c-instance the session currently encodes."""
        return self._cinstance

    @property
    def encoding(self) -> WorldEncoding:
        """The (growing) CNF encoding behind the session."""
        return self._encoder.encoding

    # ------------------------------------------------------------------
    # update stream
    # ------------------------------------------------------------------
    def compatible(self, cinstance: CInstance, adom: ActiveDomain) -> bool:
        """Whether an updated instance can be absorbed without a rebuild.

        True when the variable set, the finite-domain restriction map and the
        active domain — everything the selector pools and the variable-row
        groundings were built from — are unchanged, so the instances can only
        differ in their fully ground rows.
        """
        return (
            adom == self._adom
            and frozenset(cinstance.variables()) == self._variables
            and dict(cinstance.variable_domains()) == self._variable_domains
        )

    def apply(
        self,
        cinstance: CInstance,
        added: Iterable[tuple[str, Row]],
        dropped: Iterable[tuple[str, Row]],
    ) -> None:
        """Absorb one update: tuple-level ground diffs against the old state.

        ``added``/``dropped`` are the ground tuples that became present /
        absent (the facade computes the set-level diff; duplicate rows of one
        tuple collapse).  The caller must have checked :meth:`compatible`.
        """
        with self.lock:
            for relation, ground in dropped:
                self._encoder.drop_ground(relation, ground)
            for relation, ground in added:
                self._encoder.add_ground(relation, ground)
            self._cinstance = cinstance

    # ------------------------------------------------------------------
    # decision surfaces (API parity with SATWorldSearch where it matters)
    # ------------------------------------------------------------------
    def _feed(self, solver: DPLLSolver, fed: int) -> int:
        """Add the clauses encoded since ``fed`` to ``solver``; the new mark."""
        clauses = self._encoder.encoding.clauses
        for index in range(fed, len(clauses)):
            solver.add_clause(clauses[index])
        return len(clauses)

    def _live_model(self) -> Valuation | None:
        """The live solver's model under the assumptions, as a valuation.

        The ``reused_solver`` flag is set only once the live solver is
        actually consulted: a trivially-unsat session answers from the
        encoder alone and performs no solver reuse to report.
        """
        self.stats.worlds = self.stats.duplicate_worlds = 0
        encoding = self._encoder.encoding
        if encoding.trivially_unsat:
            return None
        self.stats.reused_solver = self._solved_live
        self._solved_live = True
        self._fed = self._feed(self._solver, self._fed)
        model = self._solver.solve(self._encoder.assumptions())
        return None if model is None else encoding.decode(model)

    def has_world(self) -> bool:
        """Existence via the live solver, under the current guard assumptions."""
        with self.lock:
            return self._live_model() is not None

    def first_world(self) -> GroundInstance | None:
        """A witness world ``µ(T)`` from the live solver, or ``None``."""
        with self.lock:
            valuation = self._live_model()
            return None if valuation is None else self._cinstance.apply(valuation)

    def _ready_enumerator(self) -> DPLLSolver:
        """The enumeration solver, fed the clauses encoded since its last use.

        The caller holds :attr:`lock` until the enumeration ends.
        """
        self.stats.worlds = self.stats.duplicate_worlds = 0
        self.stats.reused_solver = False
        if self._enumerator is None:
            self._enumerator = DPLLSolver(
                decisions=self._encoder.encoding.selector.values(),
                stats=self._solver.stats,
            )
        self._enumerator_fed = self._feed(self._enumerator, self._enumerator_fed)
        return self._enumerator

    def search(self) -> Iterator[tuple[Valuation, GroundInstance]]:
        """Enumerate ``(µ, µ(T))`` pairs, drained under :attr:`lock` first."""
        with self.lock:
            cinstance = self._cinstance
            valuations = list(
                iter_solver_models(
                    self._encoder.encoding,
                    self._ready_enumerator(),
                    self._encoder.assumptions(),
                    activation=self._activation,
                )
            )
        for valuation in valuations:
            self.stats.worlds += 1
            yield valuation, cinstance.apply(valuation)

    def count_worlds(self) -> int:
        """Count distinct worlds natively (no instances are built), one
        enumeration-solver model per cube of valuations (:func:`_count_cubes`).

        The ground rows hold in every world, so a world is told apart by the
        tuples its variable rows produce outside them.
        """
        with self.lock:
            solver = self._ready_enumerator()
            encoding = self._encoder.encoding
            if encoding.trivially_unsat:
                return 0
            ground: set[tuple[str, Row]] = set()
            rows: list[tuple[str, CTableRow]] = []
            for name, _index, row in self._cinstance.rows():
                if row.variables():
                    rows.append((name, row))
                    continue
                tuple_ = row.apply({})
                if tuple_ is not None:
                    ground.add((name, tuple_))
            worlds, valuations = _count_cubes(
                encoding,
                solver,
                encoding.variables,
                rows,
                ground,
                self._encoder.assumptions(),
                self._activation,
            )
            self.stats.worlds = valuations
            self.stats.duplicate_worlds = valuations - worlds
            return worlds
