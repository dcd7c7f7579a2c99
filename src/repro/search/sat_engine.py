"""The SAT-backed world-search engine (``engine="sat"``).

:class:`SATWorldSearch` decides and enumerates ``Mod_Adom(T, D_m, V)`` by
handing the CNF encoding of :mod:`repro.search.cnf_encoding` to the DPLL
solver of :mod:`repro.reductions.dpll`.  It mirrors the API of
:class:`repro.search.engine.WorldSearch`, so
:mod:`repro.ctables.possible_worlds` routes through it transparently:

* :meth:`has_world` runs a single satisfiability check — existence questions
  (consistency, the MINP emptiness probe) never enumerate anything;
* :meth:`search` enumerates satisfying assignments with selector-projected
  blocking clauses, yielding each Adom valuation exactly once together with
  its world — exactly the pairs the naive cross-product scan accepts;
* :meth:`worlds` deduplicates by the shared canonical form
  (:func:`repro.search.engine.world_key`).

Compared with the propagating engine, the SAT route front-loads all
constraint reasoning into clause generation: conditions and
(in)equality-heavy containment constraints are evaluated once, and the solver
then explores the valuation space with unit propagation, learned conflicts
and restarts instead of per-node conjunctive-query re-evaluation.

:class:`IncrementalSATSession` is the :class:`repro.api.Database` facade's
long-lived variant: an incremental encoding and one live solver, both
surviving a stream of ground-tuple updates.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.constraints.containment import ContainmentConstraint
from repro.ctables.adom import ActiveDomain
from repro.ctables.cinstance import CInstance
from repro.ctables.valuation import Valuation
from repro.reductions.dpll import DPLLSolver, SolverStats
from repro.relational.instance import GroundInstance, Row
from repro.relational.master import MasterData
from repro.search.cnf_encoding import (
    EncodingStats,
    IncrementalEncoder,
    LazyViolationOracle,
    WorldEncoding,
    encode_world_search,
    iter_solver_models,
)
from repro.search.engine import world_key
from repro.search.propagation import ConstraintChecker


@dataclass
class SATSearchStats:
    """Counters describing one SAT-backed search run.

    On the long-lived :class:`IncrementalSATSession`, ``worlds`` and
    ``duplicate_worlds`` describe the most recent call; the ``solver``
    ledger keeps its totals.
    """

    worlds: int = 0
    duplicate_worlds: int = 0
    encoding: EncodingStats | None = None
    solver: SolverStats | None = None
    #: whether the most recent call was answered by a solver kept alive from
    #: a previous call (the incremental session); ``None`` for the one-shot
    #: :class:`SATWorldSearch`, which builds a fresh solver per search.
    reused_solver: bool | None = None
    #: clause-graph components the last component-counting ``count_worlds``
    #: decomposed into; ``None`` until (and unless) that path runs.
    components: int | None = None
    #: component sub-counts answered from the fingerprint cache.
    component_cache_hits: int = 0


class SATWorldSearch:
    """SAT-backed enumeration of ``Mod_Adom(T, D_m, V)``.

    Parameters mirror :class:`repro.search.engine.WorldSearch`: the
    decision-procedure input plus an optional prebuilt
    :class:`ConstraintChecker` whose precomputed right-hand sides the encoder
    reuses.  The CNF encoding is built eagerly (its cost corresponds to the
    constraint pre-evaluation of the other engines); the solver is created
    lazily per search.

    Two engine options tune the generation-2 SAT stack, both reachable as
    ``EngineConfig("sat", options={...})`` knobs:

    * ``cegar`` — encode lazily (no violation clauses up front) and refine
      with counter-example rounds: each candidate model is validated against
      the constraints and only the clauses it actually violates are added
      before re-solving (:class:`~repro.search.cnf_encoding.LazyViolationOracle`);
    * ``component_counting`` — :meth:`count_worlds` splits the clause graph
      into connected components, counts each independently (with a
      fingerprint cache over isomorphic components) and multiplies, instead
      of enumerating the full cross product with blocking clauses.
    """

    def __init__(
        self,
        cinstance: CInstance,
        master: MasterData,
        constraints: Sequence[ContainmentConstraint],
        adom: ActiveDomain | None = None,
        *,
        checker: ConstraintChecker | None = None,
        cegar: bool = False,
        component_counting: bool = False,
    ) -> None:
        if adom is None:
            from repro.ctables.possible_worlds import default_active_domain

            adom = default_active_domain(cinstance, master, constraints)
        checker = checker or ConstraintChecker(master, constraints)
        self._cinstance = cinstance
        self._master = master
        self._constraints = tuple(constraints)
        self._adom = adom
        self._checker = checker
        self._component_counting = bool(component_counting)
        self._encoding: WorldEncoding = encode_world_search(
            cinstance, master, constraints, adom,
            checker=checker,
            lazy_violations=bool(cegar),
        )
        self._oracle: LazyViolationOracle | None = (
            LazyViolationOracle(self._encoding, checker) if cegar else None
        )
        # Component counting needs the violation clauses in the clause graph
        # (a lazy encoding is spuriously disconnected), so under CEGAR it
        # builds — once, on demand — a parallel eager encoding.
        self._eager_encoding: WorldEncoding | None = (
            None if cegar else self._encoding
        )
        self._component_cache: dict[object, int] = {}
        self.stats = SATSearchStats(encoding=self._encoding.stats)

    @property
    def encoding(self) -> WorldEncoding:
        """The CNF encoding backing the search."""
        return self._encoding

    def _solver(self, encoding: WorldEncoding | None = None) -> DPLLSolver:
        # One SolverStats ledger outlives every solver instance, so a
        # has_world() followed by a search() reports the total work instead
        # of silently discarding the existence check's counters.
        if self.stats.solver is None:
            self.stats.solver = SolverStats()
        clauses = (encoding or self._encoding).clauses
        return DPLLSolver(clauses, stats=self.stats.solver)

    def _world_facts(self, valuation: Valuation) -> dict[str, set[Row]]:
        """The facts of the candidate world a valuation grounds."""
        facts: dict[str, set[Row]] = {
            name: set() for name in self._cinstance.schema.relation_names
        }
        for name, _index, row in self._cinstance.rows():
            ground = row.apply(valuation)
            if ground is not None:
                facts[name].add(ground)
        return facts

    def _models(self) -> Iterator[Valuation]:
        """The solve → validate (CEGAR) → decode → block loop.

        Without CEGAR this is exactly the shared
        :func:`~repro.search.cnf_encoding.iter_solver_models` loop.  With it,
        every candidate is checked against the constraints first; violated
        candidates feed their counter-example clauses back (persisting them
        in the encoding, so later solvers start refined) and re-solve.
        """
        encoding = self._encoding
        if encoding.trivially_unsat:
            return
        solver = self._solver()
        while True:
            model = solver.solve()
            if model is None:
                return
            valuation = encoding.decode(model)
            if self._oracle is not None:
                new_clauses = self._oracle.refute(self._world_facts(valuation))
                if new_clauses is None:
                    return  # a baseline-only violation: no world exists
                if new_clauses:
                    encoding.stats.cegar_rounds += 1
                    for clause in new_clauses:
                        solver.add_clause(clause)
                    continue
            yield valuation
            blocking = encoding.blocking_clause(valuation)
            if not blocking:
                return  # no variables: the single empty valuation is it
            solver.add_clause(blocking)

    # ------------------------------------------------------------------
    # front-ends (API parity with WorldSearch)
    # ------------------------------------------------------------------
    def search(self) -> Iterator[tuple[Valuation, GroundInstance]]:
        """Enumerate ``(µ, µ(T))`` pairs with ``(µ(T), D_m) |= V``.

        Every satisfying Adom valuation is yielded exactly once (selector
        blocking clauses; the CEGAR mode additionally validates candidates
        before yielding them).
        """
        for valuation in self._models():
            self.stats.worlds += 1
            yield valuation, self._cinstance.apply(valuation)

    def __iter__(self) -> Iterator[tuple[Valuation, GroundInstance]]:
        return self.search()

    def worlds(self, deduplicate: bool = True) -> Iterator[GroundInstance]:
        """Enumerate the worlds, suppressing duplicates by canonical form."""
        seen: set[tuple[frozenset[Row], ...]] = set()
        for _valuation, world in self.search():
            if deduplicate:
                key = world_key(world)
                if key in seen:
                    self.stats.duplicate_worlds += 1
                    continue
                seen.add(key)
            yield world

    def has_world(self) -> bool:
        """Whether ``Mod_Adom(T, D_m, V)`` is non-empty.

        A single satisfiability check for the eager encoding; under CEGAR, a
        refinement loop that stops at the first validated candidate.
        """
        if self._encoding.trivially_unsat:
            return False
        if self._oracle is None:
            return self._solver().solve() is not None
        for _valuation in self._models():
            return True
        return False

    def count_worlds(self) -> int:
        """The number of distinct worlds, counted natively.

        By default this runs the blocking-clause valuation enumeration but
        never builds a :class:`~repro.relational.instance.GroundInstance`:
        each valuation is reduced directly to the canonical world form of
        :func:`repro.search.engine.world_key` (the per-relation ground row
        sets) and counting is over the set of canonical forms.  This is the
        ``counts_natively`` capability the engine registry advertises.

        With ``component_counting`` the clause graph is split into connected
        components instead (see :meth:`_count_by_components`); the
        enumeration remains as the fallback for variable-free instances.
        """
        if self._encoding.trivially_unsat:
            return 0
        if self._component_counting:
            counted = self._count_by_components()
            if counted is not None:
                return counted
        names = list(self._cinstance.schema.relation_names)
        rows = [(name, row) for name, _index, row in self._cinstance.rows()]
        seen: set[tuple[frozenset[Row], ...]] = set()
        for valuation in self._models():
            self.stats.worlds += 1
            facts: dict[str, set[Row]] = {name: set() for name in names}
            for name, row in rows:
                ground = row.apply(valuation)
                if ground is not None:
                    facts[name].add(ground)
            key = tuple(frozenset(facts[name]) for name in names)
            if key in seen:
                self.stats.duplicate_worlds += 1
            else:
                seen.add(key)
        return len(seen)

    # ------------------------------------------------------------------
    # component-caching counting
    # ------------------------------------------------------------------
    def _complete_encoding(self) -> WorldEncoding:
        """An encoding whose clause graph carries all violation clauses.

        The lazy (CEGAR) encoding omits violation clauses, which would make
        clause-graph components spuriously independent — and the component
        product wrong.  Under CEGAR the counter builds one eager encoding on
        demand and caches it for later counts.
        """
        if self._eager_encoding is None:
            self._eager_encoding = encode_world_search(
                self._cinstance,
                self._master,
                self._constraints,
                self._adom,
                checker=self._checker,
            )
        return self._eager_encoding

    def _count_by_components(self) -> int | None:
        """Count worlds as a product over clause-graph components.

        Two c-instance variables interact — through a shared row, a shared
        candidate tuple or a shared violation clause — exactly when their
        selector variables are connected in the clause graph (tuples with
        producers in two groups get a presence variable whose Tseitin clauses
        merge them).  Component tuple universes are therefore disjoint, so
        the number of distinct worlds is the product of the per-component
        distinct sub-world counts.  Sub-counts are cached by a canonical
        component fingerprint, so isomorphic components (renamed copies of
        one sub-instance) are counted once.

        Returns ``None`` for variable-free instances (the enumeration
        fallback handles their single world).
        """
        encoding = self._complete_encoding()
        if encoding.trivially_unsat:
            return 0
        if not encoding.variables:
            return None

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

        for clause in encoding.clauses:
            first = abs(clause[0])
            for lit in clause[1:]:
                union(first, abs(lit))

        # Group the c-instance variables by the component of their selectors
        # (the exactly-one clauses keep one variable's selectors together).
        groups: dict[int, list[int]] = {}
        for position, variable in enumerate(encoding.variables):
            first_value = encoding.pools[variable][0]
            root = find(encoding.selector[(variable, first_value)])
            groups.setdefault(root, []).append(position)

        component_clauses: dict[int, list[tuple[int, ...]]] = {
            root: [] for root in groups
        }
        for clause in encoding.clauses:
            # Every clause reaches some selector through the Tseitin
            # definitions, so its root is always a selector group's root.
            component_clauses[find(abs(clause[0]))].append(clause)

        producers_of: dict[int, list[tuple[tuple[int, ...], ...]]] = {
            root: [] for root in groups
        }
        for key in sorted(encoding.producers, key=repr):
            conjunctions = encoding.producers[key]
            producers_of[find(conjunctions[0][0])].append(conjunctions)

        self.stats.components = len(groups)
        total = 1
        for root, positions in sorted(groups.items(), key=lambda kv: kv[1][0]):
            fingerprint = self._component_fingerprint(
                encoding, positions, component_clauses[root], producers_of[root]
            )
            cached = self._component_cache.get(fingerprint)
            if cached is not None:
                self.stats.component_cache_hits += 1
                total *= cached
                continue
            count = self._count_component(
                encoding, positions, component_clauses[root], producers_of[root]
            )
            self._component_cache[fingerprint] = count
            total *= count
            if total == 0:
                break
        return total

    @staticmethod
    def _component_fingerprint(
        encoding: WorldEncoding,
        positions: Sequence[int],
        clauses: Sequence[tuple[int, ...]],
        producers: Sequence[tuple[tuple[int, ...], ...]],
    ) -> object:
        """A canonical form identifying a component up to variable renaming.

        Encoding variables are renamed 1..n — selectors first (c-instance
        variable order × pool order), auxiliaries by first occurrence in the
        clause walk — so two components that are renamed copies of the same
        sub-instance hash equal.  The canonical clause list is then sorted
        (literals within each clause too): violation clauses arrive in
        match-enumeration order, which differs between otherwise identical
        components, and clause order carries no meaning for the count.  The
        producer structure (which renamed conjunctions yield one candidate
        tuple) joins the clause list in the fingerprint because the
        sub-count is over distinct *tuple sets*, not distinct models.
        """
        rename: dict[int, int] = {}
        pool_sizes: list[int] = []
        for position in positions:
            variable = encoding.variables[position]
            pool = encoding.pools[variable]
            pool_sizes.append(len(pool))
            for value in pool:
                rename[encoding.selector[(variable, value)]] = len(rename) + 1
        canonical_clauses = []
        for clause in clauses:
            renamed = []
            for lit in clause:
                var = abs(lit)
                mapped = rename.get(var)
                if mapped is None:
                    mapped = len(rename) + 1
                    rename[var] = mapped
                renamed.append(mapped if lit > 0 else -mapped)
            canonical_clauses.append(tuple(sorted(renamed)))
        canonical_clauses.sort()
        producer_signatures = sorted(
            tuple(
                sorted(
                    tuple(rename[lit] for lit in conjunction)
                    for conjunction in conjunctions
                )
            )
            for conjunctions in producers
        )
        return (
            tuple(pool_sizes),
            tuple(canonical_clauses),
            tuple(producer_signatures),
        )

    def _count_component(
        self,
        encoding: WorldEncoding,
        positions: Sequence[int],
        clauses: Sequence[tuple[int, ...]],
        producers: Sequence[tuple[tuple[int, ...], ...]],
    ) -> int:
        """Distinct sub-worlds (candidate-tuple subsets) of one component."""
        scope = [
            encoding.selector[(variable, value)]
            for variable in (encoding.variables[p] for p in positions)
            for value in encoding.pools[variable]
        ]
        solver = self._solver_for_component(clauses)
        sub_worlds: set[frozenset[int]] = set()
        for model in solver.enumerate_models(project_onto=scope):
            produced = frozenset(
                index
                for index, conjunctions in enumerate(producers)
                if any(
                    all(model.get(lit, False) for lit in conjunction)
                    for conjunction in conjunctions
                )
            )
            sub_worlds.add(produced)
        return len(sub_worlds)

    def _solver_for_component(
        self, clauses: Sequence[tuple[int, ...]]
    ) -> DPLLSolver:
        if self.stats.solver is None:
            self.stats.solver = SolverStats()
        return DPLLSolver(clauses, stats=self.stats.solver)


class IncrementalSATSession:
    """A SAT search that outlives a stream of ground-tuple updates.

    Owned by the :class:`repro.api.Database` facade (one per facade when the
    effective engine supports it): instead of re-encoding and re-solving from
    scratch after every :meth:`~repro.api.Database.update`, the session keeps

    * an :class:`~repro.search.cnf_encoding.IncrementalEncoder`, whose clause
      set only ever grows (guards express drops through assumptions) and
      holds no clause for a match no world can contain, and
    * one **live DPLL solver** fed the new clauses before each existence
      check and solved under the current guard assumptions, so learned
      clauses, activities and saved phases accumulate across the whole
      update stream (``reused_solver`` in the stats reports the reuse).

    Existence checks and witnesses (:meth:`has_world`, :meth:`first_world`)
    use the live solver.  Model *enumeration* adds blocking clauses, which
    are valuation-specific and would poison a solver that must stay sound
    for later calls, so :meth:`search` / :meth:`count_worlds` spin up a
    throwaway solver over the live clause list plus the current assumptions
    as unit clauses (still skipping the re-encode).  All solvers share the
    ``stats.solver`` ledger; ``worlds`` and ``duplicate_worlds`` describe the
    most recent call.

    Calls on one session are serialised by :attr:`lock`, which
    :meth:`has_world`, :meth:`first_world`, :meth:`count_worlds` and
    :meth:`apply` hold; a caller that reads :attr:`stats` after a call from
    another thread holds it across both.  :meth:`search` is a generator and
    takes no lock.

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
        self._solver = DPLLSolver()
        self._solved_live = False
        self._fed = 0
        self.lock = threading.RLock()
        self.stats = SATSearchStats(
            encoding=self._encoder.encoding.stats, solver=self._solver.stats
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
        clauses = encoding.clauses
        while self._fed < len(clauses):
            self._solver.add_clause(clauses[self._fed])
            self._fed += 1
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

    def _session_models(self) -> Iterator[Valuation]:
        """Enumerate the models on a throwaway solver.

        Enumeration must not touch the live solver: its blocking clauses are
        sound only for the instance state they were generated under.  The
        throwaway solver starts from the live clauses plus the current
        assumptions as unit clauses and books its work on the session's
        ``stats.solver`` ledger.
        """
        self.stats.worlds = self.stats.duplicate_worlds = 0
        self.stats.reused_solver = False
        encoding = self._encoder.encoding
        if encoding.trivially_unsat:
            return
        solver = DPLLSolver(encoding.clauses, stats=self.stats.solver)
        for literal in self._encoder.assumptions():
            solver.add_clause((literal,))
        yield from iter_solver_models(encoding, solver)

    def search(self) -> Iterator[tuple[Valuation, GroundInstance]]:
        """Enumerate ``(µ, µ(T))`` for the *current* instance state."""
        cinstance = self._cinstance
        for valuation in self._session_models():
            self.stats.worlds += 1
            yield valuation, cinstance.apply(valuation)

    def __iter__(self) -> Iterator[tuple[Valuation, GroundInstance]]:
        return self.search()

    def worlds(self, deduplicate: bool = True) -> Iterator[GroundInstance]:
        """Enumerate the worlds, suppressing duplicates by canonical form."""
        seen: set[tuple[frozenset[Row], ...]] = set()
        for _valuation, world in self.search():
            if deduplicate:
                key = world_key(world)
                if key in seen:
                    self.stats.duplicate_worlds += 1
                    continue
                seen.add(key)
            yield world

    def count_worlds(self) -> int:
        """Count distinct worlds natively (canonical forms, no instances)."""
        with self.lock:
            return self._count_worlds()

    def _count_worlds(self) -> int:
        names = list(self._cinstance.schema.relation_names)
        rows = [(name, row) for name, _index, row in self._cinstance.rows()]
        seen: set[tuple[frozenset[Row], ...]] = set()
        for valuation in self._session_models():
            self.stats.worlds += 1
            facts: dict[str, set[Row]] = {name: set() for name in names}
            for name, row in rows:
                ground = row.apply(valuation)
                if ground is not None:
                    facts[name].add(ground)
            key = tuple(frozenset(facts[name]) for name in names)
            if key in seen:
                self.stats.duplicate_worlds += 1
            else:
                seen.add(key)
        return len(seen)
