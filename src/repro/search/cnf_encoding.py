"""CNF encoding of ``Mod_Adom(T, D_m, V)`` membership.

The paper's lower bounds reduce quantified SAT *to* the completeness
problems; this module runs the connection the other way, encoding the
valuation search itself as propositional satisfiability so the DPLL solver
(:mod:`repro.reductions.dpll`) can decide it.  A satisfying assignment of the
produced formula corresponds one-to-one to a valuation ``µ`` over the active
domain with ``(µ(T), D_m) |= V``.

The encoding has three layers:

**Selector variables.**  For every c-instance variable ``x`` and every value
``a`` of its candidate pool (the active domain, narrowed by finite attribute
domains) a selector ``s[x=a]`` states "``µ(x) = a``".  Exactly-one
constraints per variable — an at-least-one clause plus pairwise at-most-one
clauses — make total assignments of the selectors exactly the Adom
valuations.  Cells of the c-table sharing a variable share its selectors.

**Tuple-presence variables.**  Every c-table row can only ground to finitely
many tuples: one per assignment of the row's variables (terms *and* local
condition) whose condition evaluates to true — assignments falsifying the
condition simply drop the row, so they produce no grounding.  For each
possible tuple ``t`` of relation ``R`` a variable ``p[R,t]`` is defined by a
Tseitin-style equivalence with the groundings that produce it::

    p[R,t]  ↔  g₁ ∨ g₂ ∨ ...        gᵢ ↔ s[x=a] ∧ s[y=b] ∧ ...

where each ``gᵢ`` stands for one (row, assignment) pair.  Tuples contributed
by fully ground rows (no variables, condition true) are *baseline* facts —
present in every world — and need no variable at all.  Because the auxiliary
``g``/``p`` variables are functionally determined by the selectors, models
project one-to-one onto valuations: enumerating models with selector-only
blocking clauses enumerates valuations without duplicates.

**Constraint clauses.**  A containment constraint ``q ⊆ p(D_m)`` is violated
by a world iff some match of ``q``'s body onto the world's tuples produces a
head row outside the (fixed) master answer.  The worlds' tuples all come from
the candidate universe above, so every potential violation is a match of
``q`` onto the universe; for each such match with an uncovered head the
encoding emits the clause ::

    ¬p[R₁,t₁] ∨ ... ∨ ¬p[Rₖ,tₖ]     ("not all of these tuples together")

over the presence variables of the matched tuples (baseline facts contribute
no literal — they are always present).  A violating match consisting solely
of baseline facts makes the instance trivially inconsistent.

Conditions, equalities and inequalities are therefore handled *natively*:
row conditions vanish into the grounding step, and the ``=``/``≠``
comparisons of the constraint queries are evaluated once, during clause
generation, instead of once per explored world — this is what lets the SAT
engine open up the inequality-heavy instances the monotone-CC pruner of
:mod:`repro.search.engine` cannot prune.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.reductions.dpll import DPLLSolver

from repro.constraints.containment import ContainmentConstraint
from repro.ctables.adom import ActiveDomain, variable_pools
from repro.ctables.cinstance import CInstance
from repro.ctables.valuation import Valuation, enumerate_assignments
from repro.exceptions import SearchError
from repro.queries.atoms import Comparison, RelationAtom
from repro.queries.evaluation import (
    finalize_assignment,
    instantiate_head,
    match_atom,
    match_conjunction,
)
from repro.queries.terms import Variable
from repro.relational.domains import Constant
from repro.relational.instance import Row
from repro.relational.master import MasterData
from repro.search.propagation import ConstraintChecker


@dataclass
class EncodingStats:
    """Size counters for one :class:`WorldEncoding` build."""

    selector_variables: int = 0
    grounding_variables: int = 0
    presence_variables: int = 0
    clauses: int = 0
    candidate_tuples: int = 0
    baseline_tuples: int = 0
    blocked_matches: int = 0
    #: Violation clauses were deferred to a CEGAR loop (lazy encoding).
    lazy: bool = False
    #: Counter-example rounds run against this encoding (CEGAR refinement).
    cegar_rounds: int = 0


@dataclass
class WorldEncoding:
    """The CNF encoding of ``Mod_Adom(T, D_m, V)`` membership.

    Build with :func:`encode_world_search`.  ``clauses`` is ready for
    :class:`repro.reductions.dpll.DPLLSolver`; :meth:`decode` turns a model
    back into a valuation and :meth:`selector_scope` lists the variables to
    project model enumeration onto.
    """

    variables: tuple[Variable, ...]
    pools: Mapping[Variable, Sequence[Constant]]
    selector: Mapping[tuple[Variable, Constant], int]
    clauses: list[tuple[int, ...]]
    trivially_unsat: bool
    stats: EncodingStats = field(default_factory=EncodingStats)
    #: Presence literal per candidate tuple (consumed by the CEGAR oracle
    #: and the component counter; empty for encoders that predate them).
    presence: Mapping[tuple[str, Row], int] = field(default_factory=dict)
    #: Tuples present in every world, per relation (from fully ground rows).
    baseline: Mapping[str, frozenset[Row]] = field(default_factory=dict)
    #: Selector-conjunction producers per candidate tuple.
    producers: Mapping[tuple[str, Row], tuple[tuple[int, ...], ...]] = field(
        default_factory=dict
    )

    def selector_scope(self) -> list[int]:
        """Selector variable identifiers, in deterministic order.

        Auxiliary grounding/presence variables are functionally determined by
        the selectors, so blocking models on this scope enumerates each
        valuation exactly once.
        """
        return [
            self.selector[(variable, value)]
            for variable in self.variables
            for value in self.pools[variable]
        ]

    def decode(self, model: Mapping[int, bool]) -> Valuation:
        """The valuation a satisfying assignment encodes."""
        valuation: Valuation = {}
        for variable in self.variables:
            for value in self.pools[variable]:
                if model.get(self.selector[(variable, value)]):
                    valuation[variable] = value
                    break
            else:
                raise SearchError(
                    f"model assigns no value to variable {variable!r}; "
                    "the exactly-one constraints were violated"
                )
        return valuation

    def blocking_clause(self, valuation: Mapping[Variable, Constant]) -> tuple[int, ...]:
        """A clause excluding exactly the given valuation."""
        return tuple(
            -self.selector[(variable, valuation[variable])]
            for variable in self.variables
        )


def encode_world_search(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    checker: ConstraintChecker | None = None,
    *,
    lazy_violations: bool = False,
) -> WorldEncoding:
    """Encode ``Mod_Adom(T, D_m, V)`` membership as CNF.

    ``checker`` may supply precomputed constraint right-hand sides (shared
    with the propagating engine); one is built from ``(master, constraints)``
    otherwise.

    With ``lazy_violations`` the constraint-violation clauses are omitted:
    models of the abstraction then over-approximate the valuation set, and a
    :class:`LazyViolationOracle` refutes invalid candidates one counter-example
    round at a time (CEGAR).  Deferring the violation pass skips the full
    ``match_conjunction`` join over the candidate universe, which dominates
    encoding time on wide all-variable rows.
    """
    if adom is None:
        from repro.ctables.possible_worlds import default_active_domain

        adom = default_active_domain(cinstance, master, constraints)
    checker = checker or ConstraintChecker(master, constraints)

    variables = tuple(sorted(cinstance.variables(), key=lambda v: v.name))
    pools = variable_pools(variables, adom, cinstance.variable_domains())

    stats = EncodingStats(lazy=lazy_violations)
    clauses: list[tuple[int, ...]] = []
    counter = 0

    def fresh_variable() -> int:
        nonlocal counter
        counter += 1
        return counter

    # --- selector variables and exactly-one constraints -------------------
    selector: dict[tuple[Variable, Constant], int] = {}
    for variable in variables:
        pool = pools[variable]
        ids = []
        for value in pool:
            selector[(variable, value)] = fresh_variable()
            ids.append(selector[(variable, value)])
        stats.selector_variables += len(ids)
        if not ids:
            # An empty pool (e.g. an empty finite-domain intersection) admits
            # no valuation at all.
            stats.clauses = len(clauses)
            return WorldEncoding(
                variables=variables,
                pools=pools,
                selector=selector,
                clauses=clauses,
                trivially_unsat=True,
                stats=stats,
            )
        clauses.append(tuple(ids))
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                clauses.append((-ids[i], -ids[j]))

    # --- row groundings and tuple-presence variables -----------------------
    # baseline[name]: tuples present in every world (from fully ground rows).
    # producers[(name, tuple)]: conjunctions of selector literals, one per
    # (row, assignment) grounding producing the tuple.
    baseline: dict[str, set[Row]] = {
        name: set() for name in cinstance.schema.relation_names
    }
    producers: dict[tuple[str, Row], list[tuple[int, ...]]] = {}
    for name, _index, row in cinstance.rows():
        row_variables = sorted(row.variables(), key=lambda v: v.name)
        if not row_variables:
            ground = row.apply({})
            if ground is not None:
                baseline[name].add(ground)
            continue
        row_pools = {variable: pools[variable] for variable in row_variables}
        for assignment in enumerate_assignments(row_pools):
            ground = row.apply(assignment)
            if ground is None:
                continue  # local condition falsified: the row drops out
            conjunction = tuple(
                selector[(variable, assignment[variable])]
                for variable in row_variables
            )
            producers.setdefault((name, ground), []).append(conjunction)

    # Tuples that are baseline facts need no presence variable; their other
    # producers are irrelevant (the tuple is present regardless).
    for (name, ground) in list(producers):
        if ground in baseline[name]:
            del producers[(name, ground)]

    stats.baseline_tuples = sum(len(rows) for rows in baseline.values())
    stats.candidate_tuples = stats.baseline_tuples + len(producers)

    # Tseitin definitions: g ↔ conjunction (cached across tuples), p ↔ ∨ g.
    grounding_variable: dict[tuple[int, ...], int] = {}

    def literal_for_conjunction(conjunction: tuple[int, ...]) -> int:
        if len(conjunction) == 1:
            return conjunction[0]
        cached = grounding_variable.get(conjunction)
        if cached is not None:
            return cached
        g = fresh_variable()
        grounding_variable[conjunction] = g
        stats.grounding_variables += 1
        for lit in conjunction:
            clauses.append((-g, lit))
        clauses.append(tuple(-lit for lit in conjunction) + (g,))
        return g

    presence: dict[tuple[str, Row], int] = {}
    for key in sorted(producers, key=repr):
        conjunctions = producers[key]
        if len(conjunctions) == 1:
            # A single producer: its grounding literal *is* the presence
            # variable (for one-variable rows, the selector literal itself).
            presence[key] = literal_for_conjunction(conjunctions[0])
            continue
        p = fresh_variable()
        stats.presence_variables += 1
        presence[key] = p
        disjuncts = [literal_for_conjunction(c) for c in conjunctions]
        for g in disjuncts:
            clauses.append((-g, p))
        clauses.append((-p,) + tuple(disjuncts))

    # --- constraint violation clauses --------------------------------------
    trivially_unsat = False
    if not lazy_violations:
        # The candidate universe: everything any world could contain.
        universe: dict[str, frozenset[Row]] = {}
        for name in cinstance.schema.relation_names:
            rows = set(baseline[name])
            rows.update(ground for (rel, ground) in producers if rel == name)
            universe[name] = frozenset(rows)

        blocked: set[tuple[int, ...]] = set()
        for constraint, _relations, rhs in checker.entries:
            query = constraint.query
            for match in match_conjunction(query.atoms, query.comparisons, universe):
                head = instantiate_head(query.head, match)
                if head in rhs:
                    continue
                stats.blocked_matches += 1
                literals: set[int] = set()
                baseline_only = True
                for atom in query.atoms:
                    ground = tuple(
                        match[term] if isinstance(term, Variable) else term
                        for term in atom.terms
                    )
                    if ground in baseline[atom.relation]:
                        continue  # always present: contributes no literal
                    baseline_only = False
                    literals.add(-presence[(atom.relation, ground)])
                if baseline_only:
                    # The fixed part of the c-instance already violates the
                    # constraint: no valuation can repair it.
                    trivially_unsat = True
                    break
                clause = tuple(sorted(literals))
                if clause not in blocked:
                    blocked.add(clause)
                    clauses.append(clause)
            if trivially_unsat:
                break

    stats.clauses = len(clauses)
    return WorldEncoding(
        variables=variables,
        pools=pools,
        selector=selector,
        clauses=clauses,
        trivially_unsat=trivially_unsat,
        stats=stats,
        presence=presence,
        baseline={name: frozenset(rows) for name, rows in baseline.items()},
        producers={key: tuple(value) for key, value in producers.items()},
    )


class LazyViolationOracle:
    """CEGAR counter-example oracle for a lazily encoded world search.

    Built over a :func:`encode_world_search` result (typically one produced
    with ``lazy_violations=True``).  :meth:`refute` takes the facts of a
    candidate world — the c-instance grounded by a decoded valuation — and
    emits the violation clauses for every uncovered constraint match over
    those facts.  Each emitted clause is falsified by the candidate model
    (its tuples are all present), so feeding the clauses back and re-solving
    makes strict progress; a fixpoint with no new clauses certifies the
    candidate as a real world.
    """

    def __init__(self, encoding: WorldEncoding, checker: ConstraintChecker) -> None:
        self._encoding = encoding
        self._entries = list(checker.entries)
        self._blocked: set[tuple[int, ...]] = set()

    def refute(
        self, facts: Mapping[str, Any]
    ) -> list[tuple[int, ...]] | None:
        """Violation clauses refuting a candidate world.

        Returns the newly added clauses (empty when the candidate satisfies
        every constraint, i.e. it is a genuine world), or ``None`` when a
        violated match consists solely of baseline facts — then no valuation
        can repair the instance and the encoding is marked trivially unsat.
        """
        encoding = self._encoding
        new_clauses: list[tuple[int, ...]] = []
        for constraint, _relations, rhs in self._entries:
            query = constraint.query
            for match in match_conjunction(query.atoms, query.comparisons, facts):
                head = instantiate_head(query.head, match)
                if head in rhs:
                    continue
                encoding.stats.blocked_matches += 1
                literals: set[int] = set()
                baseline_only = True
                for atom in query.atoms:
                    ground = tuple(
                        match[term] if isinstance(term, Variable) else term
                        for term in atom.terms
                    )
                    if ground in encoding.baseline.get(atom.relation, frozenset()):
                        continue  # always present: contributes no literal
                    baseline_only = False
                    literals.add(-encoding.presence[(atom.relation, ground)])
                if baseline_only:
                    # The fixed part of the c-instance already violates the
                    # constraint: no valuation can repair it.
                    encoding.trivially_unsat = True
                    encoding.stats.clauses = len(encoding.clauses)
                    return None
                clause = tuple(sorted(literals))
                if clause not in self._blocked:
                    self._blocked.add(clause)
                    encoding.clauses.append(clause)
                    new_clauses.append(clause)
        encoding.stats.clauses = len(encoding.clauses)
        return new_clauses


class IncrementalEncoder:
    """A :class:`WorldEncoding` that absorbs ground-tuple adds and drops.

    The one-shot :func:`encode_world_search` hard-wires the fully ground rows
    into the clauses (baseline facts contribute no literal), so any change to
    the instance forces a re-encode.  This encoder instead gives every ground
    tuple a **guard literal** ``g[R,t]`` and keeps the tuple's presence
    conditional on it:

    * presence definitions are *one-directional* — for every producer of a
      tuple (a guard, or a selector conjunction grounding a variable row) one
      clause ``producer → p[R,t]`` is emitted.  Presence literals occur only
      negatively in the violation clauses, so the missing direction can never
      flip a verdict: a model may set an unproduced ``p`` spuriously true,
      which only *removes* satisfying assignments that another completion of
      the same valuation still has, and a false ``p`` still implies every
      producer is false.  One-directional definitions are what make the
      clause set **monotone**: a new producer is one new clause, with nothing
      to retract;
    * whether a ground tuple is currently in the instance is expressed per
      call through :meth:`assumptions` (``+g`` if present, ``-g`` if
      dropped), not through clauses, so drops and re-adds touch no clause at
      all;
    * violation clauses come from a join over the universe of every tuple
      ever registered — dropped tuples included, since their clauses are
      neutralised by their guards — once at construction, and then
      semi-naively for each new ground tuple: only the matches that use the
      new tuple at least once are joined (each LHS atom over the relation is
      seeded with it in turn, exactly like the delta checker of
      :mod:`repro.search.propagation`);
    * the join skips every match that no world can hold.  A variable row
      grounds to exactly one tuple per valuation, so two different tuples
      whose only producer is the same variable row never occur together;
      a match that uses both needs no clause.  On the paper's Figure 1 plus
      Bob's 2000 visit the functional dependency would otherwise pair every
      two groundings of the one variable row (about 45,000 clauses instead
      of about 900).

    The growing clause list lives in :attr:`encoding` (a plain
    :class:`WorldEncoding`, so decode/blocking/projection are shared);
    consumers that keep a live solver feed themselves ``clauses[cursor:]``
    before each solve.  Variable rows, the active domain and the candidate
    pools are fixed at construction — changes to any of those are rebuild
    events, which the owner (:class:`repro.search.sat_engine.IncrementalSATSession`
    via :meth:`repro.api.Database.update`) detects and answers with a fresh
    encoder.
    """

    def __init__(
        self,
        cinstance: CInstance,
        master: MasterData,
        constraints: Sequence[ContainmentConstraint],
        adom: ActiveDomain | None = None,
        checker: ConstraintChecker | None = None,
    ) -> None:
        if adom is None:
            from repro.ctables.possible_worlds import default_active_domain

            adom = default_active_domain(cinstance, master, constraints)
        checker = checker or ConstraintChecker(master, constraints)
        self._entries = [
            (constraint, relations, rhs)
            for constraint, relations, rhs in checker.entries
        ]

        variables = tuple(sorted(cinstance.variables(), key=lambda v: v.name))
        pools = variable_pools(variables, adom, cinstance.variable_domains())

        stats = EncodingStats()
        clauses: list[tuple[int, ...]] = []
        self._counter = 0
        self.encoding = WorldEncoding(
            variables=variables,
            pools=pools,
            selector={},
            clauses=clauses,
            trivially_unsat=False,
            stats=stats,
        )

        # guard literal per registered ground tuple; activity drives the
        # per-call assumptions, never the clause set.
        self._guards: dict[tuple[str, Row], int] = {}
        self._active: set[tuple[str, Row]] = set()
        # presence literal per candidate tuple (aliased to the guard for
        # tuples no variable row can produce).
        self._presence: dict[tuple[str, Row], int] = {}
        # every tuple ever registered, dropped or not — the join universe
        # (guards neutralise the clauses of inactive tuples) — split by
        # producer: under a variable row's position for the tuples only that
        # row produces, under None for the rest.
        self._universe: dict[str, dict[int | None, set[Row]]] = {
            name: {None: set()} for name in cinstance.schema.relation_names
        }
        self._owner: dict[tuple[str, Row], int | None] = {}
        self._blocked: set[tuple[int, ...]] = set()

        # --- selectors and exactly-one clauses (as in the one-shot path) ---
        selector = self.encoding.selector
        assert isinstance(selector, dict)
        for variable in variables:
            ids = []
            for value in pools[variable]:
                selector[(variable, value)] = self._fresh()
                ids.append(selector[(variable, value)])
            stats.selector_variables += len(ids)
            if not ids:
                # an empty candidate pool admits no valuation at all
                self.encoding.trivially_unsat = True
                return
            clauses.append(tuple(ids))
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    clauses.append((-ids[i], -ids[j]))

        # --- variable-row groundings: one-directional presence producers ---
        for position, (name, _index, row) in enumerate(cinstance.rows()):
            row_variables = sorted(row.variables(), key=lambda v: v.name)
            if not row_variables:
                continue  # ground rows are registered below, guarded
            row_pools = {variable: pools[variable] for variable in row_variables}
            for assignment in enumerate_assignments(row_pools):
                ground = row.apply(assignment)
                if ground is None:
                    continue  # local condition falsified: the row drops out
                key = (name, ground)
                p = self._presence.get(key)
                if p is None:
                    p = self._fresh()
                    stats.presence_variables += 1
                    self._presence[key] = p
                    self._owner[key] = position
                    self._universe[name].setdefault(position, set()).add(ground)
                elif self._owner[key] != position:
                    self._share(name, ground)
                conjunction = tuple(
                    -selector[(variable, assignment[variable])]
                    for variable in row_variables
                )
                clauses.append(conjunction + (p,))

        # --- ground rows: guard producers ----------------------------------
        for name, _index, row in cinstance.rows():
            if row.variables():
                continue
            ground = row.apply({})
            if ground is not None:
                self._register_ground(name, ground)

        stats.baseline_tuples = len(self._guards)
        stats.candidate_tuples = len(self._owner)

        # --- violation clauses over the initial universe -------------------
        for constraint, _relations, rhs in self._entries:
            query = constraint.query
            for match in self._matches(query.atoms, query.comparisons, {}, {}):
                self._block_match(query, rhs, match)
        stats.clauses = len(clauses)

    # ------------------------------------------------------------------
    # literal allocation and clause helpers
    # ------------------------------------------------------------------
    def _fresh(self) -> int:
        self._counter += 1
        return self._counter

    def _block_match(
        self, query: Any, rhs: frozenset[Row], match: Mapping[Variable, Constant]
    ) -> None:
        """Emit the violation clause for one uncovered match, deduplicated."""
        head = instantiate_head(query.head, match)
        if head in rhs:
            return
        self.encoding.stats.blocked_matches += 1
        literals: set[int] = set()
        for atom in query.atoms:
            ground = tuple(
                match[term] if isinstance(term, Variable) else term
                for term in atom.terms
            )
            literals.add(-self._presence[(atom.relation, ground)])
        clause = tuple(sorted(literals))
        if clause not in self._blocked:
            self._blocked.add(clause)
            self.encoding.clauses.append(clause)

    def _share(self, relation: str, ground: Row) -> None:
        """Mark a tuple as produced by more than its one variable row."""
        key = (relation, ground)
        owner = self._owner.get(key)
        if owner is not None:
            self._universe[relation][owner].discard(ground)
        self._owner[key] = None
        self._universe[relation][None].add(ground)

    def _matches(
        self,
        atoms: Sequence[RelationAtom],
        comparisons: Sequence[Comparison],
        assignment: dict[Variable, Constant],
        claimed: dict[int, Row],
    ) -> Iterator[dict[Variable, Constant]]:
        """The matches of a constraint body that some world can hold.

        A backtracking join over the universe, like
        :func:`~repro.queries.evaluation.match_conjunction`, except that
        ``claimed`` maps every variable row the partial match already uses
        through a tuple only that row produces to that tuple: the row's
        other tuples are skipped, since one valuation grounds it only once.
        """
        if not atoms:
            completed = finalize_assignment(comparisons, assignment)
            if completed is not None:
                yield completed
            return
        atom, rest = atoms[0], atoms[1:]
        for owner, rows in self._universe[atom.relation].items():
            fixed = None if owner is None else claimed.get(owner)
            for row in rows if fixed is None else (fixed,):
                extended = match_atom(atom, row, assignment)
                if extended is None:
                    continue
                if owner is None or fixed is not None:
                    yield from self._matches(rest, comparisons, extended, claimed)
                    continue
                claimed[owner] = row
                yield from self._matches(rest, comparisons, extended, claimed)
                del claimed[owner]

    def _register_ground(self, relation: str, ground: Row) -> int:
        """Allocate the guard for a never-seen ground tuple; return it."""
        key = (relation, ground)
        guard = self._fresh()
        self._guards[key] = guard
        self._active.add(key)
        p = self._presence.get(key)
        if p is None:
            # no variable row can produce this tuple: the guard *is* the
            # presence literal (a dedicated p would only restate it)
            self._presence[key] = guard
        else:
            self.encoding.clauses.append((-guard, p))
        self._share(relation, ground)
        return guard

    # ------------------------------------------------------------------
    # incremental surface
    # ------------------------------------------------------------------
    def add_ground(self, relation: str, ground: Row) -> None:
        """Make a ground tuple present (re-activating or newly encoding it)."""
        key = (relation, ground)
        if key in self._guards:
            self._active.add(key)  # re-add: flip the assumption, no clauses
            return
        if self.encoding.trivially_unsat:
            # No valuation exists regardless of the instance contents (an
            # empty candidate pool); clause bookkeeping is moot.
            self._guards[key] = self._fresh()
            self._active.add(key)
            return
        self._register_ground(relation, ground)
        stats = self.encoding.stats
        stats.baseline_tuples = len(self._guards)
        stats.candidate_tuples = len(self._owner)
        # Semi-naive delta: every new violating match must use the new tuple
        # in at least one LHS atom over its relation; seed each such atom in
        # turn and join the rest over the full universe.
        for constraint, relations, rhs in self._entries:
            if relation not in relations:
                continue
            query = constraint.query
            for atom_index, atom in enumerate(query.atoms):
                if atom.relation != relation:
                    continue
                seed = match_atom(atom, ground, {})
                if seed is None:
                    continue
                rest = query.atoms[:atom_index] + query.atoms[atom_index + 1:]
                for match in self._matches(rest, query.comparisons, seed, {}):
                    self._block_match(query, rhs, match)
        stats.clauses = len(self.encoding.clauses)

    def drop_ground(self, relation: str, ground: Row) -> None:
        """Make a registered ground tuple absent (assumption flip only)."""
        key = (relation, ground)
        if key not in self._guards:
            raise SearchError(
                f"drop of unregistered ground tuple {ground!r} in {relation!r}"
            )
        self._active.discard(key)

    def assumptions(self) -> list[int]:
        """The guard literals expressing the current instance contents."""
        return [
            guard if key in self._active else -guard
            for key, guard in sorted(self._guards.items(), key=lambda item: item[1])
        ]


def iter_solver_models(
    encoding: WorldEncoding, solver: DPLLSolver | None = None
) -> Iterator[Valuation]:
    """Enumerate the valuations satisfying the encoding.

    This is the one solve → decode → block loop shared by the SAT engine
    (:meth:`repro.search.sat_engine.SATWorldSearch.search`) and the tests.
    Each satisfying valuation is yielded exactly once: its blocking clause
    (one negated selector literal per c-instance variable) is added before
    re-solving, and the auxiliary encoding variables are functionally
    determined by the selectors, so nothing is dropped or duplicated.
    ``solver`` may be supplied to observe its statistics; it must be fresh
    (built from ``encoding.clauses``).
    """
    from repro.reductions.dpll import DPLLSolver

    if encoding.trivially_unsat:
        return
    if solver is None:
        solver = DPLLSolver(encoding.clauses)
    while True:
        model = solver.solve()
        if model is None:
            return
        valuation = encoding.decode(model)
        yield valuation
        blocking = encoding.blocking_clause(valuation)
        if not blocking:
            return  # no variables: the single empty valuation is it
        solver.add_clause(blocking)
