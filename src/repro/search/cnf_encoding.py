"""CNF encoding of ``Mod_Adom(T, D_m, V)`` membership.

The paper's lower bounds reduce quantified SAT *to* the completeness
problems; this module runs the connection the other way, encoding the
valuation search itself as propositional satisfiability so the DPLL solver
(:mod:`repro.reductions.dpll`) can decide it.  Every model of the produced
formula projects onto one valuation ``µ`` over the active domain with
``(µ(T), D_m) |= V``, and every such valuation extends to a model.

One encoder, :class:`IncrementalEncoder`, serves both SAT paths: the live
session the :class:`repro.api.Database` facade keeps across updates, and the
one-shot :func:`encode_world_search` behind ``engine="sat"``.  Its formula
has four layers:

**Selector variables.**  For every c-instance variable ``x`` and every value
``a`` of its candidate pool (the active domain, narrowed by finite attribute
domains) a selector ``s[x=a]`` states "``µ(x) = a``".  Exactly-one
constraints per variable — an at-least-one clause plus pairwise at-most-one
clauses — make total assignments of the selectors exactly the Adom
valuations.  Cells of the c-table sharing a variable share its selectors.

**Presence variables.**  A variable row grounds to one tuple per assignment
of its variables (terms *and* local condition) whose condition holds;
assignments falsifying the condition drop the row and produce nothing.
Every grounding emits one clause ``s[x=a] ∧ s[y=b] ∧ ... → p[R,t]`` for the
presence variable of the tuple it produces.

**Guards.**  Every fully ground tuple gets a guard literal ``g[R,t]``
implying its presence (or serving as it, when no variable row produces the
tuple).  The one-shot entry asserts every guard as a unit clause; the live
session passes them as solver assumptions, so a drop or re-add touches no
clause.

**Violation clauses.**  A containment constraint ``q ⊆ p(D_m)`` is violated
by a world iff some match of ``q``'s body onto the world's tuples produces a
head row outside the (fixed) master answer.  For each such match over the
candidate tuples that some world can hold, the encoding emits ::

    ¬p[R₁,t₁] ∨ ... ∨ ¬p[Rₖ,tₖ]     ("not all of these tuples together")

A match over ground tuples alone yields a clause of negated guards, which the
asserted guards refute at decision level 0.

A blocking clause over the selectors excludes a valuation together with
every completion of its presence variables, so enumerating models with
selector-only blocking clauses yields each valuation exactly once.  A
blocking clause may also name the selectors of only some variables: it then
excludes the whole cube of valuations that agree with the model there.  The
world counts of :mod:`repro.search.sat_engine` block the variables a world
depends on and weight each model by the size of its cube.

**Invariant: the selectors are the only decisions.**  Every variable that is
not a selector is

* a guard, or an activation literal a consumer allocates with
  :meth:`IncrementalEncoder.fresh_activation` — either way assigned before
  any branching, as an assumption or a unit clause — or
* a presence literal, which occurs positively only in its producer clauses
  and negatively everywhere else.

So once the selectors and guards are set, unit propagation either conflicts
or leaves a model whose unassigned literals may all be ``False``: every
producer clause with an unassigned presence literal already has a true
negated selector or guard, and every other clause holds presence literals
only negatively.  Learned clauses are entailed, so that completion satisfies
them too.  This is why the solvers branch on the selectors alone (the
``decisions`` of :class:`~repro.reductions.dpll.DPLLSolver`): a model
decides nothing the valuation does not.

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
    presence_variables: int = 0
    clauses: int = 0
    candidate_tuples: int = 0
    baseline_tuples: int = 0
    blocked_matches: int = 0


@dataclass
class WorldEncoding:
    """The CNF encoding of ``Mod_Adom(T, D_m, V)`` membership.

    Built by :class:`IncrementalEncoder` (one-shot: :func:`encode_world_search`).
    ``clauses`` is ready for :class:`repro.reductions.dpll.DPLLSolver`;
    :meth:`decode` turns a model back into a valuation and
    :meth:`selector_scope` lists the variables to project model enumeration
    onto.
    """

    variables: tuple[Variable, ...]
    pools: Mapping[Variable, Sequence[Constant]]
    selector: Mapping[tuple[Variable, Constant], int]
    clauses: list[tuple[int, ...]]
    trivially_unsat: bool
    stats: EncodingStats = field(default_factory=EncodingStats)

    def selector_scope(
        self, variables: Sequence[Variable] | None = None
    ) -> list[int]:
        """Selector identifiers of ``variables`` (default: all), in order.

        Blocking models on this scope enumerates each valuation exactly
        once, whatever the solver picks for the presence variables.
        """
        return [
            self.selector[(variable, value)]
            for variable in (self.variables if variables is None else variables)
            for value in self.pools[variable]
        ]

    def decode(
        self,
        model: Mapping[int, bool],
        variables: Sequence[Variable] | None = None,
    ) -> Valuation:
        """The valuation of ``variables`` (default: all) a model encodes."""
        valuation: Valuation = {}
        for variable in self.variables if variables is None else variables:
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
        """A clause excluding every valuation that agrees with ``valuation``
        on the variables it assigns: exactly that valuation when it assigns
        every variable."""
        return tuple(
            -self.selector[(variable, value)] for variable, value in valuation.items()
        )


def encode_world_search(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None = None,
    checker: ConstraintChecker | None = None,
) -> WorldEncoding:
    """Encode ``Mod_Adom(T, D_m, V)`` membership as CNF, once.

    The one-shot entry to :class:`IncrementalEncoder`: every ground tuple's
    guard is appended as a unit clause, so the clause list alone decides the
    instance and no assumptions are needed.  ``checker`` may supply
    precomputed constraint right-hand sides (shared with the propagating
    engine); they are evaluated from ``(master, constraints)`` otherwise.
    """
    encoder = IncrementalEncoder(cinstance, master, constraints, adom, checker)
    encoding = encoder.encoding
    encoding.clauses.extend((guard,) for guard in encoder.assumptions())
    encoding.stats.clauses = len(encoding.clauses)
    return encoding


class IncrementalEncoder:
    """The one CNF encoder: a :class:`WorldEncoding` absorbing ground updates.

    Both SAT paths build their formula here.  Every ground tuple gets a
    **guard literal** ``g[R,t]`` and the tuple's presence stays conditional
    on it, so a change to the ground rows never forces a re-encode:

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
    before each solve, and :func:`encode_world_search` asserts the guards of
    a fresh encoder as unit clauses.  Variable rows, the active domain and
    the candidate pools are fixed at construction — changes to any of those
    are rebuild events, which the owner
    (:class:`repro.search.sat_engine.IncrementalSATSession` via
    :meth:`repro.api.Database.update`) detects and answers with a fresh
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
        if checker is not None:
            self._entries = checker.entries
        else:
            # Only the right-hand sides are needed, not a checker's plans.
            self._entries = [
                (
                    constraint,
                    frozenset(constraint.query.relation_names()),
                    constraint.right_answer(master),
                )
                for constraint in constraints
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

        # --- selectors and exactly-one clauses ------------------------------
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
            if ground is not None and (name, ground) not in self._guards:
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

    def fresh_activation(self) -> int:
        """A variable no clause of the encoding mentions, for an activation
        literal: its consumer assumes it and adds only its negation to the
        clauses it keeps for itself (see the module invariant)."""
        return self._fresh()

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
    encoding: WorldEncoding,
    solver: DPLLSolver,
    assumptions: Sequence[int] = (),
    activation: int | None = None,
) -> Iterator[Valuation]:
    """Enumerate the valuations satisfying the encoding.

    This is the solve → decode → block loop of both SAT paths' ``search()``
    (:meth:`repro.search.sat_engine.SATWorldSearch.search` and the live
    session's).  Each satisfying valuation is yielded exactly once: its
    blocking clause (one negated selector literal per c-instance variable)
    is added before re-solving, and it excludes every completion of the
    valuation's presence variables.  The solver absorbs each blocking clause
    by backjumping, so one enumeration is one search resumed after every
    model.

    ``solver`` must hold ``encoding.clauses`` and decide at least the
    selectors.  The search runs under ``assumptions``.  With ``activation``
    (from :meth:`IncrementalEncoder.fresh_activation`) it also runs under
    that literal, every blocking clause carries its negation, and the solver
    retires it when the enumeration ends or is abandoned, so a reused
    solver keeps no blocking clause of this enumeration.
    """
    if encoding.trivially_unsat:
        return
    assumed = list(assumptions)
    carried: tuple[int, ...] = ()
    if activation is not None:
        assumed.append(activation)
        carried = (-activation,)
    try:
        while True:
            model = solver.solve(assumed)
            if model is None:
                return
            valuation = encoding.decode(model)
            yield valuation
            blocking = encoding.blocking_clause(valuation)
            if not blocking:
                return  # no variables: the single empty valuation is it
            solver.add_clause(blocking + carried)
    finally:
        if activation is not None:
            solver.retire(activation)
