"""The pluggable world-search engine registry.

Before this module existed, every engine was wired in by hand: adding one
meant growing string ``if/elif`` chains in
:mod:`repro.ctables.possible_worlds` *and* in the RCQP witness search.  The
registry replaces those chains with a single object model, in the spirit of
object registries in long-running server codebases: an engine is a
**name**, a **factory** and a set of declared **capabilities**, and
everything downstream (the :mod:`possible_worlds
<repro.ctables.possible_worlds>` front-ends, the deciders, the
:class:`repro.api.Database` facade) resolves engines through
:func:`get_engine` alone.

Third-party or experimental engines become drop-ins::

    from repro.search.registry import EngineCapabilities, register_engine

    register_engine(
        "my-engine",
        lambda cinstance, master, constraints, adom, *, checker,
               break_symmetry, **options: MySearch(...),
        capabilities=EngineCapabilities(supports_cancellation=True),
    )

after which ``engine="my-engine"`` works everywhere an engine keyword is
accepted — no core module is touched.

Capability flags tell callers which path an engine can take, without
knowing engine internals: ``supports_cancellation`` marks engines that
honour a ``stop_check`` option, ``pool_order_hints`` those that honour a
``pool_order`` option, and ``rooted_runs`` marks engines whose search
object roots a run at a ground instance without rebuilding its plan
(:class:`SearchTemplate`).  Every engine counts through its own
``count_worlds()`` and receives the ambient checker and the
``break_symmetry`` request, either of which it may ignore.

The module also hosts two *ambient* channels that avoid parameter
threading through the decision procedures:

* :func:`collect_searches` — every engine object created through the
  registry inside the ``with`` block is appended to the caller's sink, which
  is how :class:`repro.decision.DecisionRecorder` attributes search nodes /
  CNF clauses to the :class:`~repro.decision.Decision` it builds;
* :func:`use_checker` — a prebuilt
  :class:`~repro.search.propagation.ConstraintChecker` handed to every
  engine factory called inside the block, which is how the
  :class:`repro.api.Database` facade shares one checker across calls.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.constraints.containment import ContainmentConstraint
from repro.ctables.adom import ActiveDomain
from repro.ctables.cinstance import CInstance
from repro.exceptions import SearchError
from repro.relational.instance import GroundInstance
from repro.relational.master import MasterData
from repro.protocols import RootedWorldSearchEngine, SearchSink, WorldSearchEngine
from repro.search.engine import WorldSearch
from repro.search.naive import NaiveWorldSearch
from repro.search.propagation import ConstraintChecker
from repro.search.sat_engine import SATWorldSearch

#: Engine used when callers do not request one explicitly.
DEFAULT_ENGINE = "propagating"

#: ``factory(cinstance, master, constraints, adom, *, checker,
#: break_symmetry, **options) -> WorldSearchEngine``.  ``break_symmetry=True``
#: allows a run to explore one valuation per renaming of the fresh Adom
#: values nothing mentions: sound for any per-world test that renaming
#: cannot change, and for an intersection of per-world answers each closed
#: under the renamings (existence checks, the exact deciders and the certain
#: answers; :func:`~repro.ctables.possible_worlds.representative_worlds`,
#: :func:`~repro.ctables.possible_worlds.renaming_closure`).  Factories are
#: free to ignore hints that do not apply to them (the SAT and naive
#: factories ignore ``break_symmetry``, the naive one ``checker`` too) and
#: then enumerate every world; unknown ``options`` keys should raise.
EngineFactory = Callable[..., WorldSearchEngine]


@dataclass(frozen=True)
class EngineCapabilities:
    """Declared properties of an engine, each choosing a path for callers.

    Attributes
    ----------
    supports_cancellation:
        The factory honours a ``stop_check`` option: a zero-argument
        callable the search polls, aborting with
        :class:`~repro.exceptions.SearchCancelledError` once it returns
        ``True`` (how the service stops a stream whose client left).
    pool_order_hints:
        The factory honours the ``pool_order`` option (e.g.
        ``"fresh_first"``) for value-order hints on the candidate pools.
    rooted_runs:
        The search object offers ``over(instance)``: a run rooted at a
        ground instance ``I``, equivalent to a fresh engine over ``T ∪ I``,
        that shares the plan compiled for ``T`` with every other run (the
        propagating engine).  :class:`SearchTemplate` builds a fresh engine
        over ``T ∪ I`` per run for the engines without it.
    """

    supports_cancellation: bool = False
    pool_order_hints: bool = False
    rooted_runs: bool = False


@dataclass(frozen=True)
class EngineSpec:
    """A registered engine: name + factory + capabilities."""

    name: str
    factory: EngineFactory
    capabilities: EngineCapabilities = field(default_factory=EngineCapabilities)

    def create(
        self,
        cinstance: CInstance,
        master: MasterData,
        constraints: Sequence[ContainmentConstraint],
        adom: ActiveDomain | None,
        *,
        checker: ConstraintChecker | None = None,
        break_symmetry: bool = False,
        options: Mapping[str, Any] | None = None,
    ) -> WorldSearchEngine:
        """Instantiate the engine, honouring ambient checker/stat channels."""
        search = self.factory(
            cinstance,
            master,
            constraints,
            adom,
            checker=checker or ambient_checker(),
            break_symmetry=break_symmetry,
            **dict(options or {}),
        )
        record_search(search)
        return search


class SearchTemplate:
    """Runs of one engine over ``T ∪ I`` for one ``T`` and many ground ``I``.

    A decider that tests many ground instances against the same adjoined
    rows (a query tableau, one all-variable tuple per relation) over one
    Adom builds a template for those rows once and asks :meth:`over` for
    the run at each instance.  An engine declaring
    :attr:`EngineCapabilities.rooted_runs` is built once, here, and its runs
    share the plan it compiled; any other engine is built afresh over
    ``T ∪ I`` for every run.  Either way each run is reported to the
    :func:`collect_searches` sinks as one search, and the template, which
    never runs, as none.  The ambient checker is read when the template is
    built, so keep a template no longer than the call that built it.
    """

    def __init__(
        self,
        spec: EngineSpec,
        cinstance: CInstance,
        master: MasterData,
        constraints: Sequence[ContainmentConstraint],
        adom: ActiveDomain,
        *,
        checker: ConstraintChecker | None = None,
        break_symmetry: bool = False,
        options: Mapping[str, Any] | None = None,
    ) -> None:
        self._cinstance = cinstance
        self._factory = spec.factory
        self._arguments = (master, constraints, adom)
        self._keywords: dict[str, Any] = dict(
            options or {},
            checker=checker or ambient_checker(),
            break_symmetry=break_symmetry,
        )
        self._rooted: RootedWorldSearchEngine | None = None
        if spec.capabilities.rooted_runs:
            self._rooted = self._factory(cinstance, *self._arguments, **self._keywords)

    def over(self, instance: GroundInstance) -> WorldSearchEngine:
        """The engine's run over ``T ∪ instance``, reported as one search."""
        if self._rooted is not None:
            run = self._rooted.over(instance)
        else:
            union = CInstance.from_ground_instance(instance)
            for name, _index, row in self._cinstance.rows():
                union = union.with_row(name, row.terms, row.condition)
            run = self._factory(union, *self._arguments, **self._keywords)
        record_search(run)
        return run


# ---------------------------------------------------------------------------
# the registry proper
# ---------------------------------------------------------------------------
_REGISTRY: dict[str, EngineSpec] = {}


def register_engine(
    name: str,
    factory: EngineFactory,
    capabilities: EngineCapabilities | None = None,
    *,
    replace: bool = False,
) -> EngineSpec:
    """Register a world-search engine under ``name``.

    The engine becomes selectable everywhere an ``engine=`` keyword (or an
    :class:`EngineConfig`) is accepted.  Re-registering an existing name
    raises unless ``replace=True`` is passed.
    """
    if not name or not isinstance(name, str):
        raise SearchError(f"engine name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not replace:
        raise SearchError(
            f"engine {name!r} is already registered; pass replace=True to override"
        )
    spec = EngineSpec(
        name=name,
        factory=factory,
        capabilities=capabilities or EngineCapabilities(),
    )
    _REGISTRY[name] = spec
    return spec


def unregister_engine(name: str) -> None:
    """Remove a registered engine (built-in engines can be removed too)."""
    if name not in _REGISTRY:
        raise SearchError(f"engine {name!r} is not registered")
    del _REGISTRY[name]


def get_engine(name: str) -> EngineSpec:
    """Look up a registered engine by name."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise SearchError(
            f"unknown world-search engine {name!r}; registered engines: "
            f"{tuple(sorted(_REGISTRY))}"
        )
    return spec


def engine_names() -> tuple[str, ...]:
    """The registered engine names, in registration order."""
    return tuple(_REGISTRY)


# ---------------------------------------------------------------------------
# engine configuration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EngineConfig:
    """A resolved-at-call-time engine selection.

    ``name=None`` means the registry default (:data:`DEFAULT_ENGINE`);
    ``options`` are passed through to the engine factory verbatim (e.g.
    ``{"pool_order": "fresh_first"}`` for the propagating engine).

    Every ``engine=`` keyword in the library accepts a plain name string, an
    :class:`EngineConfig`, or ``None`` — :meth:`coerce` normalises all
    three.
    """

    name: str | None = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", dict(self.options))

    def __hash__(self) -> int:
        return hash((self.name, tuple(sorted(self.options))))

    @classmethod
    def coerce(cls, value: "EngineConfig | str | None") -> "EngineConfig":
        """Normalise ``None`` / engine-name / config into an :class:`EngineConfig`."""
        if value is None:
            return cls()
        if isinstance(value, EngineConfig):
            return value
        if isinstance(value, str):
            return cls(name=value)
        raise SearchError(
            f"engine must be a name, an EngineConfig or None, got {value!r}"
        )

    def spec(self) -> EngineSpec:
        """The registered engine this config selects (validating the name)."""
        return get_engine(self.name or DEFAULT_ENGINE)


def resolve_engine_name(engine: "EngineConfig | str | None") -> str:
    """Normalise an engine selection to a validated registered name."""
    return EngineConfig.coerce(engine).spec().name


# ---------------------------------------------------------------------------
# ambient channels (no parameter threading through the deciders)
# ---------------------------------------------------------------------------
# Both channels are context variables holding immutable tuples: each thread
# (and each asyncio task) sees its own stack, and the token-based reset
# restores the exact previous state even if context managers are exited out
# of the ideal LIFO order (e.g. a close()d generator).
_SEARCH_SINKS: ContextVar[tuple[SearchSink, ...]] = ContextVar(
    "repro_search_sinks", default=()
)
_AMBIENT_CHECKERS: ContextVar[tuple[ConstraintChecker, ...]] = ContextVar(
    "repro_ambient_checkers", default=()
)


def record_search(search: WorldSearchEngine) -> None:
    """Report an engine instantiation to every active collector."""
    for sink in _SEARCH_SINKS.get():
        sink.append(search)


@contextmanager
def collect_searches(sink: list[WorldSearchEngine]) -> Iterator[list[WorldSearchEngine]]:
    """Collect every engine object created through the registry in ``sink``."""
    token = _SEARCH_SINKS.set(_SEARCH_SINKS.get() + (sink,))
    try:
        yield sink
    finally:
        _SEARCH_SINKS.reset(token)


def ambient_checker() -> ConstraintChecker | None:
    """The innermost checker installed by :func:`use_checker`, if any."""
    checkers = _AMBIENT_CHECKERS.get()
    return checkers[-1] if checkers else None


@contextmanager
def use_checker(checker: ConstraintChecker) -> Iterator[ConstraintChecker]:
    """Hand a prebuilt constraint checker to every engine created inside.

    The checker depends only on ``(master, constraints)``, so a caller that
    runs many searches against the same pair (the :class:`repro.api.Database`
    facade, the RCQP composition sweep) installs it once instead of paying
    the right-hand-side CQ evaluation per search.

    Hold the context only around *synchronous* work: a generator that
    suspends inside the ``with`` block would leave the checker installed for
    unrelated callers until it resumes.  Code that hands out generators
    passes the checker explicitly (the ``checker=`` parameter of the
    :mod:`repro.ctables.possible_worlds` front-ends) instead.
    """
    token = _AMBIENT_CHECKERS.set(_AMBIENT_CHECKERS.get() + (checker,))
    try:
        yield checker
    finally:
        _AMBIENT_CHECKERS.reset(token)


# ---------------------------------------------------------------------------
# built-in engines
# ---------------------------------------------------------------------------
def _propagating_factory(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None,
    *,
    checker: ConstraintChecker | None,
    break_symmetry: bool,
    **options: Any,
) -> WorldSearchEngine:
    return WorldSearch(
        cinstance,
        master,
        constraints,
        adom,
        break_symmetry=break_symmetry,
        checker=checker,
        **options,
    )


def sat_factory(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None,
    *,
    checker: ConstraintChecker | None,
    break_symmetry: bool,
    **options: Any,
) -> WorldSearchEngine:
    """The built-in SAT engine, a one-shot :class:`SATWorldSearch`: the only
    engine :class:`repro.api.Database` answers from its live
    :class:`~repro.search.sat_engine.IncrementalSATSession` instead."""
    del break_symmetry  # one SAT call decides existence anyway
    return SATWorldSearch(cinstance, master, constraints, adom, checker=checker, **options)


def _naive_factory(
    cinstance: CInstance,
    master: MasterData,
    constraints: Sequence[ContainmentConstraint],
    adom: ActiveDomain | None,
    *,
    checker: ConstraintChecker | None,
    break_symmetry: bool,
    **options: Any,
) -> WorldSearchEngine:
    del checker, break_symmetry  # the reference path optimises nothing
    return NaiveWorldSearch(cinstance, master, constraints, adom, **options)


register_engine(
    "propagating",
    _propagating_factory,
    EngineCapabilities(
        supports_cancellation=True,
        pool_order_hints=True,
        rooted_runs=True,
    ),
)
register_engine("sat", sat_factory)
register_engine("naive", _naive_factory)
