"""The process-parallel sharded world-search engine (``engine="parallel"``).

The strong/weak/viable deciders must visit *every* world of
``Mod_Adom(T, D_m, V)`` — an embarrassingly parallel tree walk.  The subtrees
below the first assigned variable are independent: fixing that variable to
one of its pool values yields a branch no other value's branch shares.
:class:`ParallelWorldSearch` exploits this by

* computing the serial engine's variable order and candidate pools once,
* sharding the tree by the first ordered variable's pool values (falling back
  to the *pair* of the first two variables when the first pool alone is too
  small to keep every worker busy),
* farming shard chunks to a persistent ``ProcessPoolExecutor`` whose workers
  run the existing propagating search (:class:`repro.search.engine.WorldSearch`)
  with the shard prefix pinned via ``pool_overrides`` and the serial variable
  order forced via ``order``, and
* merging results in shard order, so the merged enumeration is
  **order-identical to the serial propagating engine** (the canonical-form
  deduplication of :func:`repro.search.engine.world_key` is applied on the
  merged stream exactly as the serial engine applies it on its own stream).

Existence checks (:meth:`ParallelWorldSearch.has_world`) additionally use a
fork-inherited cancellation event: the first shard to find a model sets the
event, and every other worker polls it every
:data:`repro.search.engine.STOP_CHECK_STRIDE` nodes through the serial
engine's ``stop_check`` hook, so an expensive shard cannot delay the answer.

Process pools only pay off when there is enough work to amortise fork and
pickling overhead; searches whose valuation space is smaller than
``min_parallel_valuations`` (and hosts without the ``fork`` start method, and
``workers=1`` runs) silently take the serial propagating path instead.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    as_completed,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.sharedctypes import Synchronized

from repro.constraints.containment import ContainmentConstraint
from repro.ctables.adom import ActiveDomain
from repro.ctables.cinstance import CInstance
from repro.ctables.valuation import Valuation
from repro.exceptions import SearchCancelledError, SearchError
from repro.queries.terms import Variable
from repro.relational.domains import Constant
from repro.relational.instance import GroundInstance
from repro.relational.master import MasterData
from repro.search.engine import WorldKey, WorldSearch, world_key
from repro.search.propagation import ConstraintChecker

#: Valuation-space size below which the serial engine is used directly
#: (fork + pickling overhead dominates tiny searches).
SERIAL_FALLBACK_VALUATIONS = 2048

#: Each worker receives about this many shard chunks, so an unlucky expensive
#: chunk can be balanced by idle workers stealing the remaining ones.
CHUNKS_PER_WORKER = 2

#: A shard variable pool must offer at least this many shards per worker
#: before the second ordered variable is pulled into the shard prefix.
MIN_SHARDS_PER_WORKER = 2


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` knob; ``None`` means "one per available CPU"."""
    if workers is None:
        try:
            resolved = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux hosts
            resolved = os.cpu_count() or 1
        return max(1, resolved)
    if workers < 1:
        raise SearchError(f"workers must be >= 1, got {workers!r}")
    return workers


# ---------------------------------------------------------------------------
# persistent worker pools
# ---------------------------------------------------------------------------
@dataclass
class _PoolHandle:
    executor: ProcessPoolExecutor
    # Fork-inherited shared slot holding the *generation number* of the most
    # recently cancelled existence run.  Each has_world() run draws a fresh
    # generation; its workers abort only when the slot equals *their* run's
    # generation, so concurrent runs sharing one pool can never cancel each
    # other into an unsound "no model" verdict (a cancel overwritten by
    # another run's cancel merely costs the loser its early exit).
    cancel_generation: "Synchronized[int]"  # multiprocessing.Value("Q")
    next_generation: int = 0


_POOLS: dict[int, _PoolHandle] = {}

# Set in each worker process by :func:`_worker_init`.
_WORKER_CANCEL_GENERATION: "Synchronized[int] | None" = None


def _worker_init(cancel_generation: "Synchronized[int]") -> None:
    global _WORKER_CANCEL_GENERATION
    _WORKER_CANCEL_GENERATION = cancel_generation


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _pool_for(workers: int) -> _PoolHandle:
    handle = _POOLS.get(workers)
    if handle is None:
        context = multiprocessing.get_context("fork")
        cancel_generation = context.Value("Q", 0)
        executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_worker_init,
            initargs=(cancel_generation,),
        )
        handle = _PoolHandle(executor=executor, cancel_generation=cancel_generation)
        _POOLS[workers] = handle
    return handle


def _discard_pool(workers: int) -> None:
    handle = _POOLS.pop(workers, None)
    if handle is not None:
        # wait=True joins the workers and the executor's management thread;
        # tearing down without waiting races the interpreter's own
        # concurrent.futures atexit hook on the already-closed pipes.
        handle.executor.shutdown(wait=True, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut down every persistent worker pool (idempotent; used at exit)."""
    for workers in list(_POOLS):
        _discard_pool(workers)


atexit.register(shutdown_pools)


# ---------------------------------------------------------------------------
# worker-side shard execution
# ---------------------------------------------------------------------------
#: ``(cinstance, master, constraints, adom, order, break_symmetry)``.
_Payload = tuple[
    CInstance,
    MasterData,
    list[ContainmentConstraint],
    ActiveDomain,
    list[Variable],
    bool,
]

#: One shard prefix: the pinned values of the shard variables.
_Prefix = dict[Variable, Constant]

# One-slot per-worker checker cache.  A run farms many shard chunks to each
# worker, and every chunk used to rebuild the ConstraintChecker — paying the
# right-hand-side CQ evaluation per shard.  Constraint contexts are value
# objects (MasterData and ContainmentConstraint define structural equality),
# so the worker keeps the checker of the last-seen ``(master, constraints)``
# pair and reuses it whenever the next chunk carries an equal pair.
_CheckerKey = tuple[MasterData, tuple[ContainmentConstraint, ...]]
_WORKER_CHECKER: tuple[_CheckerKey, ConstraintChecker] | None = None


def _worker_checker(
    master: MasterData, constraints: Sequence[ContainmentConstraint]
) -> ConstraintChecker:
    # reprolint: disable=R005 -- deliberate per-process memo cache: each forked
    # worker keeps its own slot; the parent never reads or depends on it.
    global _WORKER_CHECKER
    key = (master, tuple(constraints))
    if _WORKER_CHECKER is not None and _WORKER_CHECKER[0] == key:
        return _WORKER_CHECKER[1]
    checker = ConstraintChecker(master, constraints)
    _WORKER_CHECKER = (key, checker)
    return checker


def _shard_search(
    payload: _Payload, prefix: Mapping[Variable, Constant], **kwargs: Any
) -> WorldSearch:
    # Hash indexes are session-local state (IndexedFactStore lives inside
    # each CheckerSession), so nothing index-shaped crosses the fork: every
    # worker's searches rebuild their indexes lazily from their own pushes.
    cinstance, master, constraints, adom, order, break_symmetry = payload
    return WorldSearch(
        cinstance,
        master,
        constraints,
        adom,
        break_symmetry=break_symmetry,
        checker=_worker_checker(master, constraints),
        order=order,
        pool_overrides={variable: [value] for variable, value in prefix.items()},
        **kwargs,
    )


def _worker_stop_check(generation: int | None) -> Callable[[], bool] | None:
    """A worker-side stop check bound to one run's cancellation generation.

    ``None`` when the run did not draw a generation (legacy callers) or the
    worker was not initialised with the shared slot.
    """
    # reprolint: disable=R005 -- fork-inherited cancellation slot installed by
    # the pool initializer; workers only read it (writes go through its lock).
    slot = _WORKER_CANCEL_GENERATION
    if generation is None or slot is None:
        return None
    cancel_slot = slot
    bound_generation = generation

    def _stop_check() -> bool:
        return cancel_slot.value == bound_generation

    return _stop_check


def _run_chunk_pairs(
    payload: _Payload,
    chunk: Sequence[tuple[int, _Prefix]],
    generation: int | None = None,
) -> list[tuple[int, list[tuple[Valuation, GroundInstance]], int]]:
    """Enumerate every shard of a chunk; returns (index, pairs, nodes).

    When the run drew a cancellation ``generation`` (the streaming driver
    always does), the fork-inherited slot is polled between shards and —
    via the serial engine's ``stop_check`` hook — inside each shard search,
    so workers abandon in-flight enumeration promptly once the driver
    cancels the run (consumer ``stop_check`` fired, or the consumer closed
    the generator early).  Cancelled chunks return the shards completed so
    far; the driver is unwinding and never merges them.
    """
    stop_check = _worker_stop_check(generation)
    results: list[tuple[int, list[tuple[Valuation, GroundInstance]], int]] = []
    for prefix_index, prefix in chunk:
        if stop_check is not None and stop_check():
            break
        search = _shard_search(payload, prefix, stop_check=stop_check)
        try:
            pairs = list(search.search())
        except SearchCancelledError:
            break
        results.append((prefix_index, pairs, search.stats.nodes))
    return results


def _run_chunk_keys(
    payload: _Payload, chunk: Sequence[tuple[int, _Prefix]]
) -> list[tuple[int, set[WorldKey], int]]:
    """Count-support worker: per-shard canonical world keys, no worlds.

    Returns ``(index, world_key set, nodes)`` per shard.  Shipping only the
    canonical forms (per-relation frozen row sets) back to the parent keeps
    the pickled payload proportional to the number of *distinct* worlds in
    the shard rather than the number of satisfying valuations, which is what
    makes the parallel engine's native ``count_worlds`` cheaper than
    streaming the full enumeration through :meth:`ParallelWorldSearch.worlds`.
    """
    results: list[tuple[int, set[WorldKey], int]] = []
    for prefix_index, prefix in chunk:
        search = _shard_search(payload, prefix)
        keys = {world_key(world) for _valuation, world in search.search()}
        results.append((prefix_index, keys, search.stats.nodes))
    return results


def _run_chunk_exists(
    payload: _Payload, chunk: Sequence[tuple[int, _Prefix]], generation: int
) -> list[tuple[int, bool, bool, int]]:
    """Probe every shard of a chunk; returns (index, found, cancelled, nodes).

    The fork-inherited cancellation slot is polled between shards and (via
    the serial engine's ``stop_check`` hook) inside each shard search, so a
    worker grinding through an expensive shard abandons it promptly once any
    other shard of *this run* (identified by ``generation``) has reported a
    model.
    """
    # reprolint: disable=R005 -- fork-inherited cancellation slot installed by
    # the pool initializer; workers only read it (writes go through its lock).
    slot = _WORKER_CANCEL_GENERATION
    stop_check = _worker_stop_check(generation)
    results: list[tuple[int, bool, bool, int]] = []
    for prefix_index, prefix in chunk:
        if stop_check is not None and stop_check():
            results.append((prefix_index, False, True, 0))
            continue
        search = _shard_search(payload, prefix, stop_check=stop_check)
        try:
            found = search.has_world()
        except SearchCancelledError:
            results.append((prefix_index, False, True, search.stats.nodes))
            continue
        results.append((prefix_index, found, False, search.stats.nodes))
        if found:
            if slot is not None:
                with slot.get_lock():
                    slot.value = generation
            break
    return results


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------
@dataclass
class ParallelSearchStats:
    """Counters describing one parallel search run."""

    workers: int = 0
    shards: int = 0
    chunks: int = 0
    serial_fallback: bool = False
    cancelled_shards: int = 0
    found_shard: int | None = None
    nodes: int = 0
    worlds: int = 0
    duplicate_worlds: int = 0
    shard_variables: list[Variable] = field(default_factory=list)


class ParallelWorldSearch:
    """Sharded, process-parallel enumeration of ``Mod_Adom(T, D_m, V)``.

    Parameters
    ----------
    cinstance, master, constraints, adom:
        As for :class:`repro.search.engine.WorldSearch`.
    workers:
        Worker-process count; ``None`` means one per available CPU
        (:func:`resolve_workers`).
    min_parallel_valuations:
        Searches whose valuation space is smaller than this run serially (the
        fork/pickle overhead would dominate).  Tests pin it to ``0`` to force
        the parallel path on tiny instances.
    shard_order:
        ``"pool"`` (default) submits shards in serial pool order; ``"reversed"``
        submits them in reverse.  Results are merged by shard index either
        way, so the enumeration produced is identical — the knob exists so the
        differential tests can demonstrate submission-order independence.
    checker:
        A prebuilt :class:`~repro.search.propagation.ConstraintChecker` for
        ``(master, constraints)``, shared by the planning pass and any
        serial-fallback search (worker processes build their own).  Callers
        running many searches against the same master data pass one, exactly
        as with :class:`~repro.search.engine.WorldSearch`.
    stop_check:
        Optional zero-argument cancellation predicate, mirroring the serial
        engine's hook (the registry capability ``supports_cancellation``).
        The driver polls it between merged results; once it returns true the
        run's cancellation generation is broadcast through the fork-inherited
        slot — every worker polls the slot between shards and (every
        :data:`repro.search.engine.STOP_CHECK_STRIDE` nodes) inside shard
        searches — and :class:`~repro.exceptions.SearchCancelledError` is
        raised to the consumer.  Abandoning an enumeration generator early
        (``close()``/``break``) broadcasts the same cancellation, so
        in-flight chunks abort promptly instead of completing into the void.
        Serial-fallback searches receive the predicate directly.

    Note on latency: this is a *throughput* engine.  Enumeration streams
    shard results as worker chunks complete, but the first result cannot
    arrive before the first chunk (≈ ``1/(2·workers)`` of the tree) has been
    fully searched — consumers that want one world fast (e.g. witness
    extraction from a satisfiable instance) are better served by the serial
    ``"propagating"`` engine or by :meth:`has_world`, which races shards and
    cancels the losers.
    """

    def __init__(
        self,
        cinstance: CInstance,
        master: MasterData,
        constraints: Sequence[ContainmentConstraint],
        adom: ActiveDomain | None = None,
        *,
        workers: int | None = None,
        min_parallel_valuations: int = SERIAL_FALLBACK_VALUATIONS,
        chunks_per_worker: int = CHUNKS_PER_WORKER,
        shard_order: str = "pool",
        checker: ConstraintChecker | None = None,
        stop_check: Callable[[], bool] | None = None,
    ) -> None:
        if adom is None:
            from repro.ctables.possible_worlds import default_active_domain

            adom = default_active_domain(cinstance, master, constraints)
        if shard_order not in ("pool", "reversed"):
            raise SearchError(
                f"shard_order must be 'pool' or 'reversed', got {shard_order!r}"
            )
        self._cinstance = cinstance
        self._master = master
        self._constraints = list(constraints)
        self._adom = adom
        self._workers = resolve_workers(workers)
        self._min_parallel = min_parallel_valuations
        self._chunks_per_worker = max(1, chunks_per_worker)
        self._shard_order = shard_order
        self._checker = checker
        self._stop_check = stop_check
        self.stats = ParallelSearchStats(workers=self._workers)

        # The serial engine's order/pools are the ground truth the shards
        # reproduce; computing them here costs one ordering pass, no search.
        base = WorldSearch(cinstance, master, constraints, adom, checker=checker)
        self._order = base.order
        self._pools = base.pools

    @property
    def order(self) -> list[Variable]:
        """The serial variable order every shard reproduces."""
        return list(self._order)

    @property
    def pools(self) -> dict[Variable, list[Constant]]:
        """The per-variable candidate pools the shards are drawn from."""
        return {variable: list(pool) for variable, pool in self._pools.items()}

    # ------------------------------------------------------------------
    # shard planning
    # ------------------------------------------------------------------
    def _shard_variables(self) -> list[Variable]:
        if not self._order:
            return []
        first = self._order[0]
        enough = self._workers * MIN_SHARDS_PER_WORKER
        if len(self._pools[first]) >= enough or len(self._order) < 2:
            return [first]
        return [self._order[0], self._order[1]]

    def _prefixes(self) -> list[_Prefix]:
        """Shard prefixes in serial enumeration order (lexicographic in the
        ordered shard variables' pool positions)."""
        shard_vars = self._shard_variables()
        if not shard_vars:
            return []
        prefixes: list[_Prefix] = [{}]
        for variable in shard_vars:
            prefixes = [
                {**prefix, variable: value}
                for prefix in prefixes
                for value in self._pools[variable]
            ]
        return prefixes

    def _use_serial(self, prefixes: list[_Prefix]) -> bool:
        if self._workers <= 1 or len(prefixes) < 2 or not _fork_available():
            return True
        total = 1
        for pool in self._pools.values():
            total *= len(pool)
        return total < self._min_parallel

    def _payload(self, break_symmetry: bool) -> _Payload:
        # Workers rebuild (and cache) their own checkers from the master
        # data and constraints.
        return (
            self._cinstance,
            self._master,
            self._constraints,
            self._adom,
            self._order,
            break_symmetry,
        )

    def _chunks(self, prefixes: list[_Prefix]) -> list[list[tuple[int, _Prefix]]]:
        count = min(len(prefixes), self._workers * self._chunks_per_worker)
        chunks: list[list[tuple[int, _Prefix]]] = [[] for _ in range(count)]
        indexed = list(enumerate(prefixes))
        if self._shard_order == "reversed":
            indexed = indexed[::-1]
        for position, (prefix_index, prefix) in enumerate(indexed):
            chunks[position % count].append((prefix_index, prefix))
        return chunks

    # ------------------------------------------------------------------
    # front-ends
    # ------------------------------------------------------------------
    def search(self) -> Iterator[tuple[Valuation, GroundInstance]]:
        """Enumerate ``(µ, µ(T))`` pairs, in the serial engine's order.

        Shard results stream in as worker chunks complete; out-of-order
        shards are buffered until every earlier shard has been yielded, so
        consumers see exactly the serial order without waiting for the whole
        tree (early-exiting consumers simply abandon the generator — any
        still-running chunks finish in the background and are discarded).
        """
        prefixes = self._prefixes()
        if self._use_serial(prefixes):
            yield from self._serial_search()
            return
        self._record_plan(prefixes)
        yield from self._stream_pairs(prefixes)

    def __iter__(self) -> Iterator[tuple[Valuation, GroundInstance]]:
        return self.search()

    def worlds(self, deduplicate: bool = True) -> Iterator[GroundInstance]:
        """Enumerate the worlds; duplicates (also across shards) suppressed."""
        seen: set[WorldKey] = set()
        for _valuation, world in self.search():
            if deduplicate:
                key = world_key(world)
                if key in seen:
                    self.stats.duplicate_worlds += 1
                    continue
                seen.add(key)
            yield world

    def has_world(self) -> bool:
        """Whether some world exists; shards race and losers are cancelled."""
        prefixes = self._prefixes()
        if self._use_serial(prefixes):
            serial = WorldSearch(
                self._cinstance,
                self._master,
                self._constraints,
                self._adom,
                break_symmetry=True,
                checker=self._checker,
                stop_check=self._stop_check,
            )
            found = serial.has_world()
            self._absorb_serial(serial)
            return found
        self._record_plan(prefixes)
        outcome = self._collect_exists(prefixes)
        if outcome is None:  # broken pool: fall back to serial
            serial = WorldSearch(
                self._cinstance,
                self._master,
                self._constraints,
                self._adom,
                break_symmetry=True,
                checker=self._checker,
                stop_check=self._stop_check,
            )
            found = serial.has_world()
            self._absorb_serial(serial)
            return found
        return outcome

    def count_worlds(self) -> int:
        """The number of distinct worlds, by cross-shard key-set merging.

        Every shard reduces its subtree to the set of canonical world forms
        (:func:`repro.search.engine.world_key`); the parent unions the sets,
        so duplicates within *and across* shards collapse exactly as the
        serial deduplication would collapse them.  This is the engine's
        ``counts_natively`` registry capability: no
        :class:`~repro.relational.instance.GroundInstance` objects cross the
        process boundary.
        """
        prefixes = self._prefixes()
        if self._use_serial(prefixes):
            self.stats.serial_fallback = True
            serial = WorldSearch(
                self._cinstance, self._master, self._constraints, self._adom,
                checker=self._checker, stop_check=self._stop_check,
            )
            count = serial.count_worlds()
            self.stats.nodes += serial.stats.nodes
            self.stats.worlds += count
            return count
        self._record_plan(prefixes)
        chunks = self._chunks(prefixes)
        self.stats.chunks = len(chunks)
        payload = self._payload(break_symmetry=False)
        handle = _pool_for(self._workers)
        merged: set[WorldKey] = set()
        try:
            futures = [
                handle.executor.submit(_run_chunk_keys, payload, chunk)
                for chunk in chunks
            ]
            for future in as_completed(futures):
                for _prefix_index, keys, nodes in future.result():
                    self.stats.nodes += nodes
                    merged |= keys
        except BrokenProcessPool:
            _discard_pool(self._workers)
            serial = WorldSearch(
                self._cinstance, self._master, self._constraints, self._adom,
                checker=self._checker, stop_check=self._stop_check,
            )
            count = serial.count_worlds()
            self.stats.nodes += serial.stats.nodes
            self.stats.worlds += count
            return count
        self.stats.worlds += len(merged)
        return len(merged)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _serial_search(self) -> Iterator[tuple[Valuation, GroundInstance]]:
        self.stats.serial_fallback = True
        serial = WorldSearch(
            self._cinstance, self._master, self._constraints, self._adom,
            checker=self._checker, stop_check=self._stop_check,
        )
        for pair in serial.search():
            self.stats.worlds += 1
            yield pair
        self.stats.nodes += serial.stats.nodes

    def _absorb_serial(self, serial: WorldSearch) -> None:
        self.stats.serial_fallback = True
        self.stats.nodes += serial.stats.nodes

    def _record_plan(self, prefixes: list[_Prefix]) -> None:
        self.stats.shards = len(prefixes)
        self.stats.shard_variables = self._shard_variables()

    def _stream_pairs(
        self, prefixes: list[_Prefix]
    ) -> Iterator[tuple[Valuation, GroundInstance]]:
        chunks = self._chunks(prefixes)
        self.stats.chunks = len(chunks)
        payload = self._payload(break_symmetry=False)
        handle = _pool_for(self._workers)
        handle.next_generation += 1
        generation = handle.next_generation
        buffered: dict[int, list[tuple[Valuation, GroundInstance]]] = {}
        next_index = 0
        drained = False
        try:
            futures = [
                handle.executor.submit(_run_chunk_pairs, payload, chunk, generation)
                for chunk in chunks
            ]
            for future in as_completed(futures):
                for prefix_index, pairs, nodes in future.result():
                    buffered[prefix_index] = pairs
                    self.stats.nodes += nodes
                while next_index in buffered:
                    for valuation, world in buffered.pop(next_index):
                        if self._stop_check is not None and self._stop_check():
                            raise SearchCancelledError(
                                "parallel enumeration cancelled by stop_check"
                            )
                        self.stats.worlds += 1
                        yield valuation, world
                    next_index += 1
            drained = True
        except BrokenProcessPool:
            _discard_pool(self._workers)
            if next_index or buffered:
                # Results were already yielded; a serial restart would
                # duplicate them.  Surface the failure instead.
                raise SearchError(
                    "worker pool broke mid-enumeration; rerun the search"
                ) from None
            drained = True  # the serial path owns the rest of the run
            yield from self._serial_search()
        finally:
            if not drained:
                # Cancelled by stop_check, or the consumer abandoned the
                # generator: broadcast this run's generation so in-flight
                # chunks abort at their next slot poll instead of searching
                # into the void.  Later runs draw fresh generations, so a
                # stale broadcast can never cancel them.
                with handle.cancel_generation.get_lock():
                    handle.cancel_generation.value = generation

    def _collect_exists(self, prefixes: list[_Prefix]) -> bool | None:
        chunks = self._chunks(prefixes)
        self.stats.chunks = len(chunks)
        payload = self._payload(break_symmetry=True)
        handle = _pool_for(self._workers)
        handle.next_generation += 1
        generation = handle.next_generation
        found = False
        try:
            pending = {
                handle.executor.submit(_run_chunk_exists, payload, chunk, generation)
                for chunk in chunks
            }
            # With a caller stop_check the wait gets a short timeout so the
            # predicate is polled even while every chunk is still running.
            poll = None if self._stop_check is None else 0.05
            while pending:
                if self._stop_check is not None and self._stop_check():
                    with handle.cancel_generation.get_lock():
                        handle.cancel_generation.value = generation
                    raise SearchCancelledError(
                        "parallel existence check cancelled by stop_check"
                    )
                done, pending = wait(
                    pending, timeout=poll, return_when=FIRST_COMPLETED
                )
                for future in done:
                    for prefix_index, ok, cancelled, nodes in future.result():
                        self.stats.nodes += nodes
                        if cancelled:
                            self.stats.cancelled_shards += 1
                        if ok and not found:
                            found = True
                            self.stats.found_shard = prefix_index
                            with handle.cancel_generation.get_lock():
                                handle.cancel_generation.value = generation
        except BrokenProcessPool:
            _discard_pool(self._workers)
            return None
        return found
