"""EXP-ENGINE — four-way world-search comparison (naive / propagating / SAT / parallel).

Every decision procedure bottoms out in the enumeration of
``Mod_Adom(T, D_m, V)``.  This benchmark compares the four engines behind it
(``engine="naive"`` — the original cross-product scan, ``engine="propagating"``
— the backtracking search of :mod:`repro.search`, ``engine="sat"`` — the
CNF encoding solved by the DPLL solver of :mod:`repro.reductions.dpll`, and
``engine="parallel"`` — the sharded process-parallel engine of
:mod:`repro.search.parallel`) on the workloads the other benchmark files
sweep, and extends the sweeps to regimes each engine targets:

* sizes whose cross product the naive path cannot materialise at all (the
  propagating/SAT-only scale-up rows),
* the inequality-heavy chain family
  (:func:`repro.workloads.generator.inequality_chain_workload`), whose
  ≠-laden constraints the monotone-CC pruner cannot prune early but the SAT
  engine refutes by unit propagation and conflict learning, and
* the wide-pool family (:func:`repro.workloads.generator.wide_pool_workload`),
  whose root-wide, pruning-heavy search tree is the sharding regime of the
  parallel engine, and
* the wide-constraint family
  (:func:`repro.workloads.generator.wide_constraint_workload`), whose
  many-atom constraint left-hand sides make the per-node constraint check
  the dominant cost — the regime of the semi-naive **delta** checker
  (:class:`repro.search.propagation.ConstraintChecker`), raced here against
  the linear-scan delta and recompute-from-scratch reference checkers of
  ``tests/search/checker_oracles.py`` on identical search trees, and
* the hub-skewed graph family
  (:func:`repro.workloads.generator.skewed_join_workload`), whose hot
  source bucket, projected-away tag column and empty buckets are the
  regime of the hash-join planner (:mod:`repro.search.joinplan`) behind
  the indexed delta checker.

Each case first asserts *parity* (identical verdict / model count from every
call of every engine that runs it) and then reports the timings: each
(case, engine) cell is the median of :data:`CASE_REPEATS` calls.  Seven gates are
evaluated, and every verdict is printed; the run fails if any gate fails:

* the propagating engine must keep its ≥ 3x headline speedup over naive on
  the largest naive-feasible registry cases (enforced in full mode),
* the SAT engine must beat the propagating engine on at least one
  inequality-heavy case, in smoke mode too,
* the parallel engine at 4 workers must reach a ≥ 2x speedup over the
  propagating engine on the wide-pool family — enforced whenever the host
  has at least 4 CPUs (a single-core host cannot physically exhibit a
  process-parallel speedup; the gate is then reported as skipped),
* the (indexed) delta checker must be ≥ 3x faster **per search node** than
  the full-recompute reference checker on the wide-constraint family (all
  checkers drive the identical propagating search tree, so the node counts
  match by construction and the per-node ratio is a pure
  constraint-checking comparison),
* the indexed delta checker must be ≥ 3x faster per node than the
  linear-scan delta reference checker on both the wide-constraint family
  and the skew family,
* an incremental ``Database.update`` stream — warm decision caches plus the
  live assumption-guarded DPLL solver — must answer consistency and the
  model count ≥ 3x faster than rebuilding the facade and re-deciding from
  scratch at every step of the 50-step registry update stream (both sides
  are parity-checked step by step first), and
* the SAT engine's component-caching ``count_worlds`` must be ≥ 5x faster
  than blocking-clause enumeration over the same encoding on the
  disconnected-components family.

With ``--json`` every decider case additionally records the per-engine
``Decision.stats`` (search ``nodes``, CNF ``clauses``, ``wall`` seconds,
engine instantiations and worlds enumerated) next to the timings, so the
perf-trajectory artifact keeps the work counters, not only wall clocks.

Run directly (the file deliberately does not match pytest's ``test_*``
collection patterns)::

    PYTHONPATH=src python benchmarks/bench_engine.py                  # full sweep
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke          # CI smoke
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke --json BENCH_ENGINE.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# The reference checkers live with the differential suites that use them.
sys.path.insert(0, str(ROOT / "tests" / "search"))

from checker_oracles import CHECKERS  # noqa: E402

from repro.api import Database  # noqa: E402
from repro.completeness.consistency import is_consistent  # noqa: E402
from repro.completeness.strong import is_strongly_complete  # noqa: E402
from repro.ctables.cinstance import CInstance  # noqa: E402
from repro.ctables.possible_worlds import (  # noqa: E402
    default_active_domain,
    model_count,
)
from repro.ctables.valuation import count_valuations  # noqa: E402
from repro.reductions.consistency_reduction import (  # noqa: E402
    build_consistency_reduction,
)
from repro.reductions.sat import random_forall_exists_instance  # noqa: E402
from repro.search.engine import WorldSearch  # noqa: E402
from repro.search.parallel import shutdown_pools  # noqa: E402
from repro.search.sat_engine import (  # noqa: E402
    IncrementalSATSession,
    SATWorldSearch,
)
from repro.workloads.generator import (  # noqa: E402
    disconnected_components_workload,
    inequality_chain_workload,
    registry_workload,
    skewed_join_workload,
    update_stream_workload,
    wide_constraint_workload,
    wide_pool_workload,
)

#: Acceptance floor for the propagating-vs-naive headline (ISSUE 1 criterion).
REQUIRED_SPEEDUP = 3.0
#: The SAT engine must beat propagating on ≥ 1 inequality-heavy case (ISSUE 2).
REQUIRED_SAT_WIN = 1.0
#: The parallel engine must reach this speedup over propagating on the
#: wide-pool family (ISSUE 3 criterion), at the worker count below.
REQUIRED_PARALLEL_SPEEDUP = 2.0
PARALLEL_GATE_WORKERS = 4
#: The indexed delta checker must reach this per-node speedup over the full
#: checker on the wide-constraint family (the ISSUE 5 criterion, raised from
#: 2x by ISSUE 7 once the delta joins became hash-indexed).
REQUIRED_DELTA_SPEEDUP = 3.0
#: The indexed delta checker must reach this per-node speedup over the
#: linear-scan delta baseline on the wide-constraint and skew families (the
#: ISSUE 7 criterion).
REQUIRED_INDEX_SPEEDUP = 3.0
#: An incremental ``Database.update`` stream (warm decision caches + live
#: SAT solver) must beat rebuilding the facade and re-deciding from scratch
#: at every step by this factor on the 50-step registry stream (the ISSUE 8
#: criterion).
REQUIRED_UPDATE_STREAM_SPEEDUP = 3.0
UPDATE_STREAM_STEPS = 50
#: Component-caching ``count_worlds`` must beat blocking-clause enumeration
#: by this factor on instances with >= 3 independent components (ISSUE 10).
REQUIRED_COMPONENT_SPEEDUP = 5.0

ALL_ENGINES = ("naive", "propagating", "sat", "parallel")

#: Each (case, engine) cell is timed as the median of this many calls (odd,
#: so the median is one call's time and its stats are that call's).
CASE_REPEATS = 5


def _host_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


@dataclass
class Case:
    """One engine comparison: a label plus a verdict-returning callable."""

    group: str
    label: str
    run: Callable[[str], object]
    engines: tuple[str, ...] = ALL_ENGINES
    headline: bool = False
    sat_showcase: bool = False
    parallel_showcase: bool = False


@dataclass
class Outcome:
    case: Case
    verdict: object
    seconds: dict[str, float] = field(default_factory=dict)
    #: Per-engine ``Decision.stats`` payloads (empty for non-Decision verdicts).
    stats: dict[str, dict] = field(default_factory=dict)

    def speedup(self, engine: str, over: str) -> float | None:
        base = self.seconds.get(over)
        target = self.seconds.get(engine)
        if base is None or target is None or target <= 0:
            return None
        return base / target


def _timed(function: Callable[[], object]) -> tuple[object, float]:
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start


def _decision_stats(verdict: object) -> dict | None:
    """The JSON-able ``Decision.stats`` payload of a decider verdict."""
    stats = getattr(verdict, "stats", None)
    if stats is None:
        return None
    return {
        "nodes": stats.nodes,
        "clauses": stats.clauses,
        "wall": round(stats.wall_time, 6),
        "searches": stats.searches,
        "worlds": stats.worlds,
    }


def _registry_cases(smoke: bool, seed: int) -> list[Case]:
    consistency_sweep = [2, 3] if smoke else [2, 3, 4, 5]
    strong_sweep = [1, 2] if smoke else [1, 2, 3]
    cases: list[Case] = []
    for variable_count in consistency_sweep:
        workload = registry_workload(
            master_size=3,
            db_rows=max(3, variable_count),
            variable_count=variable_count,
            seed=seed,
        )
        cases.append(
            Case(
                group="consistency (registry)",
                label=f"vars={variable_count}",
                run=lambda engine, w=workload: is_consistent(
                    w.cinstance, w.master, w.constraints, engine=engine
                ),
                headline=variable_count == consistency_sweep[-1],
            )
        )
    for variable_count in strong_sweep:
        workload = registry_workload(
            master_size=3,
            db_rows=max(3, variable_count),
            variable_count=variable_count,
            seed=seed,
        )
        cases.append(
            Case(
                group="rcdp-strong (registry)",
                label=f"vars={variable_count}",
                run=lambda engine, w=workload: is_strongly_complete(
                    w.cinstance, w.point_query, w.master, w.constraints, engine=engine
                ),
                headline=variable_count == strong_sweep[-1],
            )
        )
    return cases


def _reduction_cases(smoke: bool, seed: int) -> list[Case]:
    sweep = [(1, 1, 2), (2, 1, 3)] if smoke else [(1, 1, 2), (2, 1, 3), (2, 2, 4)]
    cases = []
    for dimensions in sweep:
        formula = random_forall_exists_instance(*dimensions, seed=seed + 7)
        reduction = build_consistency_reduction(formula)
        universal, existential, clauses = dimensions
        cases.append(
            Case(
                group="consistency (Prop. 3.3 reduction)",
                label=f"x{universal}_y{existential}_c{clauses}",
                run=lambda engine, r=reduction: is_consistent(
                    r.cinstance, r.master, r.constraints, engine=engine
                ),
            )
        )
    return cases


def _model_count_cases(smoke: bool, seed: int) -> list[Case]:
    sweep = [2, 3] if smoke else [2, 3, 4]
    cases = []
    for variable_count in sweep:
        workload = registry_workload(
            master_size=4,
            db_rows=max(3, variable_count),
            variable_count=variable_count,
            seed=seed,
        )
        cases.append(
            Case(
                group="model_count (registry)",
                label=f"vars={variable_count}",
                run=lambda engine, w=workload: model_count(
                    w.cinstance, w.master, w.constraints, engine=engine
                ),
            )
        )
    return cases


def _inequality_cases(smoke: bool) -> list[Case]:
    """The ≠-heavy chain family: the SAT engine's target regime.

    Odd closed cycles are inconsistent; refuting them forces the propagating
    engine through its full backtracking tree with per-node CQ re-evaluation,
    while the SAT engine refutes the (linear-sized) CNF once.  The naive
    cross product (``2^(2·pairs)`` valuations) only joins at the smallest
    size.
    """
    sweep = [5, 9, 13] if smoke else [5, 9, 13, 17, 21]
    cases = []
    for pair_count in sweep:
        workload = inequality_chain_workload(pair_count, close_cycle=True)
        naive_feasible = pair_count <= 5
        cases.append(
            Case(
                group="consistency (inequality chain)",
                label=f"pairs={pair_count}"
                + ("" if naive_feasible else f" (naive: 2^{2 * pair_count} valuations)"),
                run=lambda engine, w=workload: is_consistent(
                    w.cinstance, w.master, w.constraints, engine=engine
                ),
                engines=ALL_ENGINES if naive_feasible else ("propagating", "sat"),
                sat_showcase=True,
            )
        )
    return cases


def _scale_up_cases(smoke: bool, seed: int) -> list[Case]:
    """Sizes whose cross product the naive path cannot materialise."""
    sweep = [(6, 6, 6)] if smoke else [(6, 6, 6), (8, 8, 8), (10, 10, 10)]
    cases = []
    for master_size, db_rows, variable_count in sweep:
        workload = registry_workload(
            master_size=master_size,
            db_rows=db_rows,
            variable_count=variable_count,
            seed=seed,
        )
        adom = default_active_domain(
            workload.cinstance, workload.master, workload.constraints
        )
        valuations = count_valuations(workload.cinstance, adom)
        cases.append(
            Case(
                group="consistency scale-up (naive infeasible)",
                label=(
                    f"master={master_size} rows={db_rows} vars={variable_count} "
                    f"(naive: {valuations:.2e} valuations)"
                ),
                run=lambda engine, w=workload: is_consistent(
                    w.cinstance, w.master, w.constraints, engine=engine
                ),
                engines=("propagating", "sat", "parallel"),
            )
        )
    return cases


def _wide_pool_cases(smoke: bool) -> list[Case]:
    """The wide-pool family: the parallel engine's target regime.

    Every variable's candidate pool is the whole (wide) active domain and the
    all-distinct denial CC makes the per-node pruning work heavy, so the
    search tree shards cleanly across worker processes.  In the pigeonhole
    regime (``rows > values_per_key``) the instance is inconsistent and every
    engine must exhaust the tree — the worst case the strong/weak deciders
    face on every world visit.  The naive cross product (and the grounding-
    heavy CNF encoding of the SAT engine) are not competitive here, so the
    comparison is propagating vs parallel, with ``workers=4`` pinned on the
    parallel side (the gate's worker count).
    """
    exists_sweep = [(6, 5), (7, 6)] if smoke else [(6, 5), (7, 6), (8, 6)]
    count_sweep = [(6, 6)] if smoke else [(6, 6), (7, 6)]
    cases = []

    def workers_for(engine: str) -> int | None:
        return PARALLEL_GATE_WORKERS if engine == "parallel" else None

    for rows, values_per_key in exists_sweep:
        workload = wide_pool_workload(rows, values_per_key)
        cases.append(
            Case(
                group="consistency (wide pool)",
                label=f"rows={rows} vpk={values_per_key}",
                run=lambda engine, w=workload: is_consistent(
                    w.cinstance, w.master, w.constraints,
                    engine=engine, workers=workers_for(engine),
                ),
                engines=("propagating", "parallel"),
                parallel_showcase=True,
            )
        )
    for rows, values_per_key in count_sweep:
        workload = wide_pool_workload(rows, values_per_key)
        cases.append(
            Case(
                group="model_count (wide pool)",
                label=f"rows={rows} vpk={values_per_key}",
                run=lambda engine, w=workload: model_count(
                    w.cinstance, w.master, w.constraints,
                    engine=engine, workers=workers_for(engine),
                ),
                engines=("propagating", "parallel"),
                parallel_showcase=True,
            )
        )
    return cases


@dataclass
class CheckerCase:
    """One checker comparison: a workload plus the checkers to race.

    ``gate_delta_full`` marks the case for the delta-vs-full gate (the full
    recompute only runs there: its per-node cost grows as ``|R|^width`` and
    is intractable on the deeper/skewed cases), ``gate_index`` for the
    indexed-vs-linear gate.
    """

    label: str
    workload: object
    configs: tuple[str, ...]
    gate_delta_full: bool = False
    gate_index: bool = False


def _checker_sweep(smoke: bool) -> list[CheckerCase]:
    cases = [
        CheckerCase(
            label="wide rows=12 width=3",
            workload=wide_constraint_workload(ground_rows=12, width=3),
            configs=("delta-indexed", "delta-linear", "full"),
            gate_delta_full=True,
            gate_index=True,
        ),
        CheckerCase(
            label="wide rows=12 width=4",
            workload=wide_constraint_workload(ground_rows=12, width=4),
            configs=("delta-indexed", "delta-linear"),
            gate_index=True,
        ),
        CheckerCase(
            label="skew hub=24",
            workload=skewed_join_workload(hub_degree=24),
            configs=("delta-indexed", "delta-linear"),
            gate_index=True,
        ),
    ]
    if not smoke:
        cases += [
            CheckerCase(
                label=f"wide rows={ground_rows} width=3",
                workload=wide_constraint_workload(ground_rows=ground_rows, width=3),
                configs=("delta-indexed", "delta-linear", "full"),
                gate_delta_full=True,
                gate_index=True,
            )
            for ground_rows in (18, 24)
        ]
        cases += [
            CheckerCase(
                label="wide rows=18 width=4",
                workload=wide_constraint_workload(ground_rows=18, width=4),
                configs=("delta-indexed", "delta-linear"),
                gate_index=True,
            ),
            CheckerCase(
                label="skew hub=48",
                workload=skewed_join_workload(hub_degree=48),
                configs=("delta-indexed", "delta-linear"),
                gate_index=True,
            ),
        ]
    return cases


def run_checker_comparison(smoke: bool) -> list[dict] | None:
    """Race the library checker and the reference checkers on identical trees.

    Every checker of ``checker_oracles.CHECKERS`` named by a case drives
    :class:`repro.search.engine.WorldSearch` over the same instance; the
    enumerated ``(valuation, world)`` streams and the node counters must be
    identical (a parity failure returns ``None``), so the per-node
    wall-clock ratios isolate the constraint-checking cost: indexed delta vs
    the full recompute and indexed delta vs the linear-scan delta (the two
    checker gates).
    """
    results: list[dict] = []
    for case in _checker_sweep(smoke):
        workload = case.workload
        adom = default_active_domain(
            workload.cinstance, workload.master, workload.constraints
        )
        observed: dict[str, tuple] = {}
        for config in case.configs:
            checker = CHECKERS[config](workload.master, workload.constraints)
            search = WorldSearch(
                workload.cinstance, workload.master, workload.constraints, adom,
                checker=checker,
            )
            (pairs, elapsed) = _timed(lambda s=search: list(s.search()))
            observed[config] = (pairs, search.stats.nodes, elapsed)
        reference = case.configs[0]
        ref_pairs, ref_nodes, _ = observed[reference]
        for config in case.configs[1:]:
            pairs, nodes, _ = observed[config]
            if pairs != ref_pairs or nodes != ref_nodes:
                print(
                    f"PARITY FAILURE in checker [{case.label}]: "
                    f"{reference} nodes={ref_nodes} worlds={len(ref_pairs)}, "
                    f"{config} nodes={nodes} worlds={len(pairs)}"
                )
                return None
        seconds = {config: observed[config][2] for config in case.configs}

        def _ratio(slow: str, fast: str) -> float | None:
            if slow not in seconds or seconds[fast] <= 0:
                return None
            return seconds[slow] / seconds[fast]

        results.append(
            {
                "label": case.label,
                "nodes": ref_nodes,
                "worlds": len(ref_pairs),
                "seconds": {k: round(v, 6) for k, v in seconds.items()},
                "indexed_vs_linear": _ratio("delta-linear", "delta-indexed"),
                "indexed_vs_full": _ratio("full", "delta-indexed"),
                "gate_delta_full": case.gate_delta_full,
                "gate_index": case.gate_index,
            }
        )
    return results


def print_checker_report(results: list[dict]) -> None:
    print("\n== checker: indexed delta vs linear delta vs full (per-node) ==")
    width = max(len(f"[{r['label']}]") for r in results)
    for r in results:
        name = f"[{r['label']}]".ljust(width)
        cells = []
        for config in CHECKERS:
            elapsed = r["seconds"].get(config)
            if elapsed is None:
                cells.append(f"{config}=        -")
                continue
            per_node = elapsed / max(1, r["nodes"]) * 1e6
            cells.append(f"{config}={per_node:9.1f}us/node")
        annotations = []
        if r["indexed_vs_linear"] is not None:
            annotations.append(f"idx/lin={r['indexed_vs_linear']:.2f}x")
        if r["indexed_vs_full"] is not None:
            annotations.append(f"idx/full={r['indexed_vs_full']:.2f}x")
        if r["gate_index"]:
            annotations.append("<== index gate")
        if r["gate_delta_full"]:
            annotations.append("<== delta gate")
        print(
            f"{name}  nodes={r['nodes']:5d}  " + "  ".join(cells) + "  "
            + " ".join(annotations)
        )


@dataclass
class SatGen2Case:
    """One component-counting comparison on the disconnected-components family.

    Times the one-shot ``SATWorldSearch.count_worlds`` (the product of the
    clause graph's per-component counts) against blocking-clause
    enumeration over the same encoding (the live session's
    ``count_worlds``).
    """

    label: str
    components: int
    rows_per_component: int
    values: int
    row_width: int


def _sat_gen2_sweep(smoke: bool) -> list[SatGen2Case]:
    if smoke:
        # Small enough for the smoke budget while still giving the component
        # path clear daylight over blocking-clause enumeration.
        sizes = [(3, 3, 4)]
    else:
        sizes = [(3, 3, 5), (4, 3, 4), (3, 3, 6)]
    return [
        SatGen2Case(
            label=f"components={components} rows={rows} values={values} width=1",
            components=components, rows_per_component=rows, values=values,
            row_width=1,
        )
        for components, rows, values in sizes
    ]


def run_sat_gen2_comparison(smoke: bool) -> list[dict] | None:
    """Race component counting against blocking-clause enumeration.

    Parity first, timing second, per case of the disconnected-components
    family: both counts must agree with the workload's closed-form world
    count.  A parity failure returns ``None`` (the caller fails the run).
    """
    results: list[dict] = []
    for case in _sat_gen2_sweep(smoke):
        workload = disconnected_components_workload(
            components=case.components,
            rows_per_component=case.rows_per_component,
            values=case.values,
            row_width=case.row_width,
        )
        args = (workload.cinstance, workload.master, workload.constraints)
        enum_search = IncrementalSATSession(*args, default_active_domain(*args))
        component_search = SATWorldSearch(*args)
        enum_count, enum_seconds = _timed(enum_search.count_worlds)
        component_count, component_seconds = _timed(component_search.count_worlds)
        if not (enum_count == component_count == workload.world_count):
            print(
                f"PARITY FAILURE in sat-gen2 [{case.label}]: "
                f"enumeration={enum_count} components={component_count} "
                f"expected={workload.world_count}"
            )
            return None
        results.append(
            {
                "label": case.label,
                "count": enum_count,
                "components": component_search.stats.components,
                "component_cache_hits": component_search.stats.component_cache_hits,
                "seconds": {
                    "enumeration": round(enum_seconds, 6),
                    "components": round(component_seconds, 6),
                },
                "speedup": (
                    enum_seconds / component_seconds
                    if component_seconds > 0 else None
                ),
            }
        )
    return results


def print_sat_gen2_report(results: list[dict]) -> None:
    print("\n== sat: component counting vs blocking-clause enumeration ==")
    width = max(len(f"[{r['label']}]") for r in results)
    for r in results:
        name = f"[{r['label']}]".ljust(width)
        seconds = r["seconds"]
        speedup = "-" if r["speedup"] is None else f"{r['speedup']:.2f}x"
        print(
            f"{name}  enum={seconds['enumeration'] * 1e3:8.2f}ms  "
            f"comp={seconds['components'] * 1e3:8.2f}ms  "
            f"count={r['count']} cache_hits={r['component_cache_hits']}  "
            f"speedup={speedup}  <== component gate"
        )


@dataclass
class UpdateStreamCase:
    """One update-stream comparison: workload parameters for both sides."""

    label: str
    steps: int
    master_size: int
    db_rows: int
    variable_count: int


def _update_stream_sweep(smoke: bool) -> list[UpdateStreamCase]:
    cases = [
        UpdateStreamCase(
            label=f"registry steps={UPDATE_STREAM_STEPS} master=4 vars=1",
            steps=UPDATE_STREAM_STEPS,
            master_size=4,
            db_rows=3,
            variable_count=1,
        )
    ]
    if not smoke:
        cases.append(
            UpdateStreamCase(
                label=f"registry steps={UPDATE_STREAM_STEPS} master=6 vars=2",
                steps=UPDATE_STREAM_STEPS,
                master_size=6,
                db_rows=4,
                variable_count=2,
            )
        )
    return cases


def run_update_stream_comparison(smoke: bool, seed: int) -> list[dict] | None:
    """Race an incremental facade against rebuild-and-redecide per step.

    Both sides see the identical ground add/drop script
    (:func:`repro.workloads.generator.update_stream_workload`; adds stay
    inside the registry constants, so the Prop. 3.3 Adom never changes and
    the incremental side's live SAT solver survives the whole stream).  At
    every step each side answers consistency (witness-free) and the model
    count on ``engine="sat"``:

    * **incremental** — one :class:`repro.api.Database` absorbs the step via
      :meth:`~repro.api.Database.update` (warm decision caches, incremental
      re-encode, live DPLL solver under assumption flips);
    * **rebuild** — a fresh facade is constructed over the post-step
      c-instance and decides from scratch (Adom + checker + CNF + solver).

    The per-step verdict/count streams must be identical (``None`` on a
    parity failure); the wall-clock ratio is the ISSUE 8 gate.
    """
    results: list[dict] = []
    for case in _update_stream_sweep(smoke):
        workload = update_stream_workload(
            steps=case.steps,
            master_size=case.master_size,
            db_rows=case.db_rows,
            variable_count=case.variable_count,
            seed=seed,
        )
        base = workload.base

        def apply(db: Database, step) -> None:
            rows = {step.relation: [step.row]}
            if step.kind == "add":
                db.update(add_rows=rows)
            else:
                db.update(drop_rows=rows)

        # Pre-compute the post-step c-instances outside both timed loops (the
        # rebuild side is charged for facade construction + deciding, not for
        # mutating row lists; the incremental side is charged for the update
        # itself too).
        mutator = Database(base.cinstance, base.master, base.constraints)
        step_instances: list[CInstance] = []
        for step in workload.script:
            apply(mutator, step)
            step_instances.append(mutator.cinstance)

        incremental = Database(
            base.cinstance, base.master, base.constraints, engine="sat"
        )
        incremental.is_consistent(witness=False)  # prime encoder + solver
        incremental_answers: list[tuple[bool, int]] = []

        def run_incremental() -> None:
            for step in workload.script:
                apply(incremental, step)
                verdict = incremental.is_consistent(witness=False)
                count = incremental.count()
                incremental_answers.append((bool(verdict), count.value))

        _, incremental_seconds = _timed(run_incremental)
        final = incremental.is_consistent(witness=False)

        rebuild_answers: list[tuple[bool, int]] = []

        def run_rebuild() -> None:
            for cinst in step_instances:
                db = Database(cinst, base.master, base.constraints, engine="sat")
                verdict = db.is_consistent(witness=False)
                count = db.count()
                rebuild_answers.append((bool(verdict), count.value))

        _, rebuild_seconds = _timed(run_rebuild)

        if incremental_answers != rebuild_answers:
            first = next(
                i
                for i, (a, b) in enumerate(zip(incremental_answers, rebuild_answers))
                if a != b
            )
            print(
                f"PARITY FAILURE in update stream [{case.label}] at step "
                f"{first}: incremental={incremental_answers[first]} "
                f"rebuild={rebuild_answers[first]}"
            )
            return None

        results.append(
            {
                "label": case.label,
                "steps": case.steps,
                "seconds": {
                    "incremental": round(incremental_seconds, 6),
                    "rebuild": round(rebuild_seconds, 6),
                },
                "speedup": (
                    rebuild_seconds / incremental_seconds
                    if incremental_seconds > 0
                    else None
                ),
                "reused_solver": final.stats.reused_solver,
                "final_cache_hit": final.stats.cache_hit,
            }
        )
    return results


def print_update_stream_report(results: list[dict]) -> None:
    print("\n== update stream: incremental Database.update vs rebuild ==")
    width = max(len(f"[{r['label']}]") for r in results)
    for r in results:
        name = f"[{r['label']}]".ljust(width)
        seconds = r["seconds"]
        speedup = r["speedup"]
        print(
            f"{name}  incremental={seconds['incremental'] * 1e3:8.2f}ms  "
            f"rebuild={seconds['rebuild'] * 1e3:8.2f}ms  "
            f"speedup={speedup:.2f}x  "
            f"reused_solver={r['reused_solver']}  <== update gate"
        )


def run_cases(cases: list[Case]) -> list[Outcome] | None:
    """Time every case on its engines; ``None`` signals a parity failure.

    Each engine runs a case :data:`CASE_REPEATS` times; the cell keeps the
    median call's time and stats, and every call's verdict must equal every
    other call's, on every engine.
    """
    outcomes: list[Outcome] = []
    for case in cases:
        seconds: dict[str, float] = {}
        verdicts: dict[str, object] = {}
        calls: dict[str, object] = {}
        stats: dict[str, dict] = {}
        for engine in case.engines:
            runs = [_timed(lambda e=engine: case.run(e)) for _ in range(CASE_REPEATS)]
            for call, (verdict, _elapsed) in enumerate(runs, 1):
                calls[f"{engine}#{call}"] = verdict
            verdict, elapsed = sorted(runs, key=lambda run: run[1])[CASE_REPEATS // 2]
            seconds[engine] = elapsed
            verdicts[engine] = verdict
            decision_stats = _decision_stats(verdict)
            if decision_stats is not None:
                stats[engine] = decision_stats
        distinct = {repr(v) for v in calls.values()}
        if len(distinct) > 1:
            print(
                f"PARITY FAILURE in {case.group} [{case.label}]: "
                + ", ".join(f"{label}={v!r}" for label, v in calls.items())
            )
            return None
        outcomes.append(
            Outcome(
                case=case,
                verdict=next(iter(verdicts.values())),
                seconds=seconds,
                stats=stats,
            )
        )
    return outcomes


def _format_cell(outcome: Outcome, engine: str) -> str:
    elapsed = outcome.seconds.get(engine)
    if elapsed is None:
        return "         -"
    return f"{elapsed * 1e3:8.2f}ms"


def print_report(outcomes: list[Outcome]) -> None:
    print(f"\nEach engine cell: the median of {CASE_REPEATS} calls.")
    width = max(len(f"[{o.case.label}]") for o in outcomes)
    group = None
    for outcome in outcomes:
        if outcome.case.group != group:
            group = outcome.case.group
            print(f"\n== {group} ==")
            header = "".ljust(width)
            print(
                f"{header}  {'naive':>10}  {'propagating':>11}  {'sat':>10}  "
                f"{'parallel':>10}"
            )
        name = f"[{outcome.case.label}]".ljust(width)
        prop_speed = outcome.speedup("propagating", over="naive")
        sat_speed = outcome.speedup("sat", over="propagating")
        parallel_speed = outcome.speedup("parallel", over="propagating")
        annotations = []
        if prop_speed is not None:
            annotations.append(f"prop/naive={prop_speed:.1f}x")
        if sat_speed is not None:
            annotations.append(f"sat/prop={sat_speed:.2f}x")
        if parallel_speed is not None:
            annotations.append(f"par/prop={parallel_speed:.2f}x")
        if outcome.case.headline:
            annotations.append("<== headline")
        if outcome.case.sat_showcase:
            annotations.append("<== sat gate")
        if outcome.case.parallel_showcase:
            annotations.append("<== parallel gate")
        print(
            f"{name}  {_format_cell(outcome, 'naive')}  "
            f"{_format_cell(outcome, 'propagating'):>11}  "
            f"{_format_cell(outcome, 'sat')}  "
            f"{_format_cell(outcome, 'parallel')}  "
            f"verdict={outcome.verdict!r}  " + " ".join(annotations)
        )


def evaluate_gates(
    outcomes: list[Outcome],
    smoke: bool,
    checker_results: list[dict] | None = None,
    update_results: list[dict] | None = None,
    sat_gen2_results: list[dict] | None = None,
) -> tuple[dict, int]:
    """Compute the acceptance gates; returns (summary, exit code)."""
    headline = [
        o.speedup("propagating", over="naive")
        for o in outcomes
        if o.case.headline and o.speedup("propagating", over="naive") is not None
    ]
    worst_headline = min(headline, default=None)

    sat_wins = {
        f"{o.case.group} [{o.case.label}]": o.speedup("sat", over="propagating")
        for o in outcomes
        if o.case.sat_showcase
    }
    best_sat = max((s for s in sat_wins.values() if s is not None), default=None)

    parallel_wins = {
        f"{o.case.group} [{o.case.label}]": o.speedup("parallel", over="propagating")
        for o in outcomes
        if o.case.parallel_showcase
    }
    best_parallel = max(
        (s for s in parallel_wins.values() if s is not None), default=None
    )
    host_cpus = _host_cpus()
    parallel_gate_enforced = host_cpus >= PARALLEL_GATE_WORKERS

    checker_results = checker_results or []
    delta_by_case = {
        f"checker [{r['label']}]": r["indexed_vs_full"]
        for r in checker_results
        if r["gate_delta_full"]
    }
    worst_delta = min(
        (s for s in delta_by_case.values() if s is not None), default=None
    )
    index_by_case = {
        f"checker [{r['label']}]": r["indexed_vs_linear"]
        for r in checker_results
        if r["gate_index"]
    }
    worst_index = min(
        (s for s in index_by_case.values() if s is not None), default=None
    )

    update_results = update_results or []
    update_by_case = {
        f"update stream [{r['label']}]": r["speedup"] for r in update_results
    }
    worst_update = min(
        (s for s in update_by_case.values() if s is not None), default=None
    )

    sat_gen2_results = sat_gen2_results or []
    component_by_case = {
        f"sat-gen2 [{r['label']}]": r["speedup"] for r in sat_gen2_results
    }
    worst_component = min(
        (s for s in component_by_case.values() if s is not None), default=None
    )

    failed: list[str] = []

    def gate(
        name: str,
        value: float | None,
        passed: Callable[[float], bool],
        describe: Callable[[float], str],
        failure: str,
    ) -> None:
        """Print one gate's verdict; record it as failed unless it passed."""
        if value is None:
            print(f"FAILED: no {name} case ran")
            failed.append(name)
            return
        print(describe(value))
        if not passed(value):
            print(f"FAILED: {failure}")
            failed.append(name)

    print()
    gate(
        "headline",
        worst_headline,
        lambda v: smoke or v >= REQUIRED_SPEEDUP,
        lambda v: "Headline speedup (largest naive-feasible registry cases): "
        f"{v:.1f}x (required ≥ {REQUIRED_SPEEDUP:.0f}x"
        f"{' in full mode' if smoke else ''})",
        "pruned engine did not reach the required speedup",
    )
    gate(
        "sat-vs-propagating",
        best_sat,
        lambda v: v > REQUIRED_SAT_WIN,
        lambda v: "Best SAT-vs-propagating speedup on the inequality-heavy "
        f"family: {v:.2f}x (required > {REQUIRED_SAT_WIN:.0f}x)",
        "SAT engine did not beat the propagating engine anywhere",
    )
    gate(
        "parallel",
        best_parallel,
        lambda v: not parallel_gate_enforced or v >= REQUIRED_PARALLEL_SPEEDUP,
        lambda v: "Best parallel-vs-propagating speedup on the wide-pool family "
        f"(workers={PARALLEL_GATE_WORKERS}): {v:.2f}x "
        f"(required >= {REQUIRED_PARALLEL_SPEEDUP:.0f}x on hosts with >= "
        f"{PARALLEL_GATE_WORKERS} CPUs; this host has {host_cpus})",
        "parallel engine did not reach the required speedup over the "
        "propagating engine on the wide-pool family",
    )
    if best_parallel is not None and not parallel_gate_enforced:
        print(
            f"parallel gate SKIPPED: host has {host_cpus} CPU(s) < "
            f"{PARALLEL_GATE_WORKERS}; a process-parallel speedup cannot be "
            "demonstrated here (parity above still covered the engine)"
        )
    gate(
        "delta-vs-full",
        worst_delta,
        lambda v: v >= REQUIRED_DELTA_SPEEDUP,
        lambda v: "Worst indexed-delta-vs-full checker per-node speedup on the "
        f"wide-constraint family: {v:.2f}x "
        f"(required >= {REQUIRED_DELTA_SPEEDUP:.0f}x)",
        "the delta checker did not reach the required per-node speedup over "
        "the full checker on the wide-constraint family",
    )
    gate(
        "indexed-vs-linear",
        worst_index,
        lambda v: v >= REQUIRED_INDEX_SPEEDUP,
        lambda v: "Worst indexed-vs-linear delta checker per-node speedup on "
        f"the wide-constraint and skew families: {v:.2f}x "
        f"(required >= {REQUIRED_INDEX_SPEEDUP:.0f}x)",
        "the indexed delta checker did not reach the required per-node "
        "speedup over the linear-scan delta baseline",
    )
    gate(
        "update-stream",
        worst_update,
        lambda v: v >= REQUIRED_UPDATE_STREAM_SPEEDUP,
        lambda v: "Worst incremental-update-vs-rebuild speedup on the "
        f"{UPDATE_STREAM_STEPS}-step registry stream: {v:.2f}x "
        f"(required >= {REQUIRED_UPDATE_STREAM_SPEEDUP:.0f}x)",
        "the incremental update path did not reach the required speedup "
        "over rebuilding and re-deciding per step",
    )
    gate(
        "component",
        worst_component,
        lambda v: v >= REQUIRED_COMPONENT_SPEEDUP,
        lambda v: "Worst component-vs-enumeration counting speedup on "
        f"multi-component instances: {v:.2f}x "
        f"(required >= {REQUIRED_COMPONENT_SPEEDUP:.0f}x)",
        "component-caching counting did not reach the required speedup over "
        "blocking-clause enumeration",
    )

    summary = {
        "propagating_vs_naive_headline": worst_headline,
        "required_headline_speedup": REQUIRED_SPEEDUP,
        "sat_vs_propagating_by_case": sat_wins,
        "best_sat_vs_propagating": best_sat,
        "required_sat_win": REQUIRED_SAT_WIN,
        "parallel_vs_propagating_by_case": parallel_wins,
        "best_parallel_vs_propagating": best_parallel,
        "required_parallel_speedup": REQUIRED_PARALLEL_SPEEDUP,
        "parallel_gate_workers": PARALLEL_GATE_WORKERS,
        "host_cpus": host_cpus,
        "parallel_gate_enforced": parallel_gate_enforced,
        "delta_vs_full_checker_by_case": delta_by_case,
        "worst_delta_vs_full_checker": worst_delta,
        "required_delta_speedup": REQUIRED_DELTA_SPEEDUP,
        "indexed_vs_linear_delta_by_case": index_by_case,
        "worst_indexed_vs_linear_delta": worst_index,
        "required_index_speedup": REQUIRED_INDEX_SPEEDUP,
        "checker_cases": checker_results,
        "update_stream_by_case": update_by_case,
        "worst_update_stream_speedup": worst_update,
        "required_update_stream_speedup": REQUIRED_UPDATE_STREAM_SPEEDUP,
        "update_stream_cases": update_results,
        "component_vs_enumeration_by_case": component_by_case,
        "worst_component_vs_enumeration_speedup": worst_component,
        "required_component_speedup": REQUIRED_COMPONENT_SPEEDUP,
        "sat_gen2_cases": sat_gen2_results,
        "failed_gates": failed,
    }
    if failed:
        print(f"FAILED gates ({len(failed)}): {', '.join(failed)}")
        return summary, 1
    print("All parity checks and perf gates passed.")
    return summary, 0


def write_json(
    path: str, outcomes: list[Outcome], summary: dict, smoke: bool, status: int
) -> None:
    payload = {
        "benchmark": "bench_engine",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "smoke": smoke,
        "status": "passed" if status == 0 else "failed",
        "engines": list(ALL_ENGINES),
        "case_repeats": CASE_REPEATS,
        "cases": [
            {
                "group": o.case.group,
                "label": o.case.label,
                "verdict": repr(o.verdict),
                "seconds": {k: round(v, 6) for k, v in o.seconds.items()},
                "speedups": {
                    "propagating_vs_naive": o.speedup("propagating", over="naive"),
                    "sat_vs_naive": o.speedup("sat", over="naive"),
                    "sat_vs_propagating": o.speedup("sat", over="propagating"),
                    "parallel_vs_propagating": o.speedup(
                        "parallel", over="propagating"
                    ),
                },
                "stats": o.stats,
                "headline": o.case.headline,
                "sat_showcase": o.case.sat_showcase,
                "parallel_showcase": o.case.parallel_showcase,
            }
            for o in outcomes
        ],
        "gates": summary,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    print(f"Wrote machine-readable results to {path}")


def run_benchmark(smoke: bool, json_path: str | None = None, seed: int = 0) -> int:
    cases = (
        _registry_cases(smoke, seed)
        + _reduction_cases(smoke, seed)
        + _model_count_cases(smoke, seed)
        + _inequality_cases(smoke)
        + _scale_up_cases(smoke, seed)
        + _wide_pool_cases(smoke)
    )
    try:
        outcomes = run_cases(cases)
        if outcomes is None:
            return 1
        checker_results = run_checker_comparison(smoke)
        if checker_results is None:
            return 1
        update_results = run_update_stream_comparison(smoke, seed)
        if update_results is None:
            return 1
        sat_gen2_results = run_sat_gen2_comparison(smoke)
        if sat_gen2_results is None:
            return 1
        print_report(outcomes)
        print_checker_report(checker_results)
        print_update_stream_report(update_results)
        print_sat_gen2_report(sat_gen2_results)
        summary, status = evaluate_gates(
            outcomes, smoke, checker_results, update_results, sat_gen2_results
        )
        if json_path:
            write_json(json_path, outcomes, summary, smoke, status)
        return status
    finally:
        shutdown_pools()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sweep for CI: parity checks plus a quick speedup report",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write per-engine timings/speedups to PATH as JSON",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for every seeded workload builder (registry sweeps, the "
        "random ∀∃ reduction instances, the update stream); the "
        "deterministic families ignore it",
    )
    args = parser.parse_args()
    return run_benchmark(smoke=args.smoke, json_path=args.json, seed=args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
