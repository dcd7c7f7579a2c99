#!/usr/bin/env python
"""Seeded differential fuzz campaign over the world-search engines.

Drives the reusable three-way harness (``tests/search/harness.py``: naive
reference, propagating, SAT) with randomly parameterised workloads, in four
campaign families:

* **static** — a generated c-instance is run through every engine via
  :func:`harness.assert_engine_parity` (world sets, multisets,
  ``(valuation, world)`` pairs, counts, existence, and ``stats.worlds``
  counting the valuations after ``search()`` and ``count_worlds()`` on every
  engine, and after a fresh live SAT session's count) and
  :func:`harness.assert_rooted_parity` (its ground rows split off as an
  instance ``I``, every engine's run of a search template over the other
  rows rooted at ``I`` must equal that engine over the whole instance).
  The c-instance of :func:`harness.random_decider_case` for the same seed,
  whose rows carry ``=``/``≠`` conditions, then meets
  :func:`harness.assert_engine_parity` too, so the counts meet rows that
  drop out and leave their other variables free;
* **stream** — a random ground add/drop script is applied step-by-step via
  :meth:`repro.api.Database.update` and checked against a
  rebuilt-from-scratch facade at every step through
  :func:`harness.assert_update_stream_parity` (the update-vs-rebuild
  differential), violations included.  At every step the live SAT session
  counts twice, through the facade and directly (bypassing the decision
  cache), and both counts must equal the rebuild's;
* **components** — a randomly sized disconnected-components workload is
  counted three ways (the one-shot SAT engine's component-caching count,
  the live SAT session's count on its enumeration solver and the
  propagating engine) and every answer is checked against the closed-form
  ``values ** (row_width * components)`` world count;
* **deciders** — a random c-instance and CQ or UCQ of
  :func:`harness.random_decider_case` meet the strong, viable and MINP
  deciders, which test one world per renaming of the fresh Adom values on
  the propagating engine: :func:`harness.assert_representative_parity`
  holds them to the verdict and witness of a drop-in that tests every world
  (and to the naive verdict), and :func:`harness.assert_limited_parity` to
  its answers under a ``limit``.  The same case meets the weak-completeness
  report, both certain answers and MINPʷ, which intersect the renaming
  closure of one world's answer per class:
  :func:`harness.assert_certain_parity` holds them to the drop-in's answers
  and to naive's and SAT's, and
  :func:`harness.assert_certain_limited_parity` to the drop-in's answers
  under the same ``limit``.

The family is ``seed % 4`` in the order above.  Every case is reproduced by
its printed seed::

    python scripts/fuzz_differential.py --replay 1234

The campaign is budgeted by wall-clock (``--seconds``, default 300;
``scripts/check.sh`` runs a 60-second smoke slice) or by case count
(``--cases``).  Failing seeds are appended to a JSON report (``--out``,
default ``FUZZ_FAILURES.json``) that the nightly CI job uploads as an
artifact; the exit status is the number of failing cases (capped at 99).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import time
import traceback

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests" / "search"))

from harness import (  # noqa: E402  (path set up above)
    assert_certain_limited_parity,
    assert_certain_parity,
    assert_engine_parity,
    assert_limited_parity,
    assert_representative_parity,
    assert_rooted_parity,
    assert_update_stream_parity,
    random_decider_case,
)
from repro.ctables.possible_worlds import default_active_domain  # noqa: E402
from repro.search.engine import WorldSearch  # noqa: E402
from repro.search.sat_engine import (  # noqa: E402
    IncrementalSATSession,
    SATWorldSearch,
)
from repro.workloads.generator import (  # noqa: E402
    disconnected_components_workload,
    registry_workload,
    update_stream_workload,
)


def run_static_case(seed: int) -> str:
    """One three-way static-parity case; returns a human-readable label."""
    rng = random.Random(f"fuzz-static:{seed}")
    params = dict(
        master_size=rng.randint(2, 5),
        db_rows=rng.randint(1, 3),
        variable_count=rng.randint(0, 2),
        with_fd=rng.random() < 0.7,
        seed=seed,
    )
    workload = registry_workload(**params)
    assert_engine_parity(workload.cinstance, workload.master, workload.constraints)
    assert_rooted_parity(workload.cinstance, workload.master, workload.constraints)
    # registry_workload's rows all hold unconditionally; these carry =/≠
    # conditions on variables that may occur nowhere else.
    conditioned = random_decider_case(seed)
    assert_engine_parity(
        conditioned.cinstance, conditioned.master, conditioned.constraints
    )
    return f"static {params} conditioned {conditioned.label}"


def run_stream_case(seed: int) -> str:
    """One update-vs-rebuild stream case; returns a human-readable label."""
    rng = random.Random(f"fuzz-stream:{seed}")
    params = dict(
        steps=rng.randint(3, 10),
        master_size=rng.randint(2, 4),
        db_rows=rng.randint(1, 3),
        variable_count=rng.randint(0, 2),
        with_fd=rng.random() < 0.7,
        include_violations=rng.random() < 0.5,
        seed=seed,
    )
    workload = update_stream_workload(**params)
    assert_update_stream_parity(
        workload.base.cinstance,
        workload.base.master,
        workload.base.constraints,
        workload.script,
    )
    return f"stream {params}"


def run_components_case(seed: int) -> str:
    """One disconnected-components counting case across both SAT paths."""
    rng = random.Random(f"fuzz-components:{seed}")
    params = dict(
        components=rng.randint(1, 3),
        rows_per_component=rng.randint(1, 3),
        values=rng.randint(2, 4),
        row_width=rng.randint(1, 2),
    )
    workload = disconnected_components_workload(**params)
    args = (workload.cinstance, workload.master, workload.constraints)
    expected = workload.world_count
    counts = {
        "sat-components": SATWorldSearch(*args).count_worlds(),
        "sat-session": IncrementalSATSession(
            *args, default_active_domain(*args)
        ).count_worlds(),
        "propagating": WorldSearch(*args).count_worlds(),
    }
    mismatched = {
        label: count for label, count in counts.items() if count != expected
    }
    if mismatched:
        raise AssertionError(
            f"count mismatch vs closed form {expected}: {mismatched} ({params})"
        )
    return f"components {params}"


def run_deciders_case(seed: int) -> str:
    """One strong/viable/MINP and weak/certain-answer case against full
    enumeration, unbounded and under a ``limit``; returns a human-readable
    label."""
    case = random_decider_case(seed)
    assert_representative_parity(case)
    assert_certain_parity(case)
    limit = random.Random(f"fuzz-deciders:{seed}").choice([5, 10, 20])
    assert_limited_parity(case, limit)
    assert_certain_limited_parity(case, limit)
    return f"deciders limit={limit} {case.label}"


CASE_FAMILIES = (
    ("static", run_static_case),
    ("stream", run_stream_case),
    ("components", run_components_case),
    ("deciders", run_deciders_case),
)


def run_case(seed: int) -> str:
    family, runner = CASE_FAMILIES[seed % len(CASE_FAMILIES)]
    del family
    return runner(seed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seconds",
        type=float,
        default=300.0,
        help="wall-clock budget for the campaign (default: 300)",
    )
    parser.add_argument(
        "--cases",
        type=int,
        default=None,
        help="stop after this many cases regardless of the time budget",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="first case seed; cases use seed, seed+1, ... (default: 0)",
    )
    parser.add_argument(
        "--replay",
        type=int,
        default=None,
        metavar="SEED",
        help="run exactly one case with this seed and exit",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("FUZZ_FAILURES.json"),
        help="JSON report of failing seeds (default: FUZZ_FAILURES.json)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="continue the campaign past failures instead of stopping at 5",
    )
    args = parser.parse_args(argv)

    if args.replay is not None:
        label = run_case(args.replay)
        print(f"seed {args.replay}: OK ({label})")
        return 0

    deadline = time.monotonic() + args.seconds
    failures: list[dict] = []
    cases = 0
    seed = args.seed
    while time.monotonic() < deadline:
        if args.cases is not None and cases >= args.cases:
            break
        try:
            label = run_case(seed)
        except Exception:
            failures.append(
                {
                    "seed": seed,
                    "replay": f"python scripts/fuzz_differential.py --replay {seed}",
                    "traceback": traceback.format_exc(),
                }
            )
            print(f"seed {seed}: FAILED", file=sys.stderr)
            if not args.keep_going and len(failures) >= 5:
                break
        else:
            if cases % 25 == 0:
                print(f"seed {seed}: OK ({label})")
        cases += 1
        seed += 1

    print(f"ran {cases} cases, {len(failures)} failed")
    if failures:
        args.out.write_text(json.dumps(failures, indent=2) + "\n")
        print(f"failing seeds written to {args.out}", file=sys.stderr)
    return min(len(failures), 99)


if __name__ == "__main__":
    raise SystemExit(main())
