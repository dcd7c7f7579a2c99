"""Update-stream parity: incremental ``Database.update`` vs rebuild oracle.

The differential harness gains an *update-stream* mode in this PR
(:func:`harness.assert_update_stream_parity`): a single incremental facade
applies a scripted sequence of ground adds/drops via
:meth:`repro.api.Database.update` while, at every step, a fresh facade is
rebuilt from scratch over the same c-instance and both are observed through
all three engines.  Any divergence — a stale decision cache entry, a live
SAT solver whose assumption set drifted from the c-instance, a checker
session left holding a retracted tuple — shows up as a parity failure at
the exact step that introduced it.

Scripts come from :func:`repro.workloads.update_stream_workload`; the
``include_violations`` variant steers the stream through certainly
inconsistent states (off-registry rows), exercising the empty-``Mod``
branches of every engine mid-stream.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harness import assert_update_stream_parity
from repro.workloads.generator import update_stream_workload

pytestmark = pytest.mark.delta_differential


@pytest.mark.parametrize("seed", range(4))
def test_consistent_stream_parity(seed):
    """Registry-pair streams keep Adom stable and every engine in agreement."""
    workload = update_stream_workload(
        steps=8, master_size=4, db_rows=2, variable_count=1, seed=seed
    )
    db = assert_update_stream_parity(
        workload.base.cinstance,
        workload.base.master,
        workload.base.constraints,
        workload.script,
    )
    # The whole stream stayed inside the registry constants: the live SAT
    # session must have survived every step.
    decision = db.is_consistent(witness=False)
    assert decision.stats.reused_solver is True


@pytest.mark.parametrize("seed", range(3))
def test_violating_stream_parity(seed):
    """Streams that pass through inconsistent states stay in parity too."""
    workload = update_stream_workload(
        steps=8,
        master_size=4,
        db_rows=2,
        variable_count=1,
        include_violations=True,
        seed=seed,
    )
    assert_update_stream_parity(
        workload.base.cinstance,
        workload.base.master,
        workload.base.constraints,
        workload.script,
    )


def test_no_fd_stream_parity():
    """Without the FD the instance has more worlds; parity must still hold."""
    workload = update_stream_workload(
        steps=6, master_size=3, db_rows=2, variable_count=1, with_fd=False, seed=5
    )
    assert_update_stream_parity(
        workload.base.cinstance,
        workload.base.master,
        workload.base.constraints,
        workload.script,
    )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), steps=st.integers(1, 6))
def test_random_stream_parity(seed, steps):
    """Hypothesis-driven scripts: any add/drop order, violations included."""
    workload = update_stream_workload(
        steps=steps,
        master_size=3,
        db_rows=2,
        variable_count=1,
        include_violations=True,
        seed=seed,
    )
    assert_update_stream_parity(
        workload.base.cinstance,
        workload.base.master,
        workload.base.constraints,
        workload.script,
    )
