"""The benchmark's trace seams still name real functions of the library.

A traced benchmark run (``python3 perfbench/run.py --trace 1``) wraps library
functions by attribute name (:func:`perfbench.trace.engine_seams`).  Renaming
one of them breaks the traced run with an ``AttributeError`` that no other
test would see, so this test installs every seam against ``src/``, drives the
live SAT path through them and uninstalls them again.
"""

from __future__ import annotations

from perfbench import trace
from repro.api import Database
from repro.workloads.patients import build_patient_scenario

BOB_2000 = ("915-15-336", "Bob", "EDI", 2000)
BOB_2001 = ("915-15-336", "Bob", "EDI", 2001)


def test_engine_seams_install_drive_and_uninstall():
    seams = trace.engine_seams()
    originals = [(seam.owner, seam.attr, getattr(seam.owner, seam.attr)) for seam in seams]
    recorder = trace.SpanRecorder()
    uninstall = trace.install(recorder, seams)
    try:
        scenario = build_patient_scenario()
        db = Database(
            scenario.figure1, scenario.master, scenario.constraints, engine="sat"
        )
        db.update(add_rows={"MVisit": [BOB_2000]})
        assert db.is_consistent(witness=False)
        db.update(add_rows={"MVisit": [BOB_2001]}, drop_rows={"MVisit": [BOB_2000]})
        assert db.count().value == 18
        assert db.is_consistent().witness is not None
    finally:
        uninstall()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, f"{owner!r}.{attr} not restored"
    spans = {name for _span, _parent, _op, name, *_rest in recorder.rows()}
    assert {
        "api.update", "api.count", "cnf.encode", "cnf.add_ground", "dpll.load",
        "dpll.solve", "sat.session", "sat.apply", "sat.has_world", "sat.count",
    } <= spans
