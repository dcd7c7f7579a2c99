#!/usr/bin/env python3
"""Quickstart: is my database complete for my query, relative to master data?

This walks through the paper's opening example (Example 1.1 / Figure 1)
using the ``Database`` facade — the stable 2.0 API:

1. a master registry of Edinburgh patients born in 2000 (closed world),
2. a visits database with *missing tuples* (it is open world outside the
   registry's scope) and *missing values* (a c-table with variables),
3. containment constraints tying the two together, and
4. the question: does the database have complete information for a query,
   even though data is missing?

Run with:  python examples/quickstart.py
"""

from repro import Database, EngineConfig
from repro.completeness import CompletenessModel
from repro.workloads import build_patient_scenario, display_figure1_cinstance


def main() -> None:
    scenario = build_patient_scenario()

    print("=" * 72)
    print("Master data (closed world: Edinburgh patients born in 2000)")
    print("=" * 72)
    for row in scenario.master.relation("Patientm"):
        print("  Patientm", row)

    print()
    print("=" * 72)
    print("The Figure 1 c-table (display version; x, z, w, u are missing values)")
    print("=" * 72)
    for row in display_figure1_cinstance()["MVisit"]:
        print(" ", row)

    print()
    print("=" * 72)
    print("Containment constraints (Example 2.1)")
    print("=" * 72)
    for constraint in scenario.constraints:
        print(" ", constraint)

    # One facade holds the whole analysis context: the c-instance, the
    # master data, the constraints, a cached Adom and a prebuilt constraint
    # checker shared by every call below.
    db = Database(scenario.figure1, scenario.master, scenario.constraints)

    print()
    print("=" * 72)
    print("Consistency: is the c-instance satisfiable at all?")
    print("=" * 72)
    consistency = db.is_consistent()
    print(f"  consistent: {consistency.holds}  (engine: {consistency.engine_used})")
    print(f"  one concrete possible world: {consistency.witness!r}")
    print(f"  distinct possible worlds over Adom: {db.count().value}")

    print()
    print("=" * 72)
    print("Relative completeness of the (analysis) c-instance")
    print("=" * 72)
    queries = {
        "Q1  (John's record)": scenario.q1,
        "Q4  (all Edinburgh-2000 patients)": scenario.q4,
        "Q3  (London patients — outside master scope)": scenario.q3,
    }
    for label, query in queries.items():
        print(f"\n  {label}: {query!r}")
        for model in (CompletenessModel.STRONG, CompletenessModel.WEAK, CompletenessModel.VIABLE):
            decision = db.complete(query, model)
            note = ""
            if model is CompletenessModel.STRONG and not decision:
                # Rich results: the strong decider hands back the
                # counterexample — a world plus the extension that changes
                # the query answer.
                ground = decision.witness.ground_witness
                added = ground.extension.size - ground.instance.size
                note = f"  (counterexample adds {added} tuple(s))"
            print(f"    {model.value:>7} completeness: {decision.holds}{note}")

    print()
    print("=" * 72)
    print("Engine selection through EngineConfig (same verdicts, any engine)")
    print("=" * 72)
    for config in ("propagating", EngineConfig(name="sat")):
        decision = db.complete(scenario.q1, CompletenessModel.STRONG, engine=config)
        print(
            f"  engine={decision.engine_used:<12} strong(Q1)={decision.holds}  "
            f"wall={decision.stats.wall_time * 1e3:.1f}ms"
        )

    print()
    print("Reading the verdicts:")
    print("  * Q1 is strongly complete — no matter how the missing values are")
    print("    filled in, adding tuples cannot change John's record (the master")
    print("    data and the FD pin it down).")
    print("  * Q4 is weakly and viably complete but NOT strongly complete —")
    print("    exactly the situation of Example 2.3.")
    print("  * Q3 is neither strongly nor viably complete: master data says")
    print("    nothing about London, so new visits can always show up")
    print("    (Example 2.2).  It is trivially weakly complete only because no")
    print("    individual London visit is *certain* over all extensions — the")
    print("    certain answer stays empty on both sides of the definition.")


if __name__ == "__main__":
    main()
