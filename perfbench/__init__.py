"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``, or all three with ``--workload all``.  See
``perfbench/NOTES.md`` for what each workload exercises and where its
percentiles fall.
"""
