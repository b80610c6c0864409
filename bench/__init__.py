"""The repository benchmark: two paper-pipeline and two serving workloads.

Run one workload with ``python -m bench run --workload <name> --seed <n>``;
README.md in this directory documents the workloads, the metrics and how
to trace and compare runs.  Importing this package loads nothing from the
program under test: the program is imported only inside the child
process that runs a workload.
"""
