"""The repository benchmark: workloads, end-to-end metrics and a layer trace.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload (see :mod:`perfbench.workloads`) from the repository root and
prints its metrics; ``BENCHMARK.json`` at the root declares them.
"""
