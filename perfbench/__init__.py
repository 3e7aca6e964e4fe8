"""The guard benchmark: seeded workloads, verdict oracle, timed and traced runs.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
