"""The sembench benchmark: workloads, timed runs, a traced per-layer run.

Run it from the root of a checkout with ``python3 perfbench/run.py``; see
``run.py`` for the options and ``spec.py`` for the metrics it reports.
"""
