"""Benchmark for ripplesim: workloads, output oracles and call-site tracing.

Run with ``python3 perfbench/run.py --workload corpus --seed 1 --seconds 30
--trace 0`` from the root of a checkout; see perfbench/README.md.
"""
