"""Benchmark harness for hardylab: workloads (workloads.py), tracing (tracing.py), driver (run.py)."""
