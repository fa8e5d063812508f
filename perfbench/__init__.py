"""Benchmark harness: workloads, span tracing and metrics (see run.py)."""
