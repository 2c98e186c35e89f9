"""Benchmark harness for resilient_te: workloads, correctness gates and a
span tracer that wraps the package's public functions from outside."""
