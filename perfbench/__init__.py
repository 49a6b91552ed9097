"""Benchmark for the repository: workloads, metrics and outside-in spans."""
