"""Benchmark harness for the fahp command line: workloads, checks, spans."""
