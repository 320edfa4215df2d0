"""Benchmark harness for forcedwaves; see benchmarks/README.md."""
