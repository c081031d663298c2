"""Benchmark harness for spxkit; see run.py."""
