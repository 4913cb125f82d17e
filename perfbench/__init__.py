"""Benchmark of the programmable-environment pipeline; see README.md."""
