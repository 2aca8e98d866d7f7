"""Benchmark for sprayflow's coupled step; see README.md in this directory."""
