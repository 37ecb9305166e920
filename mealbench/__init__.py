"""Benchmark of the mealopt solvers; run it with `python3 mealbench/run.py`."""
