"""Tests of the benchmark itself: generators, spans, checks and compare."""
