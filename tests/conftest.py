"""Hypothesis draws the same examples on every run, so a failure reproduces."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
