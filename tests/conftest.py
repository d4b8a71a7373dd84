"""Test-suite settings.

Hypothesis draws its examples from a seed derived from each test, so the
property and fuzz tests check the same examples on every run.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")
