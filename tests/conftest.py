"""Hypothesis profiles: `pytest --hypothesis-profile=ci` runs 2,000 examples a test."""

from hypothesis import settings

settings.register_profile("ci", max_examples=2000)
