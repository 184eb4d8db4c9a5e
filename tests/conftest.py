"""Hypothesis profiles: ``--hypothesis-profile=ci`` draws the same examples
on every run, so a failure in CI reproduces locally with the same option."""
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
