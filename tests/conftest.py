"""Hypothesis profiles: ``--hypothesis-profile=ci`` draws the same examples
on every run, so a failure in CI reproduces locally with the same option.

``orchestrator.execute``, ``run --single-task`` and ``cli.main`` on its way
out freeze the collector's heap, which in a test session holds the objects
of every earlier test.  The autouse fixture unfreezes it after each test, so
that the collector, and with it the unraisable-exception check, sees those
objects again."""
import gc

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)


@pytest.fixture(autouse=True)
def _unfreeze_after_each_test():
    yield
    gc.unfreeze()
