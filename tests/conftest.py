"""Hypothesis profiles for the suite.

``tier1``, loaded here, draws the same examples on every run
(``derandomize``), keeps no example database and sets no deadline, so a
verdict never changes between two runs of one tree. ``deep``
(``pytest --hypothesis-profile=deep``) draws at random, runs ten times each
test's ``max_examples`` and prints the blob that reproduces a failure; CI
runs it as a step of its own, never as part of tier-1. A ``@settings``
sets only ``max_examples``: ``tests/test_hypothesis_profiles.py`` checks it.
"""
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.register_profile("deep", database=None, deadline=None, print_blob=True)
settings.load_profile("tier1")

DEEP_FACTOR = 10


def pytest_collection_modifyitems(items):
    """Under ``deep``, scale each Hypothesis test's examples, once per test
    function however many parameter sets it has."""
    if settings.get_current_profile_name() != "deep":
        return
    scaled = set()
    for item in items:
        test = getattr(item, "function", None)
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is None or test in scaled:
            continue
        scaled.add(test)
        test._hypothesis_internal_use_settings = settings(
            own, max_examples=DEEP_FACTOR * own.max_examples)
