"""Settings every property test shares: the same fixed examples on every
run, no example database and no per-example deadline, so tier-1 stays
deterministic and its time stays bounded."""

import warnings

import pytest
from hypothesis import settings

settings.register_profile(
    "hamsync", derandomize=True, database=None, deadline=None, max_examples=25
)
settings.load_profile("hamsync")


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Let a failing property test be reported.  Hypothesis then imports
    libcst to write its failing examples as a patch, and that import raises a
    DeprecationWarning, which filterwarnings = ["error"] would turn into an
    internal error that ends the whole session.  Test code runs outside this
    hook, so its warnings still fail it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        yield
