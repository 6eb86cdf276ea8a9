"""Fixtures shared across test modules."""

import gc
import warnings

import pytest


@pytest.fixture
def no_inherited_leaks():
    """Finalize what earlier test modules left in reference cycles (an
    unclosed client's socket, say), so a garbage collection that happens
    to run during a test of a module that treats ``ResourceWarning`` as
    an error does not blame that test for it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResourceWarning)
        gc.collect()
