"""Shared test fixtures."""

import tracemalloc

import pytest


def _traced_peak(fn):
    """Call fn() under tracemalloc; return its result and the peak traced bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
