"""Shared test fixtures."""

import tracemalloc

import numpy as np
import pytest

from diqrng import protocols


def _traced_peak(fn):
    """Call fn() under tracemalloc; return its result and the peak traced bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _traced_slope(fn, sizes, units=None):
    """The traced peak's growth per unit from fn(sizes[0]) to fn(sizes[1]).

    A call's units are its size n, or ``units(result)`` of what it returns.
    """
    (first, low), (second, high) = (_traced_peak(lambda: fn(n)) for n in sizes)
    if units is None:
        return (high - low) / (sizes[1] - sizes[0])
    return (high - low) / (units(second) - units(first))


@pytest.fixture
def traced_peak():
    return _traced_peak


@pytest.fixture
def traced_slope():
    return _traced_slope


def _replay_rounds(config, devices):
    """Every round of a protocol run in round order, as int64 columns (x, setting, b) with x = 2*x0 + x1.

    A replay of ``protocols._round_chunks``, the round stream that ``run_protocol`` tallies.
    """
    table = devices.response_table(config.protocol)
    chunks = protocols._round_chunks(config, devices)
    code = np.concatenate([code.copy() for code, _ in chunks])     # each chunk's views are overwritten by the next
    x, setting = np.divmod(code >> 1, table.shape[2])
    return x, setting, code & 1


@pytest.fixture
def replay_rounds():
    return _replay_rounds
