"""The benchmark's traced run wraps program attributes by name; each must still exist."""

import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_spans()._TRACED


@pytest.mark.parametrize("owner, attr, span", TRACED, ids=[span + ":" + attr for _, attr, span in TRACED])
def test_traced_name_resolves(owner, attr, span):
    assert callable(getattr(owner, attr, None)), f"{span}: {getattr(owner, '__name__', owner)}.{attr} is gone"
