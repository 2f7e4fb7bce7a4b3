"""The benchmark's own checks, run on the program: a few sweep operations and every exact one.

The sweep checks what run_protocol returns.  The exact workload checks
scores, the G2 frontier, the equivalence checks' overlaps and probabilities,
the samplers and the response tables against closed forms and references of
its own.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()
SWEEP = {op.name: op for op in WORKLOADS._sweep(0).ops}
EXACT = {op.name: op for op in WORKLOADS._exact(0).ops}


# the two honest runs read the verdict, its conditions and the Rand bin; an aborting one reads the verdict
@pytest.mark.parametrize("name", ["honest.P", "honest.Q", "always_zero.P", "x1_forwarder.Q"])
def test_sweep_op_passes_its_check(name):
    op = SWEEP[name]
    assert op.check(op.run()) is None


def test_sweep_check_fails_on_a_wrong_result():
    honest, aborting = SWEEP["honest.P"], SWEEP["always_zero.P"]
    with pytest.raises(WORKLOADS.CheckFailed, match="honest P: ABORT"):
        honest.check(aborting.run())
    with pytest.raises(WORKLOADS.CheckFailed, match="always_zero.P: PASS, expected ABORT"):
        aborting.check(honest.run())


def test_exact_workload_has_every_op():
    assert len(EXACT) == 54
    assert sum(name.startswith("equivalence_check.") for name in EXACT) == 3


@pytest.mark.parametrize("name", list(EXACT))
def test_exact_op_passes_its_check(name):
    op = EXACT[name]
    assert op.before is None
    assert op.check(op.run()) is None
