"""The benchmark's own checks, run on the program: every sweep, exact and montecarlo operation, and the
stream workload's operations at 1e6 rounds.

The sweep checks what run_protocol returns.  The exact workload checks
scores, the G2 frontier, the equivalence checks' overlaps and probabilities,
the samplers and the response tables against closed forms and references of
its own.  The montecarlo workload checks play-game and guessing-bounds
reports against closed forms.  The stream workload checks run-protocol and
analyze reports and bit files, and at seed 0 their bytes against the digests
recorded in ``bench/digests.json``.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS_PATH = ROOT / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()
SWEEP = {op.name: op for op in WORKLOADS._sweep(0).ops}
EXACT = {op.name: op for op in WORKLOADS._exact(0).ops}


def test_sweep_workload_has_every_op():
    assert len(SWEEP) == 268
    assert sum(name.startswith("classical.P.") for name in SWEEP) == 256


# the 256 classical P pairs, every cheat on each protocol it fits (the shared coin per round, and per run
# for mixed_perfect_even) and the honest runs, whose checks also read the verdict's conditions and Rand bin
@pytest.mark.parametrize("name", list(SWEEP))
def test_sweep_op_passes_its_check(name):
    assert run_ops([SWEEP[name]]) == 1


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


def run_ops(ops) -> int:
    """Run each op as the benchmark does, ``before`` then ``run``, and its check, which raises on a wrong output.

    Returns the number of ops run.
    """
    for op in ops:
        if op.before is not None:
            op.before()
        op.check(op.run())
    return len(ops)


def test_montecarlo_ops_pass_their_checks(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)     # the ops write their reports under .perfbench_work/
    assert run_ops(WORKLOADS._montecarlo(0).ops) == 7


# Runs in a fresh interpreter with BLAS pinned to one thread, as the benchmark
# runs its workers: a report's bytes can depend on the BLAS thread count.
STREAM_1E6 = """
import sys
sys.path.insert(0, sys.argv[1])
import test_bench_workloads as t
ops = [op for op in t.WORKLOADS._stream(0).ops if op.name.endswith("-1e6")]
print(t.run_ops(ops))
"""


def test_stream_ops_at_1e6_rounds_match_the_recorded_digests(tmp_path):
    pinned = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", STREAM_1E6, str(Path(__file__).parent)],
        cwd=tmp_path, env={**os.environ, **pinned, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["6"]
