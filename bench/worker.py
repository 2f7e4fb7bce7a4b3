"""One benchmark process: set-up only, a timed run, or a traced run.

run.py starts this script in a fresh interpreter with the checkout's ``src``
on PYTHONPATH and BLAS/OpenMP threads pinned to 1.  It prints one JSON object
on its last stdout line.

    worker.py setup  --workload W --seed N
    worker.py timed  --workload W --seed N --seconds S
    worker.py traced --workload W --seed N
"""

import time

_START = time.perf_counter()   # set-up time counts from here, before numpy and diqrng load

import argparse
import json
import resource
import shutil
import statistics
import sys
import traceback

import numpy
import workloads

# Cycles of a traced run's untraced and traced passes.  Fixed, so that the
# call, round and byte counts repeat exactly at one seed.
TRACE_CYCLES = {"stream": 1, "sweep": 6, "exact": 40, "montecarlo": 2}
# A timed run repeats whole cycles for --seconds, and at least this many, so
# that every operation has a best-of-N latency with N >= 3.
MIN_CYCLES = 3
MAX_LOGGED_FAILURES = 5


class Pass:
    """Latencies and tallies of one sequence of operations."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.by_op: dict[str, list[float]] = {}
        self.failed = 0
        self.rounds = 0
        self.bits = 0
        self.cycles = 0

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def execute(self, op: workloads.Op, tracer: "spans.Tracer | None") -> None:
        if op.before is not None:
            op.before()
        op_id = len(self.latencies)
        start = time.perf_counter()
        try:
            result = op.run() if tracer is None else tracer.run_op(op_id, op.run)
            raised = None
        except Exception as exc:        # a failed operation is counted, not fatal
            raised = exc
        latency = time.perf_counter() - start
        self.latencies.append(latency)
        self.by_op.setdefault(op.name, []).append(latency)
        if raised is not None:
            self._fail(op, raised)
            return
        try:
            facts = op.check(result) or {}
        except Exception as exc:
            self._fail(op, exc)
            return
        self.rounds += op.rounds
        self.bits += facts.get("bits", 0)

    def _fail(self, op: workloads.Op, exc: Exception) -> None:
        self.failed += 1
        if self.failed <= MAX_LOGGED_FAILURES:
            detail = str(exc) if isinstance(exc, workloads.CheckFailed) else "".join(traceback.format_exception(exc))
            print(f"operation {op.name} failed: {detail}", file=sys.stderr)

    def run(self, workload, *, seconds=None, cycles=None, tracer=None) -> "Pass":
        start = time.perf_counter()
        while True:
            for op in workload.ops:
                self.execute(op, tracer)
            self.cycles += 1
            if cycles is not None and self.cycles >= cycles:
                return self
            if seconds is not None and self.cycles >= MIN_CYCLES and time.perf_counter() - start >= seconds:
                return self


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (latency, percentile, samples beyond).  With ten samples or
    fewer, the fastest one is the only choice.
    """
    ordered = sorted(latencies)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def timed(workload, seconds: float) -> dict:
    """End-to-end figures of one timed run.

    The rates divide one cycle's work by the sum of each operation's best
    latency over the run's cycles (best of N, N >= 3), which a busy host
    disturbs less than a mean.  The latency percentiles are over all samples.
    """
    done = Pass().run(workload, seconds=seconds)
    best_cycle_s = sum(min(lat) for lat in done.by_op.values())
    tail, percentile, beyond = _tail(done.latencies)
    return {
        "attempted": len(done.latencies),
        "failed": done.failed,
        "cycles": done.cycles,
        "busy_s": done.busy_s,
        "ops_per_s": len(workload.ops) / best_cycle_s,
        "rounds_per_s": done.rounds / done.cycles / best_cycle_s,
        "bits_per_s": done.bits / done.cycles / best_cycle_s,
        "op_p50_ms": 1e3 * statistics.median(done.latencies),
        "op_tail_ms": 1e3 * tail,
        "op_tail_percentile": percentile,
        "op_tail_samples_beyond": beyond,
        "error_rate": done.failed / len(done.latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "op_best_ms": {name: 1e3 * min(lat) for name, lat in done.by_op.items()},
    }


def traced(workload, cycles: int) -> dict:
    import spans    # only the traced run pays for loading the tracer

    warm = Pass().run(workload, cycles=1)      # lazy imports and first-touch pages
    plain = Pass().run(workload, cycles=cycles)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with_spans = Pass().run(workload, cycles=cycles, tracer=tracer)
    finally:
        tracer.uninstall()
    # one more cycle for the allocation peaks, which are maxima
    allocs = spans.AllocPeaks()
    allocs.install()
    try:
        with_allocs = Pass().run(workload, cycles=1)
    finally:
        allocs.uninstall()
    values = tracer.layer_metrics()
    values["protocols.run_protocol.alloc_peak_mb"] = allocs.peak_mb
    values["trace.overhead_ratio"] = with_spans.busy_s / plain.busy_s
    trace_file = workloads.WORK_DIR / f"trace-{workload.name}.npz"
    tracer.write(trace_file)
    passes = (warm, plain, with_spans, with_allocs)
    return {
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": sum(p.failed for p in passes),
        "cycles": cycles,
        "untraced_busy_s": plain.busy_s,
        "traced_busy_s": with_spans.busy_s,
        "spans": len(tracer.start),
        "trace_file": str(trace_file),
        "alloc_peak_bytes": {str(rounds): peak for rounds, peak in sorted(allocs.peak_bytes.items())},
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spans.LAYER_METRICS},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["setup", "timed", "traced"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - _START
    try:
        if args.mode == "setup":
            result = {}
        elif args.mode == "timed":
            result = timed(workload, args.seconds)
        else:
            result = traced(workload, TRACE_CYCLES[args.workload])
    finally:
        shutil.rmtree(workloads.WORK_DIR / args.workload, ignore_errors=True)
    result["setup_s"] = setup_s
    result["facts"] = workload.facts
    result["numpy"] = numpy.__version__
    print(json.dumps(result))


if __name__ == "__main__":
    main()
