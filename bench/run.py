"""Benchmark of the diqrng engine: one workload, one seed, one run.

    python3 bench/run.py --workload stream --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout; it loads the program from ``src/``.
With ``--trace 0`` it starts one fresh interpreter that runs the workload
as a closed loop with one client for ``--seconds`` (whole cycles, at least
three), and around it fresh interpreters that only set the workload up
(the fastest of them gives ``setup_s``); then it reports the end-to-end
metrics.  With ``--trace 1`` it runs one warm-up cycle and a fixed number
of cycles untraced, then the same cycles with spans around the program's
public calls, then one cycle with allocation tracing around
``run_protocol``, and reports the per-layer metrics.

Every metric is printed by name with its unit, then a ``record:`` line with
the machine, the set-up samples and everything the run measured, then, as
the last line, the JSON result.  Exit code 2 means the program could not be
found here; 1 means a benchmark process failed.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("stream", "sweep", "exact", "montecarlo")
# setup_s: the fastest of SETUP_SAMPLES fresh interpreters, half of them
# before the timed run and half after it.  A busy host slows every process
# by up to a half, in spells that can outlast a whole run's set-up.  The
# median of nine followed the host: it moved between 0.16 s and 0.26 s from
# one set of ten runs to the next.  The fastest of twenty, taken in two
# spells, moved the least of the estimates tried.
SETUP_SAMPLES = 20
DEADLINE_S = 170.0
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# glibc frees arrays of 4 MiB or more straight back to the system.  Its
# default threshold slides upwards as large blocks are freed, after which
# such arrays stay in the heap; the stream workload's peak RSS then depended
# on the seed (937-1154 MB over five seeds) instead of on the live arrays.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(4 << 20)}
# the metrics BENCHMARK.json gates
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"))
# printed and recorded, not gated: on a shared host they do not repeat
# within a tenth from run to run on every workload, and the rates are zero
# on some workloads (see README.md)
REPORTED = (
    ("ops_per_s", "1/s"),
    ("rounds_per_s", "1/s"),
    ("bits_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("error_rate", "ratio"),
)


class BenchError(Exception):
    pass


def _cache_kib(level: int) -> int | None:
    """Size of the first data or unified cache at a level, from sysfs."""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if int((index / "level").read_text()) != level or (index / "type").read_text().strip() == "Instruction":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            return None
        return int(size[:-1]) * (1024 if size.endswith("M") else 1)
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(numpy_version: str) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_kib": _cache_kib(2),
        "l3_kib": _cache_kib(3),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_env": dict(PINNED_THREADS),
        "malloc_env": dict(MALLOC_ENV),
    }


class Workers:
    """Starts worker.py processes under one deadline for the whole run."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.args = ["--workload", workload, "--seed", str(seed)]
        self.env = dict(os.environ, **PINNED_THREADS, **MALLOC_ENV)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.deadline = time.monotonic() + DEADLINE_S

    def run(self, mode: str, *extra: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), mode, *self.args, *extra]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:   # run() has killed and reaped the worker
            raise BenchError(f"{mode} worker ran past the deadline") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} worker exited with code {proc.returncode}")
        return json.loads(lines[-1])


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<48} {value:>16.6g} {unit:<10} {note}".rstrip())


def timed_run(workers: Workers, seconds: int) -> tuple[dict, dict]:
    half = SETUP_SAMPLES // 2
    setups = [workers.run("setup")["setup_s"] for _ in range(half)]
    run = workers.run("timed", "--seconds", str(seconds))
    setups += [workers.run("setup")["setup_s"] for _ in range(SETUP_SAMPLES - half)]
    run["setup_s"] = min(setups)
    metrics = {name: {"value": run[name], "unit": unit} for name, unit in END_TO_END}
    notes = {
        "setup_s": f"fastest of {SETUP_SAMPLES} fresh interpreters, half before and half after the run",
        "ops_per_s": f"best of {run['cycles']} per operation",
        "op_tail_ms": f"p{run['op_tail_percentile']:.2f} of {run['attempted']} ops, "
                      f"{run['op_tail_samples_beyond']} beyond",
    }
    for name, unit in END_TO_END:
        _print_metric(name, run[name], unit, notes.get(name, ""))
    for name, unit in REPORTED:
        _print_metric(name, run[name], unit, "; ".join(["not gated"] + ([notes[name]] if name in notes else [])))
    record = {"setup_samples_s": setups, "run": run}
    return metrics, record


def traced_run(workers: Workers) -> tuple[dict, dict]:
    run = workers.run("traced")
    for name, metric in run["metrics"].items():
        _print_metric(name, metric["value"], metric["unit"])
    return run["metrics"], {"run": run}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "diqrng" / "cli.py").is_file():
        print(f"error: no diqrng sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2

    workers = Workers(root, args.workload, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    try:
        metrics, record = traced_run(workers) if args.trace else timed_run(workers, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    run = record["run"]
    info = machine(run["numpy"])
    if info["l3_kib"]:
        l3 = info["l3_kib"] * 1024
        lower_bounds = run["facts"].get("working_set_lower_bound_bytes", {})
        run["facts"]["working_set_lower_bound_vs_l3"] = {size: ws / l3 for size, ws in lower_bounds.items()}
        # traced runs only: measured tracemalloc peaks, by rounds per run
        run["alloc_peak_vs_l3"] = {rounds: peak / l3 for rounds, peak in run.get("alloc_peak_bytes", {}).items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        **record,
    }
    print("record: " + json.dumps(record))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
