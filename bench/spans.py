"""Spans around the program's public calls, for the benchmark's traced run.

``Tracer.install`` replaces the module attributes and methods named in
``_TRACED`` with wrappers that record a span per call: its name, start, end,
parent span and operation id.  Spans stay in memory until ``write``.  A
span's self time is its duration minus the durations of its child spans
(one thread, so children never overlap).  Nothing is added to the program.
"""

from __future__ import annotations

import functools
import json
import os
import tracemalloc
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from diqrng import analysis, cli, games, protocols, qcore

# (owner, attribute, span name); several attributes may share one name
_TRACED = (
    (qcore, "apply_gate", "qcore.apply_gate"),
    (qcore, "measurement_branches", "qcore.measurement_branches"),
    (qcore, "outcome_distribution", "qcore.outcome_distribution"),
    (qcore, "collapse", "qcore.collapse"),
    (games, "exact_score", "games.exact_score"),
    (games, "branch_distribution", "games.branch_distribution"),
    (games, "winning_predicate", "games.winning_predicate"),
    (games, "best_classical", "games.best_classical"),
    (games, "g2_deterministic_frontier", "games.g2_deterministic_frontier"),
    (games, "equivalence_check", "games.equivalence_check"),
    (games.RoundSampler, "__init__", "games.RoundSampler.init"),
    (games.RoundSampler, "sample_many", "games.RoundSampler.sample_many"),
    (protocols, "run_protocol", "protocols.run_protocol"),
    (protocols, "guessing_game_bound_check", "protocols.guessing_game_bound_check"),
    (protocols.DevicePair, "response_table", "protocols.DevicePair.response_table"),
    (protocols, "honest_devices", "protocols.devices"),
    (protocols, "adversarial_devices", "protocols.devices"),
    (protocols, "classical_pair_from_strategy", "protocols.devices"),
    (analysis, "statistic_A", "analysis.statistic_A"),
    (analysis, "wilson_interval", "analysis.wilson_interval"),
    (analysis, "hoeffding_radius", "analysis.hoeffding_radius"),
    (analysis, "entropy_report", "analysis.entropy_report"),
    (analysis, "randomness_battery", "analysis.randomness_battery"),
    (cli, "write_bits", "cli.write_bits"),
    (cli, "read_bits", "cli.read_bits"),
    (cli, "serialize_report", "cli.serialize_report"),
    (cli, "main", "cli.main"),
)

OP_SPAN = "op"

# the per-layer metrics, in report order: (metric, unit)
_UNITS = {"calls": "count", "self_s": "s", "rounds": "count", "bytes": "B", "alloc_peak_mb": "MB"}
_STATS = (
    ("qcore.apply_gate", ("calls", "self_s")),
    ("qcore.measurement_branches", ("calls", "self_s")),
    ("qcore.outcome_distribution", ("calls", "self_s")),
    ("qcore.collapse", ("calls", "self_s")),
    ("games.exact_score", ("calls", "self_s")),
    ("games.branch_distribution", ("calls", "self_s")),
    ("games.winning_predicate", ("calls", "self_s")),
    ("games.best_classical", ("calls", "self_s")),
    ("games.g2_deterministic_frontier", ("calls", "self_s")),
    ("games.equivalence_check", ("calls", "self_s")),
    ("games.RoundSampler.init", ("calls", "self_s")),
    ("games.RoundSampler.sample_many", ("calls", "self_s", "rounds")),
    ("protocols.guessing_game_bound_check", ("calls", "self_s")),
    ("protocols.run_protocol", ("calls", "self_s", "rounds", "alloc_peak_mb")),
    ("protocols.DevicePair.response_table", ("calls", "self_s")),
    ("protocols.devices", ("calls", "self_s")),
    ("analysis.statistic_A", ("calls", "self_s")),
    ("analysis.wilson_interval", ("calls",)),
    ("analysis.hoeffding_radius", ("calls",)),
    ("analysis.entropy_report", ("calls", "self_s")),
    ("analysis.randomness_battery", ("calls", "self_s")),
    ("cli.write_bits", ("calls", "self_s", "bytes")),
    ("cli.read_bits", ("calls", "self_s", "bytes")),
    ("cli.serialize_report", ("calls", "self_s", "bytes")),
    ("cli.main", ("calls", "self_s")),
)
LAYER_METRICS = tuple(
    (f"{name}.{stat}", _UNITS[stat]) for name, stats in _STATS for stat in stats
) + (
    ("protocols.run_protocol.rounds_per_s_1e6", "1/s"),
    ("protocols.run_protocol.rounds_per_s_1e7", "1/s"),
    ("protocols.run_protocol.bits_per_round", "bit/round"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Records spans in parallel arrays; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[int] = []
        self._op_id = -1
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = {}
        self._sized: dict[int, list[float]] = {}     # rounds -> [rounds, seconds]

    # -- span recording ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _end(self, index: int) -> float:
        self.end[index] = perf_counter()
        self._stack.pop()
        return self.end[index] - self.start[index]

    def run_op(self, op_id: int, fn):
        """Run one benchmark operation under a root span."""
        self._op_id = op_id
        index = self._begin(self._name_id(OP_SPAN))
        try:
            return fn()
        finally:
            self._end(index)

    def _add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        name_id = self._name_id(name)
        after = _AFTER.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._begin(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(index)
            if after is not None:
                after(self, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _wrap_run_protocol(self) -> None:
        original = protocols.run_protocol
        name_id = self._name_id("protocols.run_protocol")

        @functools.wraps(original)
        def wrapper(config, devices):
            index = self._begin(name_id)
            try:
                result = original(config, devices)
            finally:
                seconds = self._end(index)
            self._add("protocols.run_protocol.rounds", config.rounds)
            self._add("protocols.run_protocol.bits", result[1].output_bits.size)
            sized = self._sized.setdefault(config.rounds, [0.0, 0.0])
            sized[0] += config.rounds
            sized[1] += seconds
            return result

        protocols.run_protocol = wrapper
        self._patches.append((protocols, "run_protocol", original))

    def install(self) -> None:
        for owner, attr, name in _TRACED:
            if name == "protocols.run_protocol":
                self._wrap_run_protocol()
            else:
                self._wrap(owner, attr, name)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the allocation peak and the overhead ratio."""
        names = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = np.asarray(self.end) - np.asarray(self.start)
        child = np.bincount(parent[parent >= 0], weights=duration[parent >= 0], minlength=duration.size)
        self_time = np.bincount(names, weights=duration - child, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        metrics: dict[str, float] = {}
        for name, stats in _STATS:
            i = self._ids.get(name)
            for stat in stats:
                key = f"{name}.{stat}"
                if stat == "calls":
                    metrics[key] = int(calls[i]) if i is not None else 0
                elif stat == "self_s":
                    metrics[key] = float(self_time[i]) if i is not None else 0.0
                elif stat == "alloc_peak_mb":
                    continue        # taken by AllocPeaks, in a pass of its own
                else:
                    metrics[key] = int(self.counters.get(key, 0))
        for rounds, label in ((1_000_000, "1e6"), (10_000_000, "1e7")):
            done, seconds = self._sized.get(rounds, (0.0, 0.0))
            metrics[f"protocols.run_protocol.rounds_per_s_{label}"] = done / seconds if seconds else 0.0
        rounds = self.counters.get("protocols.run_protocol.rounds", 0)
        bits = self.counters.get("protocols.run_protocol.bits", 0)
        metrics["protocols.run_protocol.bits_per_round"] = bits / rounds if rounds else 0.0
        return metrics

    def write(self, path: Path) -> None:
        """Write every span to an .npz file (names in ``names_json``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            name=np.asarray(self.name, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
            op=np.asarray(self.op, dtype=np.int64),
            names_json=np.asarray(json.dumps(self.names)),
        )


class AllocPeaks:
    """tracemalloc around each ``run_protocol`` call, and no spans.

    Allocation tracing hooks every allocation, so it runs in a pass of its
    own: the span pass's self times carry none of its cost.
    """

    def __init__(self) -> None:
        self.peak_bytes: dict[int, int] = {}     # rounds -> largest peak
        self._original = None

    def install(self) -> None:
        original = self._original = protocols.run_protocol

        @functools.wraps(original)
        def wrapper(config, devices):
            tracemalloc.start()
            try:
                return original(config, devices)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_bytes[config.rounds] = max(self.peak_bytes.get(config.rounds, 0), peak)

        protocols.run_protocol = wrapper

    def uninstall(self) -> None:
        protocols.run_protocol = self._original

    @property
    def peak_mb(self) -> float:
        return max(self.peak_bytes.values(), default=0) / 1e6


def _rounds_arg(tracer: Tracer, args, result) -> None:
    tracer._add("games.RoundSampler.sample_many.rounds", args[1])


def _file_bytes(key: str):
    def after(tracer: Tracer, args, result) -> None:
        tracer._add(key, os.path.getsize(args[0]))
    return after


def _text_bytes(tracer: Tracer, args, result) -> None:
    tracer._add("cli.serialize_report.bytes", len(result.encode("utf-8")))


# extra counters taken after a call returns: (tracer, positional args, result)
_AFTER = {
    "games.RoundSampler.sample_many": _rounds_arg,
    "cli.write_bits": _file_bytes("cli.write_bits.bytes"),
    "cli.read_bits": _file_bytes("cli.read_bits.bytes"),
    "cli.serialize_report": _text_bytes,
}
