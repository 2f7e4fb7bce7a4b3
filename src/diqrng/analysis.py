"""Statistical estimation and randomness quality assessment.

Conditional-probability estimates carry Wilson score intervals, which stay
sane at frequencies of 0 and 1 where the protocols' deterministic conditions
live.  The self-test statistic averages the eight input cells with equal
weight regardless of how often each cell was sampled.  The test battery is a
deliberately small trio: monobit frequency, runs, and lag-1 serial
correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Iterable

import numpy as np

from .errors import EmptyCondition, MissingCell, TooFewBits
from .games import GameId, win_mask

_NORMAL = NormalDist()


@dataclass(frozen=True)
class Estimate:
    """A binomial point estimate with its confidence interval.

    ``point == count / trials`` for pooled estimators; the cell-averaged
    self-test statistic keeps pooled tallies in ``count``/``trials`` but its
    point is the unweighted cell mean, which differs when cells are
    unbalanced.
    """

    point: float
    count: int
    trials: int
    ci_low: float
    ci_high: float
    confidence: float


def wilson_interval(count: int, trials: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = _NORMAL.inv_cdf(0.5 + confidence / 2.0)
    phat = count / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # the limits are algebraically exact at degenerate counts; keep them so
    low = 0.0 if count == 0 else max(0.0, center - half)
    high = 1.0 if count == trials else min(1.0, center + half)
    return low, high


def hoeffding_radius(delta: float, trials: int) -> float:
    """Distribution-free confidence half-width sqrt(ln(2/delta) / (2 N))."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if trials <= 0:
        raise ValueError("trials must be positive")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * trials))


def estimate_conditional(
    records: Iterable,
    event: Callable[[object], bool],
    condition: Callable[[object], bool],
    confidence: float = 0.99,
) -> Estimate:
    """Empirical Pr[event | condition] over records, with a Wilson interval."""
    count = 0
    trials = 0
    for record in records:
        if not condition(record):
            continue
        trials += 1
        if event(record):
            count += 1
    if trials == 0:
        raise EmptyCondition("no records satisfy the conditioning predicate")
    lo, hi = wilson_interval(count, trials, confidence)
    return Estimate(count / trials, count, trials, lo, hi, confidence)


def _score_cells(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell (trials, successes) from rounds counted as [x, y, b], cell = 2*x + y."""
    win = win_mask(GameId.TAVAKOLI).reshape(4, 2, 2)
    return counts.sum(axis=2).reshape(8), (counts * win).sum(axis=2).reshape(8)


def _records_to_cells(records) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell (trials, successes) arrays over the eight (x0, x1, y) cells.

    ``records`` is either a run whose ``cell_counts()`` counts its self-test
    rounds as [x, y, b] with x = 2*x0 + x1, or ``RoundColumns`` with inputs
    (x0, x1, y) and outputs (b,), counted here into the same shape.
    """
    counts = getattr(records, "cell_counts", None)
    if callable(counts):
        return _score_cells(counts())
    inputs, outputs = records.inputs, records.outputs
    if inputs.shape[1:] != (3,) or outputs.shape[1:] != (1,):
        raise ValueError("self-test records have inputs (x0, x1, y) and one output b")
    columns = (*inputs.T, outputs[:, 0])
    for name, column in zip(("x0", "x1", "y", "b"), columns):
        bad = column[(column != 0) & (column != 1)]
        if bad.size:
            raise ValueError(f"self-test records must have {name} in {{0, 1}}, got {bad[0]}")
    x0, x1, y, b = columns
    return _score_cells(np.bincount(8 * x0 + 4 * x1 + 2 * y + b, minlength=16).reshape(4, 2, 2))


def statistic_A(check_records, confidence: float = 0.99) -> Estimate:
    """Cell-averaged self-test statistic over the eight (x0, x1, y) cells.

    The point is the unweighted mean of the per-cell empirical Pr[b == x_y]
    (mirroring the statistic's 1/8 prefactor), NOT the pooled frequency.  The
    interval combines per-cell Hoeffding radii at confidence split evenly
    across the cells, which is conservative.  ``check_records`` is a protocol
    P run's ``BinStore`` or self-test ``RoundColumns``.
    """
    trials, successes = _records_to_cells(check_records)
    if np.any(trials == 0):
        empty = [f"{c >> 2 & 1}{c >> 1 & 1}|y={c & 1}" for c in np.flatnonzero(trials == 0)]
        raise MissingCell(f"no records in cell(s) {', '.join(empty)}")
    point = float(np.mean(successes / trials))
    # per-cell radius at delta = alpha/8 keeps the union bound at alpha
    alpha = 1.0 - confidence
    radius = float(np.mean([hoeffding_radius(alpha / 8.0, int(n)) for n in trials]))
    return Estimate(
        point,
        int(successes.sum()),
        int(trials.sum()),
        max(0.0, point - radius),
        min(1.0, point + radius),
        confidence,
    )


@dataclass(frozen=True)
class EntropyReport:
    """Empirical entropy of a binary source, in bits per output bit."""

    shannon: float
    min_entropy: float
    n_bits: int
    zero_fraction: float


def _as_bits(bits) -> np.ndarray:
    if isinstance(bits, str):
        if any(c not in "01" for c in bits):
            raise ValueError("bit strings may contain only '0' and '1'")
        arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    else:
        arr = np.asarray(bits)
        if arr.dtype != np.uint8:
            if arr.dtype != np.bool_ and not ((arr == 0) | (arr == 1)).all():
                raise ValueError("bits must be 0/1 valued")
            arr = arr.astype(np.uint8)
    if arr.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("bits must be 0/1 valued")
    return arr


def entropy_report(bits) -> EntropyReport:
    """Shannon and min-entropy of the empirical 0/1 frequencies."""
    arr = _as_bits(bits)
    if arr.size == 0:
        raise ValueError("need at least one bit")
    p1 = float(np.mean(arr))
    p0 = 1.0 - p1
    shannon = 0.0
    for p in (p0, p1):
        if p > 0.0:
            shannon -= p * math.log2(p)
    min_entropy = 0.0 - math.log2(max(p0, p1))     # +0.0, not -0.0, on a constant stream
    return EntropyReport(shannon, min_entropy, int(arr.size), p0)


@dataclass(frozen=True)
class BatteryResult:
    name: str
    statistic: float
    p_value: float
    passed: bool


def _monobit(arr: np.ndarray, significance: float) -> BatteryResult:
    s_obs = abs(float(2 * np.count_nonzero(arr) - arr.size)) / math.sqrt(arr.size)
    p = math.erfc(s_obs / math.sqrt(2.0))
    return BatteryResult("monobit", s_obs, p, p >= significance)


def _runs(arr: np.ndarray, significance: float) -> BatteryResult:
    pi = float(np.mean(arr))
    v_obs = int(np.count_nonzero(np.diff(arr))) + 1
    if abs(pi - 0.5) >= 2.0 / math.sqrt(arr.size):
        # frequency prerequisite failed; the runs statistic is uninformative
        return BatteryResult("runs", float(v_obs), 0.0, False)
    p = math.erfc(
        abs(v_obs - 2.0 * arr.size * pi * (1 - pi))
        / (2.0 * math.sqrt(2.0 * arr.size) * pi * (1 - pi))
    )
    return BatteryResult("runs", float(v_obs), p, p >= significance)


def _serial(arr: np.ndarray, significance: float) -> BatteryResult:
    x = arr.astype(np.float64) - float(np.mean(arr))
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return BatteryResult("serial", 0.0, 0.0, False)
    r1 = float(np.dot(x[:-1], x[1:])) / denom
    z = r1 * math.sqrt(arr.size)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return BatteryResult("serial", r1, p, p >= significance)


def randomness_battery(bits, significance: float = 0.01) -> list[BatteryResult]:
    """Monobit, runs, and lag-1 serial tests, each judged at the significance level."""
    arr = _as_bits(bits)
    if arr.size < 100:
        raise TooFewBits(f"battery needs at least 100 bits, got {arr.size}")
    return [
        _monobit(arr, significance),
        _runs(arr, significance),
        _serial(arr, significance),
    ]
