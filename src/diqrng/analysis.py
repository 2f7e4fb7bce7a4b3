"""Statistical estimation and randomness quality assessment.

Conditional-probability estimates carry Wilson score intervals, which stay
sane at frequencies of 0 and 1 where the protocols' deterministic conditions
live.  The self-test statistic averages the eight input cells with equal
weight regardless of how often each cell was sampled.  The test battery is a
deliberately small trio: monobit frequency, runs, and lag-1 serial
correlation.  The entropy and the battery take packed bits, 0/1 values or
'0'/'1' text through ``stream.as_bits`` and read them block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Iterable

import numpy as np

from .errors import EmptyCondition, MissingCell, TooFewBits
from .games import GameId, win_mask
from .stream import CHUNK_ROUNDS, PackedBits, as_bits, bit_blocks, bit_counts, check_real

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
    """Wilson score interval for a binomial proportion of count successes in trials."""
    check_real("confidence", confidence)
    if not 0.0 < confidence < 1.0 or 0.5 + confidence / 2.0 == 1.0:
        raise ValueError(f"confidence must lie in (0, 1) with 0.5 + confidence/2 below 1 in floats, got {confidence}")
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= count <= trials:
        raise ValueError(f"count must lie in [0, trials], got count {count} of {trials} trials")
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
    check_real("delta", delta)
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


_FORM = "a (4, 2, 2) integer count array [x, y, b]"


def _score_cells(counts) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell (trials, successes) over the eight (x0, x1, y) cells, cell = 2*x + y, of a ``_FORM`` array."""
    if not isinstance(counts, np.ndarray):
        raise ValueError(f"statistic_A scores {_FORM}; got {type(counts).__name__}")
    if counts.shape != (4, 2, 2) or not np.issubdtype(counts.dtype, np.integer):
        raise ValueError(f"statistic_A scores {_FORM}; got a {counts.dtype} array of shape {counts.shape}")
    if np.any(counts < 0):
        raise ValueError(f"statistic_A scores {_FORM}; got a negative count")
    win = win_mask(GameId.TAVAKOLI).reshape(4, 2, 2)
    return counts.sum(axis=2).reshape(8), (counts * win).sum(axis=2).reshape(8)


def statistic_A(counts: np.ndarray, confidence: float = 0.99) -> Estimate:
    """Cell-averaged self-test statistic over the eight (x0, x1, y) cells.

    The point is the unweighted mean of the per-cell empirical Pr[b == x_y]
    (mirroring the statistic's 1/8 prefactor), NOT the pooled frequency.  The
    interval combines per-cell Hoeffding radii at confidence split evenly
    across the cells, which is conservative.  ``counts`` is the self-test
    rounds counted as a (4, 2, 2) integer array [x, y, b] with
    x = 2*x0 + x1, such as ``tally[:, :2]`` of a protocol P run; anything
    else, per-round ``RoundColumns`` included, raises ValueError.
    """
    check_real("confidence", confidence)
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    trials, successes = _score_cells(counts)
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


def entropy_report(bits) -> EntropyReport:
    """Shannon and min-entropy of the empirical 0/1 frequencies.

    ``bits`` are 0/1 values, a '0'/'1' string or ``stream.PackedBits``.
    """
    bits = as_bits(bits)
    if bits.size == 0:
        raise ValueError("need at least one bit")
    p1 = bit_counts(bits)[0] / bits.size       # a float64 sum of 0/1 values is exact, so this is their mean
    p0 = 1.0 - p1
    shannon = 0.0
    for p in (p0, p1):
        if p > 0.0:
            shannon -= p * math.log2(p)
    min_entropy = 0.0 - math.log2(max(p0, p1))     # +0.0, not -0.0, on a constant stream
    return EntropyReport(shannon, min_entropy, int(bits.size), p0)


@dataclass(frozen=True)
class BatteryResult:
    name: str
    statistic: float
    p_value: float
    passed: bool


def _monobit(n: int, ones: int, significance: float) -> BatteryResult:
    s_obs = abs(float(2 * ones - n)) / math.sqrt(n)
    p = math.erfc(s_obs / math.sqrt(2.0))
    return BatteryResult("monobit", s_obs, p, p >= significance)


def _runs(n: int, ones: int, changes: int, significance: float) -> BatteryResult:
    pi = ones / n
    v_obs = changes + 1
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        # frequency prerequisite failed; the runs statistic is uninformative
        return BatteryResult("runs", float(v_obs), 0.0, False)
    p = math.erfc(
        abs(v_obs - 2.0 * n * pi * (1 - pi))
        / (2.0 * math.sqrt(2.0 * n) * pi * (1 - pi))
    )
    return BatteryResult("runs", float(v_obs), p, p >= significance)


def _serial(bits: np.ndarray | PackedBits, ones: int, significance: float) -> BatteryResult:
    # the float64 column of bit - mean, filled block by block
    x = np.empty(bits.size)
    for start, block in zip(range(0, bits.size, CHUNK_ROUNDS), bit_blocks(bits)):
        np.subtract(block, ones / bits.size, out=x[start : start + block.size])
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return BatteryResult("serial", 0.0, 0.0, False)
    r1 = float(np.dot(x[:-1], x[1:])) / denom
    z = r1 * math.sqrt(bits.size)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return BatteryResult("serial", r1, p, p >= significance)


def randomness_battery(bits, significance: float = 0.01) -> list[BatteryResult]:
    """Monobit, runs, and lag-1 serial tests, each judged at the significance level.

    ``bits`` are 0/1 values, a '0'/'1' string or ``stream.PackedBits``.
    """
    bits = as_bits(bits)
    if bits.size < 100:
        raise TooFewBits(f"battery needs at least 100 bits, got {bits.size}")
    ones, changes = bit_counts(bits)
    return [
        _monobit(bits.size, ones, significance),
        _runs(bits.size, ones, changes, significance),
        _serial(bits, ones, significance),
    ]
