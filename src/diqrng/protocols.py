"""Black-box devices and the two randomness-generation protocols.

Protocol P: a preparation device emits one of four qubit states keyed by
(x0, x1); a measurement device with setting y in {0, 1, 2} returns a bit.
Rounds are binned into Check (y < 2, drives the self-test statistic), Rand
(x in {01, 10}, y = 2, the output bits) and False (x in {00, 11}, y = 2,
deterministic outcomes).

Protocol Q: the preparation is keyed by (x0, x1) and the measurement setting
is x2; even-weight rounds form the Check bin and must win the game's
even-weight condition, odd-weight rounds form the Rand bin, a gamma-fraction
of which is spent testing Pr[b = x1] = 1/2 before the rest is released.

Devices are stateless across rounds apart from an explicit shared-randomness
coin, so a device pair is its response table Pr[b = 1 | coin, x, setting];
everything a run does is a pure function of (config, devices), so two runs
with the same seed are bit-identical.

A run streams its rounds in fixed-size chunks and keeps only what
certification reads: a tally of rounds by (x, setting, b) and the Rand bin's
output bits, as ``stream.PackedBits`` in pieces of 65,536 bits.  The
verdict releases them packed; a Q test re-packs those past its tested
prefix piece by piece, and only ``output_bits`` unpacks them all at once.
The chunks come from ``_round_chunks`` as views into one chunk's scratch
buffers, which the round stream allocates once and frees when it ends; a
chunk's views hold until the next chunk is drawn.  A run's input law is one
array law[x, setting], from ``_input_law``: which cells its mode draws and
how likely each is.  A uniform law's support is a box of x and setting
ranges, drawn by ``stream.draw_cells``, the draw loop of play-game and the
guessing bounds too.  A weighted law is drawn by ``stream.draw_codes`` with
its CDF over every cell as the threshold table, so a pick is its cell and
picks as ``Generator.choice`` does.  The bits come from
``stream.Scratch.measure``, the one kernel, with thresholds 1 - Pr[b = 1].
``BinStore`` holds the tally and answers the bin counts.  Its one per-round
view, the Rand bin's rounds as ``games.RoundColumns`` with inputs (x0, x1,
setting) and output (b,), is rebuilt on first access by replaying the same
round stream and keeping only its Rand rounds.

Certification is a pure function of counts.  ``certify`` builds every
condition of a verdict from the run's tally and, for Q's odd test, the
number of tested Rand rounds and how many of them had b = x1; so a
multinomial draw of a tally certifies exactly as a run does.  Every count
condition (P's False-bin outcomes, Q's even-weight wins and odd-weight
test) is a ``_band_check``: its rate against a target within the Hoeffding
radius at delta, reported with a Wilson interval.  P's A statistic keeps
its own cell-averaged estimate.  ``run_protocol`` applies the one PASS
rule, every condition satisfied, for both protocols and both modes.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import analysis, qcore
from .errors import BadDistribution, DeviceArityMismatch, InsufficientRounds, UnknownKind
from .games import QUANTUM_WIN, ClassicalStrategy, GameId, MeasureSpec, outcome_tensor, paper_strategy, win_mask
from .games import RoundColumns, read_only_view, read_weights
from .stream import PackedBits, Scratch, add_integers, as_bits, check_between, check_count, check_integer, check_kind
from .stream import draw_cells, draw_codes

A_STAR = QUANTUM_WIN

# The bin of each (x, setting) cell, x = 2*x0 + x1: 0 Check, 1 Rand, 2 False.
_CHECK, _RAND = 0, 1
_BIN_OF = {
    "P": np.array([[0, 0, 2], [0, 0, 1], [0, 0, 1], [0, 0, 2]]),   # Rand/False only at y = 2
    "Q": np.array([[0, 1], [1, 0], [1, 0], [0, 1]]),               # Check iff x0 + x1 + x2 is even
}
_GAME_OF = {"P": GameId.TAVAKOLI, "Q": GameId.GAME_G2}


@dataclass(frozen=True, eq=False)
class DevicePair:
    """A memoryless preparation/measurement pair: its response table plus its shared-randomness contract.

    ``table`` holds Pr[b = 1] as [coin, x, setting] with x = 2*x0 + x1: one
    coin row, or two when the devices share a coin, and the settings of the
    pair's protocol (P's three when either protocol fits).  A concrete bit is
    drawn from it with one uniform as ``b = 0 iff u < 1 - Pr[b = 1]``.
    """

    table: np.ndarray
    protocol: str | None = None     # "P", "Q", or None when either fits
    coin_per_round: bool = True
    caveat: str | None = None

    def __post_init__(self) -> None:
        if self.protocol not in (None, *_BIN_OF):
            raise DeviceArityMismatch(f"unknown protocol {self.protocol!r}")
        check_kind("coin_per_round", self.coin_per_round, bool)
        if self.caveat is not None:
            check_kind("caveat", self.caveat, str)
        settings = _BIN_OF[self.protocol or "P"].shape[1]
        table = np.asarray(self.table, dtype=np.float64)
        if table.ndim != 3 or table.shape[0] not in (1, 2) or table.shape[1:] != (4, settings):
            raise DeviceArityMismatch(
                f"a protocol {self.protocol or 'P/Q'} response table is [coin, x, setting] "
                f"with 1 or 2 coins, 4 inputs and {settings} settings, got shape {table.shape}"
            )
        if not np.all((table >= -1e-12) & (table <= 1 + 1e-12)):
            raise DeviceArityMismatch("device emitted probabilities outside [0, 1]")
        table = np.clip(table, 0.0, 1.0)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def uses_coin(self) -> bool:
        return self.table.shape[0] == 2

    def response_table(self, protocol: str) -> np.ndarray:
        """Pr[b = 1] indexed as [coin, x, setting] over the protocol's settings."""
        if self.protocol is not None and self.protocol != protocol:
            raise DeviceArityMismatch(
                f"device pair is built for protocol {self.protocol}, not {protocol}"
            )
        _game_of(protocol)      # the one check of a protocol name
        return self.table[:, :, : _BIN_OF[protocol].shape[1]]


def _game_of(protocol: str) -> GameId:
    if protocol not in (*_GAME_OF,):     # a tuple: an unhashable name is unknown, not a TypeError
        raise DeviceArityMismatch(f"unknown protocol {protocol!r}")
    return _GAME_OF[protocol]


def honest_devices(protocol: str) -> DevicePair:
    """The paper-faithful quantum devices for protocol P or Q.

    They play the paper strategy of the protocol's game: the Tavakoli
    self-test for P, GAME_G2 for Q.  P's extra setting 2 measures in the
    Hadamard basis, so b = 0 on |+> and b = 1 on |->.
    """
    strategy = paper_strategy(_game_of(protocol))
    columns = [outcome_tensor(strategy)[..., 1].reshape(4, 2)]
    if protocol == "P":
        hadamard = replace(strategy, measurement={s: MeasureSpec(qcore.HADAMARD) for s in (0, 1)})
        columns.append(outcome_tensor(hadamard)[..., 0, 1].reshape(4, 1))
    return DevicePair(np.hstack(columns)[None], protocol=protocol)


def _message_table(prep: tuple[int, ...], meas: tuple[int, ...], protocol: str | None) -> np.ndarray:
    """Pr[b = 1] as [x, setting] of m = prep[x], b = meas[2*m + setting]; P's setting 2 forwards m."""
    probs = outcome_tensor(ClassicalStrategy(_GAME_OF[protocol or "P"], (prep, meas)))[..., 1].reshape(4, 2)
    return probs if protocol == "Q" else np.column_stack([probs, prep])


# Each cheat: its protocol, then one deterministic message strategy per coin
# value, as (message m by x, b by 2*m + setting) tables.
_FORWARD_X1 = ((0, 1, 0, 1), (0, 0, 1, 1))     # m = x1, b = m
_X0_XOR_SETTING = ((0, 0, 1, 1), (0, 1, 1, 0))  # m = x0, b = m ^ setting
_CHEATS = {
    "always_zero": (None, (((0, 0, 0, 0), (0, 0, 0, 0)),)),
    "x1_forwarder": (None, (_FORWARD_X1,)),
    # wins every even-weight round; b == x1 on odd
    "perfect_even_family_A": ("Q", (_FORWARD_X1,)),
    # wins every even-weight round; b != x1 on odd
    "perfect_even_family_B": ("Q", (_X0_XOR_SETTING,)),
    "mixed_perfect_even": ("Q", (_FORWARD_X1, _X0_XOR_SETTING)),
    # no information crosses the channel; m = coin, b = m
    "input_guesser": (None, tuple(((m,) * 4, (0, 0, 1, 1)) for m in (0, 1))),
}

_MIXED_CAVEAT = (
    "mixed_perfect_even passes both statistical conditions while every output "
    "bit is a deterministic function of the shared coin and the public inputs; "
    "the run records the scores without adjudicating the certification claim."
)


def adversarial_devices(kind: str, coin_per_round: bool = True) -> DevicePair:
    """Classical device pairs implementing the named cheat.

    ``input_guesser`` and ``mixed_perfect_even`` share a coin between the
    devices: by default it is resampled every round (preserving i.i.d.
    behavior), and ``coin_per_round=False`` draws it once per run.  The other
    kinds share no coin, so the flag does not change their runs.
    """
    if kind not in (*_CHEATS,):
        raise UnknownKind(f"unknown adversarial device kind {kind!r}")
    protocol, per_coin = _CHEATS[kind]
    return DevicePair(
        np.stack([_message_table(prep, meas, protocol) for prep, meas in per_coin]),
        protocol=protocol,
        coin_per_round=coin_per_round,
        caveat=_MIXED_CAVEAT if kind == "mixed_perfect_even" else None,
    )


def classical_pair_from_strategy(strategy: ClassicalStrategy, protocol: str) -> DevicePair:
    """Wrap a deterministic prepare-and-measure strategy as protocol devices.

    For protocol P the measurement table only covers y in {0, 1}; the y = 2
    setting forwards the one-bit message, which cannot influence the
    self-test statistic that decides the verdict.
    """
    if not isinstance(strategy, ClassicalStrategy) or not strategy.tables:
        raise DeviceArityMismatch("only deterministic strategies can back a device pair")
    expected_game = _game_of(protocol)
    if strategy.game is not expected_game:
        raise DeviceArityMismatch(
            f"protocol {protocol} devices need a {expected_game.value} strategy"
        )
    return DevicePair(_message_table(*strategy.tables, protocol)[None], protocol=protocol)


# ---------------------------------------------------------------------------
# round storage
# ---------------------------------------------------------------------------

def _win(game: GameId) -> np.ndarray:
    """The game's win mask as win[x, setting, b], x = 2*x0 + x1."""
    return win_mask(game).reshape(4, 2, 2)


class BinStore:
    """A run's rounds: their tally by (x, setting, b), its bin counts and the Rand bin's rounds.

    ``tally`` counts the rounds as [x, setting, b], x = 2*x0 + x1; it is all
    that ``certify`` reads besides Q's odd-test count, and ``counts()`` reads
    the Check, Rand and (for P) False bin sizes from it.  ``rand`` holds every
    Rand round's inputs and output, so a run does not keep it: it is rebuilt
    on first access by replaying the run's round stream.
    """

    def __init__(self, protocol: str, tally: np.ndarray, replay: Callable[[], RoundColumns]):
        self.protocol = protocol
        self.tally = read_only_view(tally)
        self._replay = replay

    @functools.cached_property
    def rand(self) -> RoundColumns:
        """The Rand rounds in round order: int8 ``inputs`` (x0, x1, setting) and ``outputs`` (b,)."""
        return self._replay()

    def counts(self) -> dict[str, int]:
        return _bin_counts(self.protocol, self.tally)


def _bin_counts(protocol: str, tally: np.ndarray) -> dict[str, int]:
    """The number of rounds in each bin of a tally [x, setting, b]."""
    per_cell = tally.sum(axis=2)
    names = ("check", "rand", "false") if protocol == "P" else ("check", "rand")
    return {name: int(per_cell[_BIN_OF[protocol] == k].sum()) for k, name in enumerate(names)}


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of one protocol run, checked at construction.

    ``rounds`` is a count in [0, ``stream.MAX_ROUNDS``], ``seed`` a
    nonnegative integer, and ``delta`` and ``gamma`` real numbers.
    ``input_weights`` optionally overrides the uniform per-round input draw:
    a mapping from (x0, x1, setting) to probability, supported on the cells
    the protocol's mode draws and summing to 1, read by ``games.read_weights``
    (its ``BadDistribution`` is a ValueError).  A run reads it as its input law,
    law[x, setting] with x = 2*x0 + x1 and zeros elsewhere.  Test-mode weights must
    reach every cell that certification scores: P's Check and False cells, or a Q Check cell.
    """

    protocol: str
    rounds: int
    seed: int
    mode: str = "test"
    delta: float = 1e-6
    gamma: float = 0.5
    input_weights: dict | None = field(default=None, hash=False)

    def __post_init__(self) -> None:
        if self.protocol not in ("P", "Q"):
            raise ValueError(f"protocol must be 'P' or 'Q', got {self.protocol!r}")
        check_count("rounds", self.rounds)
        check_integer("seed", self.seed)
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.mode not in ("test", "generate"):
            raise ValueError(f"mode must be 'test' or 'generate', got {self.mode!r}")
        check_between("delta", self.delta, 0, 1, "()")
        if 0.5 + (1.0 - self.delta) / 2.0 == 1.0:
            # the Wilson interval at 1 - delta would need the normal quantile of 1
            raise ValueError(f"delta must be at least about 1.7e-16, so that 1 - delta/2 is below 1, got {self.delta}")
        check_between("gamma", self.gamma, 0.5, 1)
        if self.input_weights is not None:
            _input_law(self.protocol, self.mode, self.input_weights)
            object.__setattr__(self, "input_weights", dict(self.input_weights))


def _input_law(protocol: str, mode: str, weights: Mapping | None) -> np.ndarray:
    """A run's input law[x, setting], x = 2*x0 + x1: uniform over the cells its mode draws, or ``weights``.

    P's generate mode draws only the Rand cells, every other mode all of them.
    ``weights`` is read by ``games.read_weights`` over (x0, x1, setting) on
    the drawn cells, and in test mode must pass ``_check_scored_cells``.
    """
    bins = _BIN_OF[protocol]
    drawn = bins == _RAND if protocol == "P" and mode == "generate" else np.ones_like(bins, dtype=bool)
    if weights is None:
        return drawn / drawn.sum()
    what = f"protocol {protocol} {mode}-mode input weights"
    law = read_weights(weights, drawn.reshape(2, 2, -1), what).reshape(bins.shape)
    if mode == "test":
        _check_scored_cells(protocol, law)
    return law / law.sum()


def _check_scored_cells(protocol: str, law: np.ndarray) -> None:
    """Reject a test-mode input law that no run length could certify.

    P's A statistic reads every Check cell and its False conditions both
    False cells; Q's conditions need Check rounds from any Check cell.
    """
    bins = _BIN_OF[protocol]
    scored = bins != _RAND if protocol == "P" else bins == _CHECK
    left_out = scored & (law == 0)
    if protocol == "P" and left_out.any() or protocol == "Q" and np.array_equal(left_out, scored):
        cells = ", ".join(str((int(x) >> 1, int(x) & 1, int(s))) for x, s in np.argwhere(left_out))
        need = "every Check and False cell" if protocol == "P" else "a Check cell"
        raise BadDistribution(f"input weights leave out {cells}: protocol {protocol} test mode needs {need}")


class ConditionCheck(NamedTuple):
    """One certification condition with its estimate and decision."""

    name: str
    estimate: float
    ci: tuple[float, float]
    target: float
    satisfied: bool
    detail: dict


@dataclass(frozen=True)
class CertificationVerdict:
    """Pass/abort decision with per-condition evidence.

    ``decision`` is "PASS", which needs every condition satisfied, or "ABORT",
    which releases no bits; ``conditions`` is a tuple of ``ConditionCheck``
    and ``notes`` a tuple of str.
    ``bits`` are the released bits, held packed and sealed (``PackedBits.drop``):
    0/1 values given in their place are checked and packed, and appending to
    the caller's ``PackedBits`` leaves the verdict's alone.  ``output_bits``
    unpacks them on first read into a read-only uint8 array.
    """

    decision: str
    conditions: tuple[ConditionCheck, ...]
    bits: PackedBits
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.decision not in ("PASS", "ABORT"):
            raise ValueError(f"decision must be 'PASS' or 'ABORT', got {self.decision!r}")
        if not (isinstance(self.conditions, tuple) and all(isinstance(c, ConditionCheck) for c in self.conditions)):
            raise ValueError(f"conditions must be a tuple of ConditionCheck, got {self.conditions!r}")
        if self.decision == "PASS" and not all(c.satisfied for c in self.conditions):
            raise ValueError("a PASS verdict's conditions must all be satisfied")
        if not (isinstance(self.notes, tuple) and all(isinstance(note, str) for note in self.notes)):
            raise ValueError(f"notes must be a tuple of str, got {self.notes!r}")
        bits = as_bits(self.bits)
        object.__setattr__(self, "bits", (bits if isinstance(bits, PackedBits) else PackedBits(bits)).drop())
        if self.decision == "ABORT" and self.bits.size:
            raise ValueError("ABORT verdicts carry no output bits")

    @functools.cached_property
    def output_bits(self) -> np.ndarray:
        bits = self.bits.unpack()
        bits.setflags(write=False)
        return bits


def _band_check(
    name: str, hits: int, trials: int, target: float, delta: float, two_sided: bool = False, **detail
) -> ConditionCheck:
    """A count condition: the rate hits/trials against its target, within the Hoeffding radius at delta.

    A one-sided condition holds when rate >= target - radius, a two-sided one
    when |rate - target| <= radius.  The reported interval is the Wilson
    interval at 1 - delta.
    """
    rate = hits / trials
    radius = analysis.hoeffding_radius(delta, trials)
    ci = analysis.wilson_interval(hits, trials, 1.0 - delta)
    satisfied = abs(rate - target) <= radius if two_sided else rate >= target - radius
    detail = {"count": hits, "trials": trials, "radius": radius, **detail}
    return ConditionCheck(name, rate, ci, target, satisfied, detail)


def _round_chunks(config: ProtocolConfig, devices: DevicePair) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The run's rounds in round order, one chunk at a time, as (code, b) views into the stream's own buffers.

    A round's code is 2*cell + b with cell = n_settings*x + setting and
    x = 2*x0 + x1; b is also given on its own, as uint8.  Each chunk's views
    are overwritten by the next chunk.

    Inputs, the shared coin and the measurement randomness come from three
    fixed substreams of the seed; ``stream.draw_cells`` draws uniform inputs
    over the input law's support and ``stream.draw_codes`` weighted ones.
    """
    seq = np.random.SeedSequence(config.seed)
    input_rng, coin_rng, meas_rng = (np.random.default_rng(s) for s in seq.spawn(3))
    table = devices.response_table(config.protocol)
    n_settings = table.shape[2]
    scratch = Scratch(config.rounds)

    law = _input_law(config.protocol, config.mode, config.input_weights)
    if config.input_weights is not None:
        # a pick is its cell: a zero-weight cell repeats the threshold before it, so no uniform lands there
        cdf = np.cumsum(law)
        drawn = draw_codes(config.rounds, input_rng, ((0, 1, 1),), (cdf[:-1] / cdf[-1])[:, None])
    else:
        xs, settings = law.nonzero()     # a uniform law's support is a box
        ranges = ((xs.min(), xs.max() + 1, n_settings), (settings.min(), settings.max() + 1, 1))
        drawn = draw_cells(config.rounds, input_rng, ranges, scratch.code)

    coin_per_round = devices.uses_coin and devices.coin_per_round
    if devices.uses_coin and not devices.coin_per_round:
        table = table[int(coin_rng.integers(0, 2))][None]      # the run's one coin
    threshold = (1.0 - table).reshape(1, -1)    # one step, by coin * cells_per_coin + cell
    cells_per_coin = table[0].size
    for cell in drawn:
        index = cell
        if coin_per_round:
            index = scratch.index[: cell.size]
            np.copyto(index, cell)
            add_integers(index, coin_rng, 0, 2, cells_per_coin)
        yield scratch.measure(cell, threshold, index, meas_rng)


def _rand_view(config: ProtocolConfig, devices: DevicePair, is_rand: np.ndarray) -> RoundColumns:
    """Replay the run's Rand rounds, those whose code is in ``is_rand``, in round order.

    ``inputs`` are (x0, x1, setting) and ``outputs`` are (b,), both int8.
    """
    pieces = []
    for code, _ in _round_chunks(config, devices):
        code = code[is_rand[code]]
        x, setting = np.divmod(code >> 1, _BIN_OF[config.protocol].shape[1])
        pieces.append(np.column_stack([x >> 1, x & 1, setting, code & 1]).astype(np.int8))
    return RoundColumns(*np.hsplit(np.concatenate(pieces), [3]))


def run_protocol(config: ProtocolConfig, devices: DevicePair) -> tuple[BinStore, CertificationVerdict]:
    """Execute a full protocol run: sampling, binning, certification.

    Deterministic given (config.seed, devices): inputs, the shared coin, and
    the measurement randomness are drawn from three fixed substreams of the
    seed, in round order.  The rounds stream through in chunks; the run keeps
    their tally and, packed one bit per Rand round, the Rand bin's bits and,
    for protocol Q's odd test, whether each Rand bit matched x1.  One
    ``certify`` call builds the conditions from those counts.  A run PASSes
    when every condition holds, releasing the Rand bits past Q's tested
    prefix still packed; otherwise it ABORTs and releases none.
    """
    check_kind("config", config, ProtocolConfig)
    check_kind("devices", devices, DevicePair, DeviceArityMismatch)
    if config.rounds < 1:
        raise InsufficientRounds("a run needs at least one round")
    n_settings = _BIN_OF[config.protocol].shape[1]
    is_rand = np.repeat((_BIN_OF[config.protocol] == _RAND).ravel(), 2)   # by code = 2*cell + b
    odd_test = config.protocol == "Q" and config.mode == "test"
    odd_match = _win(GameId.GAME_G2).ravel()       # by code; on odd-weight rounds, b == x1

    counts = np.zeros(4 * n_settings * 2, dtype=np.int64)
    bits, odd_matches = PackedBits(), PackedBits()
    for code, b in _round_chunks(config, devices):
        counts += np.bincount(code, minlength=counts.size)
        rand = is_rand[code]
        bits.append(b[rand])
        if odd_test:
            odd_matches.append(odd_match[code][rand])
    # Q's odd test spends the first test_len Rand rounds
    test_len = math.ceil(config.gamma * odd_matches.size)
    odd_hits = int(np.count_nonzero(odd_matches.unpack(test_len)))

    replay = functools.partial(_rand_view, config, devices, is_rand)
    bins = BinStore(config.protocol, counts.reshape(4, n_settings, 2), replay)
    conditions = certify(config, bins.tally, odd_hits, test_len)
    passed = all(c.satisfied for c in conditions)
    released = bits.drop(test_len) if passed else PackedBits()
    notes = (devices.caveat,) if devices.caveat else ()
    return bins, CertificationVerdict("PASS" if passed else "ABORT", conditions, released, notes)


def certify(
    config: ProtocolConfig, tally: np.ndarray, odd_hits: int = 0, test_len: int = 0
) -> tuple[ConditionCheck, ...]:
    """Every condition of a run's verdict, from its tally [x, setting, b] and Q's odd test.

    Test mode checks P's A statistic against A* and its False-bin outcomes
    against 1, or Q's even-weight wins against 1 and the match rate with x1
    of the first ``test_len`` Rand rounds, ``odd_hits`` of which matched,
    against 1/2.  Both modes end with ``rand_nonempty``.  A test-mode tally
    without Check rounds, or without a cell that P's conditions score,
    raises ``InsufficientRounds``.
    """
    check_kind("config", config, ProtocolConfig)
    check_count("odd_hits", odd_hits)
    check_count("test_len", test_len)
    n_settings = _BIN_OF[config.protocol].shape[1]
    tally = np.asarray(tally)
    if tally.shape != (4, n_settings, 2) or not np.issubdtype(tally.dtype, np.integer) or np.any(tally < 0):
        raise ValueError(
            f"a protocol {config.protocol} tally is [x, setting, b] of shape (4, {n_settings}, 2) with nonnegative "
            f"integer counts, got {tally.dtype} of shape {tally.shape}"
        )
    n = _bin_counts(config.protocol, tally)
    conditions = []
    if config.mode == "test" and n["check"] == 0:
        raise InsufficientRounds("check bin is empty")
    if config.mode == "test" and config.protocol == "P":
        try:
            a_hat = analysis.statistic_A(tally[:, :2, :], confidence=1.0 - config.delta)
        except analysis.MissingCell as exc:
            raise InsufficientRounds(str(exc)) from exc
        radius = analysis.hoeffding_radius(config.delta, n["check"])
        conditions.append(ConditionCheck(
            "A_statistic", a_hat.point, (a_hat.ci_low, a_hat.ci_high), A_STAR,
            abs(a_hat.point - A_STAR) <= radius, {"radius": radius, "trials": n["check"]},
        ))
        for name, x, want_bit in (("false_b0_given_x00", 0, 0), ("false_b1_given_x11", 3, 1)):
            trials = int(tally[x, 2].sum())
            if trials == 0:
                raise InsufficientRounds(f"false bin has no x={'00' if want_bit == 0 else '11'} rounds")
            hits = int(tally[x, 2, want_bit])
            conditions.append(_band_check(name, hits, trials, 1.0, config.delta, exceptions=trials - hits))
    if config.mode == "test" and config.protocol == "Q":
        even_win = _win(GameId.GAME_G2) & (_BIN_OF["Q"] == _CHECK)[:, :, None]
        wins = int(tally[even_win].sum())
        conditions.append(_band_check("even_win", wins, n["check"], 1.0, config.delta, exceptions=n["check"] - wins))
        if test_len > 0:
            conditions.append(_band_check(
                "odd_guess_half", odd_hits, test_len, 0.5, config.delta, two_sided=True,
                gamma=config.gamma, test_portion=test_len,
            ))
        else:
            conditions.append(ConditionCheck(
                "odd_guess_half", 0.0, (0.0, 0.0), 0.5, False, {"trials": 0, "gamma": config.gamma, "test_portion": 0}
            ))
    ok = n["rand"] > 0
    return (*conditions, ConditionCheck("rand_nonempty", float(ok), (float(ok), float(ok)), 1.0, ok, {}))


# ---------------------------------------------------------------------------
# guessing-game bounds
# ---------------------------------------------------------------------------

class BoundCheck(NamedTuple):
    name: str
    empirical: float
    expected: float
    stderr: float
    trials: int
    within_four_se: bool


class GuessingBoundsReport(NamedTuple):
    checks: tuple[BoundCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.within_four_se for c in self.checks)


AUGMENTED_CHSH_SCORE = (2.0 / 3.0) * A_STAR + 1.0 / 3.0     # the closed form of experiment (a)'s exact rate


def _guessing_experiments() -> tuple[tuple[str, tuple[int, int], tuple[int, int], np.ndarray], ...]:
    """(name, x range, setting range, win mask [x, setting, b]) of each bound experiment.

    x = 2*x0 + x1 and the setting are uniform over their ranges.
    """
    x, _, b = np.indices((4, 3, 2))
    a, x1 = x >> 1, x & 1           # a is the preparation's in-basis index
    # y < 2 plays the self-test; y = 2 matches b to a when x' = a ^ x1 is 0 and is condition-free when it is 1
    augmented = np.concatenate([_win(GameId.TAVAKOLI), ((b == a) | (a != x1))[:, 2:]], axis=1)
    return (
        ("augmented_chsh_score", (0, 4), (0, 3), augmented),
        ("output_guess_rate", (0, 4), (2, 3), b == a),
        ("rand_bit_guess_rate", (1, 3), (2, 3), b == a),
    )


def _exact_rate(table: np.ndarray, x_range: tuple[int, int], setting_range: tuple[int, int], win: np.ndarray) -> float:
    """Pr[win] of one experiment on devices with response table [x, setting]."""
    weights = np.zeros((4, 3))
    weights[slice(*x_range), slice(*setting_range)] = 1.0
    weights /= weights.sum()
    pr_b = np.stack([1.0 - table, table], axis=-1)
    return float((weights[..., None] * pr_b * win).sum())


def _bound_check(name: str, hits: int, trials: int, expected: float) -> BoundCheck:
    empirical = hits / trials
    stderr = math.sqrt(expected * (1.0 - expected) / trials)
    return BoundCheck(
        name, empirical, expected, stderr, trials, abs(empirical - expected) <= 4.0 * stderr
    )


def guessing_game_bound_check(trials: int, rng: np.random.Generator) -> GuessingBoundsReport:
    """Simulate the three no-signaling bound experiments on honest P devices.

    (a) the augmented-game reading of protocol P, uniform over the six
    (x', y) settings, whose success rate is (2/3)cos^2(pi/8) + 1/3 -- the
    y = 2 settings contribute the deterministic x' = 0 match and the
    condition-free x' = 1 cell;
    (b) the adversary that guesses the preparation's output from the observed
    y = 2 outcome, capped at 3/4;
    (c) an eavesdropper guessing a Rand-round bit from the preparation label,
    capped at 1/2.

    Each experiment tallies its trials by code from ``stream.draw_codes``,
    the draw loop that ``RoundSampler`` and ``run_protocol`` share, and
    counts its wins with its win mask over (x, setting, b); its expected
    rate is exact, from the same mask.
    """
    check_count("trials", trials, 1)
    table = honest_devices("P").response_table("P")[0]
    threshold = (1.0 - table).reshape(1, -1)    # one step, by cell = 3*x + setting
    checks = []
    for name, x_range, setting_range, win in _guessing_experiments():
        codes = draw_codes(trials, rng, ((*x_range, 3), (*setting_range, 1)), threshold)
        hits = int(sum(np.bincount(code, minlength=win.size) for code in codes) @ win.ravel())  # code = 2*cell + b
        checks.append(_bound_check(name, hits, trials, _exact_rate(table, x_range, setting_range, win)))
    return GuessingBoundsReport(tuple(checks))
