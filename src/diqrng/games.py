"""The five nonlocal / self-testing games and their strategies.

Covers game definitions (winning predicates and valid input sets), the
optimal quantum strategies, deterministic classical strategy spaces with
exhaustive search, exact evaluation, round sampling, and the empirical
game-equivalence checks.

Every strategy compiles to one outcome tensor P[inputs..., outputs...] (see
``outcome_tensor``); scoring, sampling and the classical search all read it,
and ``RoundSampler.tally`` counts sampled rounds on the same axes.

Game roster:
  * CHSH          two-party, win iff x & y == a ^ b, standard strategy;
  * CHSH1         same predicate, relabeled measurement strategy;
  * GAME_G        two-party with two-bit input for Alice, win iff
                  (x0 ^ x1) & y == a ^ b;
  * TAVAKOLI      prepare-and-measure self-test, success iff b == x_y;
  * PSEUDO_TELEPATHY3  three-party GHZ parity game on even-weight inputs;
  * GAME_G2       prepare-and-measure self-test reduced from the GHZ game,
                  with an even-weight winning condition and an odd-weight
                  unpredictability condition.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import qcore
from .errors import ArityMismatch, BadDistribution, BadInput
from .qcore import Gate1Q, PureState, QubitBasis

QUANTUM_WIN = 0.5 * (1.0 + 1.0 / math.sqrt(2.0))   # cos^2(pi/8), the CHSH quantum value


class GameId(Enum):
    CHSH = "chsh"
    CHSH1 = "chsh1"
    GAME_G = "g"
    TAVAKOLI = "tavakoli"
    PSEUDO_TELEPATHY3 = "pt3"
    GAME_G2 = "g2"


class ScoreKind(Enum):
    WIN_PROBABILITY = "win_probability"
    STATISTIC_A = "statistic_A"
    EVEN_WIN = "even_win"
    ODD_GUESS = "odd_guess"
    AUGMENTED = "augmented"


@dataclass(frozen=True)
class GameScore:
    value: float
    kind: ScoreKind

    def __post_init__(self) -> None:
        if not -1e-12 <= self.value <= 1 + 1e-12:
            raise ValueError(f"score {self.value} outside [0, 1]")


@dataclass(frozen=True)
class G2Score:
    """The G2 score triple: even-weight win, odd-weight guess rate, their mean."""

    even_win: GameScore
    odd_guess: GameScore
    augmented: GameScore


@dataclass(frozen=True)
class RoundIO:
    """One round's classical transcript: the dealt inputs and produced outputs."""

    inputs: tuple[int, ...]
    outputs: tuple[int, ...]


def read_only_view(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``: no copy, and ``arr`` itself stays writable."""
    view = arr.view()
    view.setflags(write=False)
    return view


class RoundColumns(Sequence):
    """Rounds as read-only int8 columns, indexable as RoundIO values.

    ``inputs`` is [round, input bit] and ``outputs`` is [round, output bit].
    Sampled game rounds and a protocol run's bins both take this form.
    """

    def __init__(self, inputs: np.ndarray, outputs: np.ndarray):
        self.inputs = read_only_view(inputs)
        self.outputs = read_only_view(outputs)

    def __len__(self) -> int:
        return len(self.inputs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return RoundIO(tuple(self.inputs[i].tolist()), tuple(self.outputs[i].tolist()))


class _Shape(NamedTuple):
    inputs: int                 # input bits
    outputs: int                # output bits
    tables: tuple[int, ...]     # entries per deterministic response table
    contraction: str            # how the outcome-tensor operands contract to amplitudes


# A deterministic strategy's tables are tuples of output bits indexed by the
# canonical (lexicographic) order of that party's inputs.  Contractions:
# prepare-and-measure games take measurement rows [setting, b, i] against the
# preparations [x, i]; entangled games take one row stack [input, bit, i] per
# party against the shared state.  A two-bit input x is 2*x0 + x1; the
# ellipsis carries a batch.
_SHAPES = {
    GameId.CHSH: _Shape(2, 2, (2, 2), "...xai,...ybj,...ij->...xyab"),
    GameId.CHSH1: _Shape(2, 2, (2, 2), "...xai,...ybj,...ij->...xyab"),
    GameId.GAME_G: _Shape(3, 2, (4, 2), "...xai,...ybj,...ij->...xyab"),
    GameId.TAVAKOLI: _Shape(3, 1, (4, 4), "...sbi,...xi->...xsb"),
    GameId.PSEUDO_TELEPATHY3: _Shape(3, 3, (2, 2, 2), "...xai,...ybj,...zck,...ijk->...xyzabc"),
    GameId.GAME_G2: _Shape(3, 1, (4, 4), "...sbi,...xi->...xsb"),
}


def input_space(game: GameId) -> tuple[tuple[int, ...], ...]:
    """All valid input tuples of a game, in lexicographic order."""
    if not isinstance(game, GameId):
        raise ArityMismatch(f"unknown game {game}")
    space = itertools.product(_BITS, repeat=_SHAPES[game].inputs)
    return tuple(x for x in space if game is not GameId.PSEUDO_TELEPATHY3 or sum(x) % 2 == 0)


def _check_io(game: GameId, io: RoundIO) -> None:
    if game is GameId.PSEUDO_TELEPATHY3:
        # the parity predicate is n-agnostic; only the n = 3 strategies exist
        if len(io.inputs) < 3 or len(io.outputs) != len(io.inputs):
            raise ArityMismatch(
                f"{game.value} expects one output per player (>= 3), got "
                f"{len(io.inputs)} inputs and {len(io.outputs)} outputs"
            )
    else:
        shape = _SHAPES[game]
        if len(io.inputs) != shape.inputs:
            raise ArityMismatch(f"{game.value} expects {shape.inputs} inputs, got {len(io.inputs)}")
        if len(io.outputs) != shape.outputs:
            raise ArityMismatch(f"{game.value} expects {shape.outputs} outputs, got {len(io.outputs)}")
    for v in io.inputs + io.outputs:
        if v not in (0, 1):
            raise ArityMismatch("inputs and outputs must be bits")


def winning_predicate(game: GameId, io: RoundIO) -> bool:
    """Whether the round transcript wins the game.

    For GAME_G2 the even-weight branch tests the integer identity
    (x0+x1+x2)/2 == b + (x0 & (x0 ^ x1)) and the odd-weight branch tests
    b == x1.  PSEUDO_TELEPATHY3 accepts only even-weight inputs here; the
    odd-weight extension lives in :func:`pt3_odd_extension_score`.
    """
    _check_io(game, io)
    if game in (GameId.CHSH, GameId.CHSH1):
        x, y = io.inputs
        a, b = io.outputs
        return (x & y) == (a ^ b)
    if game is GameId.GAME_G:
        x0, x1, y = io.inputs
        a, b = io.outputs
        return ((x0 ^ x1) & y) == (a ^ b)
    if game is GameId.TAVAKOLI:
        x0, x1, y = io.inputs
        (b,) = io.outputs
        return b == (x0, x1)[y]
    if game is GameId.PSEUDO_TELEPATHY3:
        weight = sum(io.inputs)
        if weight % 2 != 0:
            raise BadInput("pseudo-telepathy inputs must have even weight")
        return sum(io.outputs) % 2 == (weight // 2) % 2
    if game is GameId.GAME_G2:
        x0, x1, x2 = io.inputs
        (b,) = io.outputs
        weight = x0 + x1 + x2
        if weight % 2 == 0:
            return weight // 2 == b + (x0 & (x0 ^ x1))
        return b == x1
    raise ArityMismatch(f"unknown game {game}")


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureSpec:
    """One party's measurement for a given classical input.

    Optional gates are applied to the party's qubit first, then the basis is
    measured; ``outputs`` relabels (outcome 0, outcome 1) to reported bits.
    """

    basis: QubitBasis
    gates: tuple[Gate1Q, ...] = ()
    outputs: tuple[int, int] = (0, 1)

    def __post_init__(self) -> None:
        if sorted(self.outputs) != [0, 1]:
            raise ArityMismatch(f"outputs must relabel the two outcomes as 0 and 1, got {self.outputs}")


@dataclass(frozen=True)
class QuantumStrategy:
    """A game's quantum strategy.

    Entangled games use ``shared_state`` plus one measurement rule per party
    (keyed by that party's classical input).  Prepare-and-measure games use
    ``preparation`` (input pair -> emitted qubit) plus a single measurement
    rule keyed by the measurement setting.
    """

    game: GameId
    shared_state: PureState | None = None
    party_rules: tuple[Mapping[object, MeasureSpec], ...] = ()
    preparation: Mapping[tuple[int, int], PureState] | None = None
    measurement: Mapping[int, MeasureSpec] | None = None


def paper_strategy(game: GameId) -> QuantumStrategy:
    """The optimal quantum strategy for each game."""
    psi_meas = {0: MeasureSpec(qcore.PSI), 1: MeasureSpec(qcore.PHI)}
    if game is GameId.CHSH:
        return QuantumStrategy(
            game,
            shared_state=qcore.BELL_PHI_PLUS,
            party_rules=(
                {0: MeasureSpec(qcore.COMPUTATIONAL), 1: MeasureSpec(qcore.HADAMARD)},
                # b = 0 on |psi> and on |phi_perp>
                {0: MeasureSpec(qcore.PSI), 1: MeasureSpec(qcore.PHI, outputs=(1, 0))},
            ),
        )
    if game is GameId.CHSH1:
        return QuantumStrategy(
            game,
            shared_state=qcore.BELL_PHI_PLUS,
            party_rules=(
                {0: MeasureSpec(qcore.HADAMARD), 1: MeasureSpec(qcore.COMPUTATIONAL)},
                dict(psi_meas),
            ),
        )
    if game is GameId.GAME_G:
        alice = {
            (x0, x1): MeasureSpec(qcore.HADAMARD if x0 == x1 else qcore.COMPUTATIONAL)
            for x0 in (0, 1)
            for x1 in (0, 1)
        }
        return QuantumStrategy(
            game, shared_state=qcore.BELL_PHI_PLUS, party_rules=(alice, dict(psi_meas))
        )
    if game is GameId.TAVAKOLI:
        return QuantumStrategy(
            game,
            preparation={
                (0, 0): qcore.KET_PLUS,
                (0, 1): qcore.KET_ZERO,
                (1, 0): qcore.KET_ONE,
                (1, 1): qcore.KET_MINUS,
            },
            measurement=dict(psi_meas),
        )
    if game is GameId.PSEUDO_TELEPATHY3:
        per_player = {
            0: MeasureSpec(qcore.COMPUTATIONAL, gates=(qcore.H,)),
            1: MeasureSpec(qcore.COMPUTATIONAL, gates=(qcore.S, qcore.H)),
        }
        return QuantumStrategy(
            game,
            shared_state=qcore.GHZ3,
            party_rules=tuple(dict(per_player) for _ in range(3)),
        )
    if game is GameId.GAME_G2:
        return QuantumStrategy(
            game,
            preparation={
                (0, 0): qcore.KET_PLUS,
                (0, 1): qcore.KET_PLUS_I,
                (1, 0): qcore.KET_MINUS_I,
                (1, 1): qcore.KET_MINUS,
            },
            measurement={
                0: MeasureSpec(qcore.COMPUTATIONAL, gates=(qcore.H,)),
                1: MeasureSpec(qcore.COMPUTATIONAL, gates=(qcore.S, qcore.H)),
            },
        )
    raise ArityMismatch(f"unknown game {game}")


@dataclass(frozen=True)
class ClassicalStrategy:
    """Deterministic response tables, or a finite mixture of them.

    Table layout per game (all indices lexicographic over that party's
    inputs):
      * CHSH/CHSH1:  (a by x), (b by y)
      * GAME_G:      (a by x0x1), (b by y)
      * TAVAKOLI:    preparer (message by x0x1), measurer (b by message,y)
      * GAME_G2:     preparer (message by x0x1), measurer (b by message,x2)
      * PSEUDO_TELEPATHY3: (y_i by x_i) for each of the three players
    """

    game: GameId
    tables: tuple[tuple[int, ...], ...] = ()
    mixture: tuple[tuple[float, "ClassicalStrategy"], ...] = ()

    def __post_init__(self) -> None:
        if bool(self.tables) == bool(self.mixture):
            raise ValueError("provide exactly one of tables or mixture")
        if self.tables:
            sizes = _SHAPES[self.game].tables
            if tuple(len(t) for t in self.tables) != sizes:
                raise ArityMismatch(
                    f"{self.game.value} strategy tables must have sizes {sizes}"
                )
            if any(bit not in (0, 1) for t in self.tables for bit in t):
                raise ArityMismatch("table entries must be bits")
        else:
            weights = [w for w, _ in self.mixture]
            if not all(0 <= w < math.inf for w in weights):
                raise BadDistribution(f"mixture weights must be finite and nonnegative, got {weights}")
            if abs(sum(weights) - 1.0) > 1e-12:
                raise BadDistribution("mixture weights must sum to 1")
            if any(s.game is not self.game for _, s in self.mixture):
                raise ArityMismatch("mixture components must play the same game")

    def renormalized(self, factor: float) -> "ClassicalStrategy":
        """Scale all mixture weights by a positive finite factor, then renormalize."""
        if not self.mixture:
            return self
        if not 0 < factor < math.inf:
            raise BadDistribution(f"scale factor must be positive and finite, got {factor}")
        scaled = [(w * factor, s) for w, s in self.mixture]
        total = sum(w for w, _ in scaled)
        return ClassicalStrategy(
            self.game, mixture=tuple((w / total, s) for w, s in scaled)
        )


# ---------------------------------------------------------------------------
# outcome tensors
# ---------------------------------------------------------------------------

Strategy = QuantumStrategy | ClassicalStrategy

_BITS = (0, 1)
_PAIRS = tuple(itertools.product(_BITS, repeat=2))
_PREPARE_AND_MEASURE = (GameId.TAVAKOLI, GameId.GAME_G2)

def _rows(spec: MeasureSpec) -> np.ndarray:
    """Row b is the bra whose overlap with the qubit is the amplitude of reported bit b.

    Outcome i's bra is <v_i| G_k ... G_1, with G_1 applied first; reported
    bit outputs[i] takes row i (a swap of two rows is its own inverse).
    """
    rows = spec.basis._vconj
    for gate in reversed(spec.gates):
        rows = rows @ gate.matrix
    return rows[list(spec.outputs)]


def _quantum_operands(strategy: QuantumStrategy) -> list[np.ndarray]:
    if (strategy.preparation is not None) != (strategy.game in _PREPARE_AND_MEASURE):
        raise ArityMismatch(f"{strategy.game.value} strategy has the wrong shape for its game")
    if strategy.preparation is not None:
        rows = np.stack([_rows(strategy.measurement[s]) for s in _BITS])
        return [rows, np.stack([strategy.preparation[x].amplitudes for x in _PAIRS])]
    keys = (_PAIRS if strategy.game is GameId.GAME_G else _BITS, _BITS, _BITS)
    rows = [np.stack([_rows(rule[k]) for k in ks]) for rule, ks in zip(strategy.party_rules, keys)]
    return rows + [strategy.shared_state.amplitudes.reshape((2,) * len(rows))]


def _table_operands(game: GameId, tables: list[np.ndarray]) -> list[np.ndarray]:
    """The same operands for deterministic strategies: one-hot rows of their tables.

    Each table is an integer array (..., size) with any leading batch axes.
    In a prepare-and-measure game the one-bit message m stands where the
    qubit's amplitude index stands; in an entangled game the parties share a
    single hidden value, a one-dimensional state.
    """
    onehot = [np.eye(2)[t] for t in tables]                    # [..., input, bit]
    if game in _PREPARE_AND_MEASURE:
        meas = onehot[1].reshape(onehot[1].shape[:-2] + (2, 2, 2))   # [..., m, setting, b]
        return [np.moveaxis(meas, -3, -1), onehot[0]]
    return [t[..., None] for t in onehot] + [np.ones((1,) * len(onehot))]


def _contract(game: GameId, operands: list[np.ndarray]) -> np.ndarray:
    """Born weights of the contracted amplitudes, each input row divided by its sum.

    Weights below ``qcore._PROB_SNAP`` are the residue of exact cancellations
    and are cleared first, so deterministic outcomes stay exactly deterministic.
    """
    shape = _SHAPES[game]
    amplitudes = np.einsum(shape.contraction, *operands)
    amplitudes = amplitudes.reshape(operands[0].shape[:-3] + (2,) * (shape.inputs + shape.outputs))
    probs = amplitudes.real ** 2 + amplitudes.imag ** 2
    probs[probs < qcore._PROB_SNAP] = 0.0
    return probs / probs.sum(axis=tuple(range(-shape.outputs, 0)), keepdims=True)


def outcome_tensor(strategy: Strategy) -> np.ndarray:
    """P[inputs..., outputs...]: the strategy's output distribution on every input.

    One length-2 axis per input bit, then one per output bit.  pt3's tensor
    also covers the odd-weight inputs that the game itself never deals.  A
    mixture's tensor is the weighted sum of its components' tensors.
    """
    if isinstance(strategy, QuantumStrategy):
        return _contract(strategy.game, _quantum_operands(strategy))
    if strategy.mixture:
        return sum(weight * outcome_tensor(component) for weight, component in strategy.mixture)
    return _contract(strategy.game, _table_operands(strategy.game, [np.array(t) for t in strategy.tables]))


@functools.lru_cache(maxsize=None)
def win_mask(game: GameId) -> np.ndarray:
    """The winning predicate as a read-only bool array [inputs..., outputs...].

    Inputs outside the game's input space (pt3's odd weights) never win.
    """
    shape = _SHAPES[game]
    mask = np.zeros((2,) * (shape.inputs + shape.outputs), dtype=bool)
    for x in input_space(game):
        for outputs in itertools.product(_BITS, repeat=shape.outputs):
            mask[x + outputs] = winning_predicate(game, RoundIO(x, outputs))
    mask.setflags(write=False)
    return mask


def _win_rates(game: GameId, probs: np.ndarray) -> np.ndarray:
    """Pr[win | inputs] from an outcome tensor (or a batch of them)."""
    return (probs * win_mask(game)).sum(axis=tuple(range(-_SHAPES[game].outputs, 0)))


def _g2_even() -> np.ndarray:
    """Bool array over G2's inputs: whether the input has even weight."""
    return np.indices((2, 2, 2)).sum(axis=0) % 2 == 0


def mass_score(game: GameId, mass: np.ndarray) -> tuple[float, ...]:
    """The won share (win,) of a mass tensor [inputs..., outputs...], such as weighted outcomes or a tally.

    GAME_G2's is (even_win, odd_guess), by input parity class; a class without mass raises BadDistribution.
    """
    won = mass * win_mask(game)
    if game is not GameId.GAME_G2:
        return (float(won.sum() / mass.sum()),)
    even = _g2_even()
    if not (mass[even].sum() and mass[~even].sum()):
        raise BadDistribution("G2 needs mass on both parity classes")
    return tuple(float(won[side].sum() / mass[side].sum()) for side in (even, ~even))


# ---------------------------------------------------------------------------
# exact evaluation
# ---------------------------------------------------------------------------

def branch_distribution(strategy: Strategy, inputs: tuple[int, ...]) -> dict[tuple[int, ...], float]:
    """Exact output distribution of a strategy on fixed inputs, positive entries only."""
    inputs = tuple(inputs)
    if len(inputs) != _SHAPES[strategy.game].inputs or any(v not in _BITS for v in inputs):
        raise ArityMismatch(f"{inputs} are not {_SHAPES[strategy.game].inputs} input bits")
    row = outcome_tensor(strategy)[inputs]
    return {tuple(o): float(row[tuple(o)]) for o in np.argwhere(row > 0).tolist()}


def _input_weights(game: GameId, input_distribution) -> np.ndarray:
    """The input distribution as an array over the input bits; uniform by default."""
    space = input_space(game)
    dist = dict(input_distribution) if input_distribution is not None else dict.fromkeys(space, 1.0 / len(space))
    weights = np.zeros((2,) * _SHAPES[game].inputs)
    for x, w in dist.items():
        if tuple(x) not in space:
            raise BadDistribution("distribution supported outside the game's valid inputs")
        weights[tuple(x)] = w
    if not np.all((weights >= 0) & (weights < math.inf)):
        raise BadDistribution("weights must be finite and nonnegative")
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-12:
        raise BadDistribution(f"weights sum to {total}, not 1")
    return weights


def exact_score(game: GameId, strategy: Strategy, input_distribution=None) -> GameScore | G2Score:
    """Exact expected score: ``mass_score`` of the input-weighted outcome tensor.

    For GAME_G2 returns the (even_win, odd_guess, augmented) triple, the
    even/odd scores being conditional on the input parity class.
    """
    if strategy.game is not game:
        raise ArityMismatch(f"strategy plays {strategy.game.value}, not {game.value}")
    weights = _input_weights(game, input_distribution)
    mass = weights.reshape(weights.shape + (1,) * _SHAPES[game].outputs) * outcome_tensor(strategy)
    scores = mass_score(game, mass)

    if game is GameId.GAME_G2:
        even_win, odd_guess = scores
        return G2Score(
            even_win=GameScore(even_win, ScoreKind.EVEN_WIN),
            odd_guess=GameScore(odd_guess, ScoreKind.ODD_GUESS),
            augmented=GameScore(0.5 * even_win + 0.5 * odd_guess, ScoreKind.AUGMENTED),
        )

    kind = ScoreKind.STATISTIC_A if game is GameId.TAVAKOLI else ScoreKind.WIN_PROBABILITY
    return GameScore(scores[0], kind)


def pt3_odd_extension_score(strategy: Strategy) -> float:
    """Pr[y2 == x1] of the GHZ-game strategy over the four odd-weight inputs.

    This is the odd-weight reading of the three-party game that backs GAME_G2's
    second condition; the dealer never sends these inputs in the game proper.
    """
    if strategy.game is not GameId.PSEUDO_TELEPATHY3:
        raise ArityMismatch("odd-weight extension is defined for the GHZ game")
    probs = outcome_tensor(strategy)
    odd_inputs = [x for x in itertools.product(_BITS, repeat=3) if sum(x) % 2 == 1]
    return sum(float(probs[x][..., x[1]].sum()) for x in odd_inputs) / len(odd_inputs)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

_CHUNK_ROUNDS = 1 << 16     # rounds per chunk of every full-length Monte Carlo draw
_DRAW_VALUES = 1 << 13      # int64 values per piece of a chunked integer draw: 64 KB
MAX_ROUNDS = int(np.iinfo(np.int64).max)    # the most rounds or trials an int64 tally can count


def _check_integer(name: str, value) -> None:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_count(name: str, value, low: int = 0) -> None:
    """Reject a round or trial count that is not an integer in [low, ``MAX_ROUNDS``]."""
    _check_integer(name, value)
    if not low <= value <= MAX_ROUNDS:
        raise ValueError(f"{name} must lie in [{low}, {MAX_ROUNDS}], got {value}")


def chunk_slices(n: int, size: int = _CHUNK_ROUNDS) -> Iterator[slice]:
    """Consecutive slices of at most ``size`` rounds covering range(n)."""
    return (slice(start, min(start + size, n)) for start in range(0, n, size))


def count_bits(blocks: Iterable[np.ndarray]) -> tuple[int, int]:
    """The number of ones and of adjacent unequal pairs in consecutive blocks of 0/1 values."""
    ones = changes = 0
    last = None
    for block in blocks:
        if last is not None:
            changes += int(last != block[0])
        ones += int(np.count_nonzero(block))
        changes += int(np.count_nonzero(np.diff(block)))
        last = int(block[-1])
    return ones, changes


def bit_array(bits) -> np.ndarray:
    """0/1 values as a 1-D uint8 array; any other value, or an array that is not 1-D, raises ValueError."""
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


class PackedBits:
    """Bits appended piece by piece and held packed, one bit each, with each piece's count.

    Every piece but the last holds ``_CHUNK_ROUNDS`` bits, so a piece
    unpacked is a block and the bits never need to be unpacked all at once.
    The pieces are read-only: ``append`` replaces a short last piece rather
    than writing to it.  ``drop`` gives a sealed copy that refuses
    ``append``, so its bits never change.  Two ``PackedBits`` are equal when
    they hold the same bits.
    """

    __hash__ = None     # equal by content, so not hashable

    def __init__(self, bits: np.ndarray | None = None) -> None:
        self._pieces: list[tuple[np.ndarray, int]] | tuple[tuple[np.ndarray, int], ...] = []
        self._counts = None     # ``counts()``, kept until the next ``append``
        self.size = 0
        if bits is not None:
            self.append(bits)

    def append(self, bits) -> None:
        """Append 0/1 values (see ``bit_array``), filling a short last piece first; sealed bits raise ValueError."""
        if isinstance(self._pieces, tuple):
            raise ValueError("sealed bits take no more bits")
        bits = bit_array(bits)
        self.size += bits.size
        self._counts = None
        if self._pieces and self._pieces[-1][1] < _CHUNK_ROUNDS:
            packed, count = self._pieces.pop()
            bits = np.concatenate([np.unpackbits(packed, count=count), bits])
        for piece in chunk_slices(bits.size):
            packed = np.packbits(bits[piece])
            packed.setflags(write=False)
            self._pieces.append((packed, piece.stop - piece.start))

    def drop(self, n: int = 0) -> PackedBits:
        """A sealed copy of these bits past the first n (none by default); an n past the end drops every bit.

        It shares the pieces past n when n is a multiple of ``_CHUNK_ROUNDS``
        and packs the bits past n anew otherwise.  A negative n raises ValueError.
        """
        if n < 0:
            raise ValueError(f"drop takes n >= 0 bits, got {n}")
        first, skip = divmod(min(n, self.size), _CHUNK_ROUNDS)
        rest = PackedBits()
        if skip:
            for packed, count in self._pieces[first:]:
                rest.append(np.unpackbits(packed, count=count)[skip:])
                skip = 0
        else:
            rest._pieces, rest.size = self._pieces[first:], self.size - first * _CHUNK_ROUNDS
        rest._pieces = tuple(rest._pieces)
        return rest

    def blocks(self) -> Iterator[np.ndarray]:
        """The bits in order, one unpacked piece per uint8 block; only the last may be short."""
        return (np.unpackbits(packed, count=count) for packed, count in self._pieces)

    def counts(self) -> tuple[int, int]:
        """The number of ones and of adjacent unequal pairs, from one pass over the blocks."""
        if self._counts is None:
            self._counts = count_bits(self.blocks())
        return self._counts

    def unpack(self, n: int | None = None) -> np.ndarray:
        """The first n bits, all of them by default, as one exact-size uint8 array; n must lie in [0, size]."""
        if n is not None and not 0 <= n <= self.size:
            raise ValueError(f"unpack takes n in [0, {self.size}] bits, got {n}")
        bits = np.empty(self.size if n is None else n, dtype=np.uint8)
        for start, block in zip(range(0, bits.size, _CHUNK_ROUNDS), self.blocks()):
            bits[start : start + block.size] = block[: bits.size - start]
        return bits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedBits):
            return NotImplemented
        return self.size == other.size and all(map(np.array_equal, self.blocks(), other.blocks()))


def skip_ahead(rng: np.random.Generator, n: int, low: int, high: int) -> np.random.Generator:
    """A copy of ``rng`` left where ``rng.integers(low, high, size=n)`` would leave it.

    The n draws are made and discarded piece by piece on the copy, as in
    ``add_integers``; ``rng`` itself does not move.  The copy then yields
    the block of draws that follows those n.
    """
    ahead = copy.deepcopy(rng)
    for piece in chunk_slices(n, _DRAW_VALUES):
        ahead.integers(low, high, size=piece.stop - piece.start)
    return ahead


def add_integers(out: np.ndarray, rng: np.random.Generator, low: int, high: int, scale: int = 1) -> None:
    """``out += scale * rng.integers(low, high, size=out.size)``, with the same draws and end state.

    ``Generator.integers`` cannot write into a buffer, so the values are
    drawn ``_DRAW_VALUES`` at a time.  A 64 KB piece stays under glibc's
    default 128 KB trim threshold: each freed piece is reused by the next
    one instead of being returned to the system and faulted back in.
    """
    for piece in chunk_slices(out.size, _DRAW_VALUES):
        draw = rng.integers(low, high, size=piece.stop - piece.start)
        draw *= scale
        out[piece] += draw


def _skip_chain(n: int, rng: np.random.Generator, ranges: Sequence) -> Iterator[np.random.Generator]:
    """``rng``, then copies of it moved past each drawing range's n values in turn, each made when asked for."""
    yield rng
    for low, high, _ in ranges:
        if high - low > 1:
            rng = skip_ahead(rng, n, low, high)
            yield rng


def _cells(n: int, chain: Iterator[np.random.Generator], ranges: Sequence, out: np.ndarray) -> Iterator[np.ndarray]:
    """The cells of ``draw_cells`` from the streams of ``chain``, whose next stream is then the one past them."""
    fixed = sum(low * scale for low, high, scale in ranges if high - low == 1)
    drawn = [(low, high, scale) for low, high, scale in ranges if high - low > 1]
    streams = [stream for _, stream in zip(drawn, chain)]      # zip stops before taking one more

    def cells() -> Iterator[np.ndarray]:
        for piece in chunk_slices(n, out.size):
            cell = out[: piece.stop - piece.start]
            cell.fill(fixed)
            for (low, high, scale), stream in zip(drawn, streams):
                add_integers(cell, stream, low, high, scale)
            yield cell
    return cells()


def draw_cells(n: int, rng: np.random.Generator, ranges: Sequence, out: np.ndarray) -> Iterator[np.ndarray]:
    """n cells in pieces of ``out.size``, each written into the head of ``out`` and overwritten by the next.

    The draw order of every Monte Carlo path.  A cell is the sum of ``scale *
    integers(low, high)`` over the (low, high, scale) ranges.  Each range
    draws all its n values, the first from ``rng`` and each later one from a
    copy of ``rng`` moved past the ranges before it; a Generator draws the
    same values in pieces as in one call.  A one-value range draws nothing.
    """
    return _cells(n, _skip_chain(n, rng, ranges), ranges, out)


def draw_codes(n: int, rng: np.random.Generator, ranges: Sequence, threshold: np.ndarray) -> Iterator[np.ndarray]:
    """The round codes of n rounds from ``_Scratch.measure``, ``_DRAW_VALUES`` at a time in one reused buffer.

    The cells are drawn as ``draw_cells`` draws them from a copy of ``rng``,
    and the uniforms from ``rng`` moved past every cell draw, each range
    walked once: the one-call order.
    """
    scratch = _Scratch(max(1, min(n, _DRAW_VALUES)))
    chain = _skip_chain(n, copy.deepcopy(rng), ranges)
    cells = _cells(n, chain, ranges, scratch.code)
    rng.bit_generator.state = next(chain).bit_generator.state
    for cell in cells:
        yield scratch.measure(cell, threshold, cell, rng)[0]


def _gather(values: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """values[index] along the first axis, written into the head of the reused buffer ``out``.

    Every index is in range.  ``mode="clip"`` keeps ``np.take`` from filling
    a hidden copy of ``out`` first, as its default ``mode="raise"`` does.
    """
    return np.take(values, index, axis=0, out=out[: index.size], mode="clip")


class _Scratch:
    """One chunk's buffers, allocated once per call and reused by every chunk, and the one sampling kernel."""

    def __init__(self, rounds: int):
        size = min(rounds, _CHUNK_ROUNDS)
        self.code = np.empty(size, dtype=np.int64)      # a chunk's cells, then its round codes
        self.index = np.empty(size, dtype=np.int64)     # threshold indices, when they are not the cells
        self.threshold = np.empty(size)
        self.uniform = np.empty(size)
        self.hit = np.empty(size, dtype=bool)
        self.mask = np.empty((2, size), dtype=bool)     # two gathers from per-code tables

    def measure(
        self, cell: np.ndarray, threshold: np.ndarray, index: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw each round's branch and turn ``cell`` into the round codes (steps + 1)*cell + branch.

        The branch is the number of steps whose threshold[step, index] a fresh
        uniform from ``rng`` reaches: with one step, 1 - Pr[b = 1], it is the
        bit b of ``DevicePair``.  Returns (code, branch), the branch as uint8.
        """
        u = rng.random(out=self.uniform[: cell.size])
        hit = np.greater_equal(u, _gather(threshold[0], index, self.threshold), out=self.hit[: cell.size])
        branch = hit.view(np.uint8) if len(threshold) == 1 else hit.astype(np.uint8)
        for row in threshold[1:]:
            branch += np.greater_equal(u, _gather(row, index, self.threshold), out=hit)
        cell *= len(threshold) + 1
        cell += branch
        return cell, branch


class RoundSampler:
    """Draws rounds from a strategy's outcome tensor as a threshold table [step, input].

    An input's thresholds are the CDF of its positive outputs, in
    lexicographic order, without the last entry and padded with +inf (a
    mixture's tensor is the averaged distribution, identical for i.i.d.
    rounds).  A round takes one uniform u from the caller's rng, and its
    branch, the thresholds u reaches, is ``searchsorted(cdf, u, side="right")``
    capped at the last positive output.
    """

    def __init__(self, game: GameId, strategy: Strategy):
        if strategy.game is not game:
            raise ArityMismatch(f"strategy plays {strategy.game.value}, not {game.value}")
        self.game = game
        self.strategy = strategy
        self._space = input_space(game)
        self._ranges = ((0, len(self._space), 1),)       # one uniform input index per round
        probs = outcome_tensor(strategy)
        rows = [probs[inputs].ravel() for inputs in self._space]
        supports = [np.flatnonzero(row) for row in rows]
        steps = max(1, max(s.size for s in supports) - 1)
        self._threshold = np.full((steps, len(rows)), np.inf)
        self._code_outputs = np.zeros((len(rows) * (steps + 1), _SHAPES[game].outputs), dtype=np.int8)
        outputs = np.array(list(itertools.product(_BITS, repeat=_SHAPES[game].outputs)), dtype=np.int8)
        for i, (row, support) in enumerate(zip(rows, supports)):
            self._threshold[: support.size - 1, i] = np.cumsum(row[support])[:-1]
            self._code_outputs[i * (steps + 1) : i * (steps + 1) + support.size] = outputs[support]
        self._code_inputs = np.repeat(np.array(self._space, dtype=np.int8), steps + 1, axis=0)

    def sample(self, inputs: tuple[int, ...], rng: np.random.Generator) -> RoundIO:
        inputs = tuple(inputs)
        if inputs not in self._space:
            raise BadInput(f"{inputs} is not a valid {self.game.value} input")
        i = self._space.index(inputs)
        branch = int(np.count_nonzero(rng.random() >= self._threshold[:, i]))
        return RoundIO(inputs, tuple(self._code_outputs[i * (len(self._threshold) + 1) + branch].tolist()))

    def tally(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n rounds drawn as ``sample_many`` draws them, counted as int64 on the axes of ``win_mask``."""
        _check_count("n", n)
        counts = np.zeros(len(self._code_inputs), dtype=np.int64)
        for code in draw_codes(n, rng, self._ranges, self._threshold):
            counts += np.bincount(code, minlength=counts.size)
        tally = np.zeros((2,) * (self._code_inputs.shape[1] + self._code_outputs.shape[1]), dtype=np.int64)
        np.add.at(tally, tuple(np.hstack([self._code_inputs, self._code_outputs]).T), counts)
        return tally

    def sample_many(self, n: int, rng: np.random.Generator) -> RoundColumns:
        """n rounds with uniform inputs, in round order, as int8 columns (6 B/round for pt3)."""
        _check_count("n", n)
        inputs = np.empty((n, _SHAPES[self.game].inputs), dtype=np.int8)
        outputs = np.empty((n, _SHAPES[self.game].outputs), dtype=np.int8)
        for piece, code in zip(chunk_slices(n, _DRAW_VALUES), draw_codes(n, rng, self._ranges, self._threshold)):
            _gather(self._code_inputs, code, inputs[piece])
            _gather(self._code_outputs, code, outputs[piece])
        return RoundColumns(inputs, outputs)


def sample_round(game: GameId, strategy: Strategy, inputs: tuple[int, ...], rng: np.random.Generator) -> RoundIO:
    """One round of the game; outputs drawn from the strategy's outcome tensor."""
    return RoundSampler(game, strategy).sample(inputs, rng)


# ---------------------------------------------------------------------------
# classical brute force
# ---------------------------------------------------------------------------

def enumerate_deterministic(game: GameId) -> Iterator[ClassicalStrategy]:
    """All deterministic strategies of a game, in lexicographic table order."""
    sizes = _SHAPES[game].tables
    pools = [itertools.product((0, 1), repeat=size) for size in sizes]
    for tables in itertools.product(*pools):
        yield ClassicalStrategy(game, tables=tuple(tables))


def _deterministic_wins(game: GameId) -> tuple[list[np.ndarray], np.ndarray]:
    """Every deterministic strategy's tables and its wins on every input.

    Strategy k's tables are the bits of k, most significant first, which is
    ``enumerate_deterministic`` order.  Returns the tables as (k, size) arrays
    and the wins as a 0/1 array [k, inputs...].
    """
    sizes = _SHAPES[game].tables
    width = sum(sizes)
    bits = (np.arange(2 ** width)[:, None] >> np.arange(width - 1, -1, -1)) & 1
    tables = np.split(bits, np.cumsum(sizes)[:-1], axis=1)
    return tables, _win_rates(game, _contract(game, _table_operands(game, tables)))


def best_classical(game: GameId) -> tuple[float, ClassicalStrategy]:
    """Exhaustive deterministic maximum and its (lexicographically first) argmax.

    By convexity the deterministic maximum bounds every shared-randomness
    mixture of the same score kind.  Scores are exact win counts over the
    input space (for GAME_G2 the augmented score: both parity classes hold
    four inputs, so it is wins over all eight).
    """
    tables, wins = _deterministic_wins(game)
    counts = wins.reshape(len(wins), -1).sum(axis=1)
    best = int(np.argmax(counts))          # the first maximum
    argmax = ClassicalStrategy(game, tables=tuple(tuple(t[best].tolist()) for t in tables))
    return float(counts[best]) / len(input_space(game)), argmax


def g2_deterministic_frontier() -> tuple[tuple[float, float, ClassicalStrategy], ...]:
    """(even_win, odd_guess) of every deterministic G2 strategy."""
    _, wins = _deterministic_wins(GameId.GAME_G2)
    even = _g2_even()
    scores = zip(wins[:, even].sum(axis=1) / 4, wins[:, ~even].sum(axis=1) / 4)
    return tuple((float(e), float(o), s) for (e, o), s in zip(scores, enumerate_deterministic(GameId.GAME_G2)))


# ---------------------------------------------------------------------------
# equivalence checks
# ---------------------------------------------------------------------------

class EquivalencePair(Enum):
    G_VS_TAVAKOLI = "g-vs-tavakoli"
    G_VS_CHSH1 = "g-vs-chsh1"
    G1_VS_G2 = "g1-vs-g2"


@dataclass(frozen=True)
class EquivalenceAssertion:
    name: str
    passed: bool
    observed: float
    expected: float


@dataclass(frozen=True)
class EquivalenceReport:
    pair: EquivalencePair
    assertions: tuple[EquivalenceAssertion, ...]

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


_STATE_TOL = 1e-9
_SCORE_TOL = 1e-12


def _state_assert(name: str, got: PureState, want: PureState) -> EquivalenceAssertion:
    ov = qcore.overlap(got, want)
    return EquivalenceAssertion(name, ov >= 1 - _STATE_TOL, ov, 1.0)


def _score_assert(name: str, got: float, want: float) -> EquivalenceAssertion:
    return EquivalenceAssertion(name, abs(got - want) <= _SCORE_TOL, got, want)


def _check_g_vs_tavakoli() -> tuple[EquivalenceAssertion, ...]:
    g = paper_strategy(GameId.GAME_G)
    tav = paper_strategy(GameId.TAVAKOLI)
    tav_probs = outcome_tensor(tav)
    assertions = []
    conditional_cells = []
    for x0, x1 in itertools.product((0, 1), repeat=2):
        alice_spec = g.party_rules[0][(x0, x1)]
        # conditioning on a = x0 selects Alice's outcome index x0
        _, bob_state = qcore.collapse(g.shared_state, alice_spec.basis, 0, x0)
        assertions.append(
            _state_assert(f"bob_state_x{x0}{x1}", bob_state, tav.preparation[(x0, x1)])
        )
        for y in (0, 1):
            spec = g.party_rules[1][y]
            probs = qcore.outcome_distribution(bob_state, spec.basis, 0)
            target_bit = (x0, x1)[y]
            p_match = probs[spec.outputs.index(target_bit)]
            p_tav = float(tav_probs[x0, x1, y, target_bit])
            assertions.append(_score_assert(f"cell_x{x0}{x1}_y{y}", p_match, p_tav))
            conditional_cells.append(p_match)
    mean_conditional = sum(conditional_cells) / len(conditional_cells)
    a_stat = exact_score(GameId.TAVAKOLI, tav).value
    assertions.append(_score_assert("conditional_score_equals_A", mean_conditional, a_stat))
    return tuple(assertions)


def _check_g_vs_chsh1() -> tuple[EquivalenceAssertion, ...]:
    g = paper_strategy(GameId.GAME_G)
    chsh1 = paper_strategy(GameId.CHSH1)
    win_g = _win_rates(GameId.GAME_G, outcome_tensor(g))
    win_chsh1 = _win_rates(GameId.CHSH1, outcome_tensor(chsh1))
    assertions = []
    for x, y in itertools.product((0, 1), repeat=2):
        p_chsh1 = float(win_chsh1[x, y])
        # x0 uniform, x1 = x0 ^ x
        p_g = sum(0.5 * float(win_g[x0, x0 ^ x, y]) for x0 in (0, 1))
        assertions.append(_score_assert(f"setting_x{x}_y{y}", p_g, p_chsh1))
    total_g = exact_score(GameId.GAME_G, g).value
    total_chsh1 = exact_score(GameId.CHSH1, chsh1).value
    assertions.append(_score_assert("total_score", total_g, total_chsh1))
    return tuple(assertions)


def _check_g1_vs_g2() -> tuple[EquivalenceAssertion, ...]:
    ghz = paper_strategy(GameId.PSEUDO_TELEPATHY3)
    g2 = paper_strategy(GameId.GAME_G2)
    assertions = []
    for x0, x1 in itertools.product((0, 1), repeat=2):
        # run players 0 and 1, conditioning on y0 = 0, y1 = x0 & (x0 ^ x1)
        y1_target = x0 & (x0 ^ x1)
        state = qcore.GHZ3
        spec0 = ghz.party_rules[0][x0]
        for gate in spec0.gates:
            state = qcore.apply_gate(state, gate, 0)
        p0, state = qcore.collapse(state, spec0.basis, 0, 0)
        spec1 = ghz.party_rules[1][x1]
        for gate in spec1.gates:
            state = qcore.apply_gate(state, gate, 0)
        p1, state = qcore.collapse(state, spec1.basis, 0, y1_target)
        assertions.append(
            EquivalenceAssertion(f"branch_prob_x{x0}{x1}", abs(p0 * p1 - 0.25) <= _SCORE_TOL, p0 * p1, 0.25)
        )
        assertions.append(
            _state_assert(f"a2_state_x{x0}{x1}", state, g2.preparation[(x0, x1)])
        )
    even_g1 = exact_score(GameId.PSEUDO_TELEPATHY3, ghz).value
    g2_scores = exact_score(GameId.GAME_G2, g2)
    assertions.append(_score_assert("even_score", even_g1, g2_scores.even_win.value))
    odd_g1 = pt3_odd_extension_score(ghz)
    assertions.append(_score_assert("odd_score", odd_g1, g2_scores.odd_guess.value))
    return tuple(assertions)


def equivalence_check(pair: EquivalencePair) -> EquivalenceReport:
    """Empirical probability-equivalence check for one of the game reductions."""
    if pair is EquivalencePair.G_VS_TAVAKOLI:
        return EquivalenceReport(pair, _check_g_vs_tavakoli())
    if pair is EquivalencePair.G_VS_CHSH1:
        return EquivalenceReport(pair, _check_g_vs_chsh1())
    if pair is EquivalencePair.G1_VS_G2:
        return EquivalenceReport(pair, _check_g1_vs_g2())
    raise ArityMismatch(f"unknown pair {pair}")
