"""The five nonlocal / self-testing games and their strategies.

Covers game definitions (winning predicates and valid input sets), the
optimal quantum strategies, deterministic classical strategy spaces with
exhaustive search, exact evaluation, round sampling, and the empirical
game-equivalence checks.

Every strategy compiles to one outcome tensor P[inputs..., outputs...] (see
``outcome_tensor``); scoring, sampling and the classical search all read it,
and ``RoundSampler.tally`` counts sampled rounds on the same axes.  Sampled
rounds come from ``stream.draw_codes``, the draw loop and kernel that the
protocol runs share.

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

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import qcore, stream
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
        stream.check_real("value", self.value)
        stream.check_kind("kind", self.kind, ScoreKind)
        if not -1e-12 <= self.value <= 1 + 1e-12:
            raise ValueError(f"score {self.value} outside [0, 1]")


class G2Score(NamedTuple):
    """The G2 score triple: even-weight win, odd-weight guess rate, their mean."""

    even_win: GameScore
    odd_guess: GameScore
    augmented: GameScore


class RoundIO(NamedTuple):
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
        stream.check_kind("inputs", inputs, np.ndarray)
        stream.check_kind("outputs", outputs, np.ndarray)
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


def _shape(game: GameId) -> _Shape:
    """The game's shape; anything but a ``GameId`` raises ArityMismatch."""
    if not isinstance(game, GameId):
        raise ArityMismatch(f"unknown game {game}")
    return _SHAPES[game]


def input_space(game: GameId) -> tuple[tuple[int, ...], ...]:
    """All valid input tuples of a game, in lexicographic order."""
    space = itertools.product(_BITS, repeat=_shape(game).inputs)
    return tuple(x for x in space if game is not GameId.PSEUDO_TELEPATHY3 or _EVEN_WEIGHT[x])


def _check_io(game: GameId, io: RoundIO) -> None:
    stream.check_kind("io", io, RoundIO, ArityMismatch)
    if game is GameId.PSEUDO_TELEPATHY3:
        # the parity predicate is n-agnostic; only the n = 3 strategies exist
        if len(io.inputs) < 3 or len(io.outputs) != len(io.inputs):
            raise ArityMismatch(
                f"{game.value} expects one output per player (>= 3), got "
                f"{len(io.inputs)} inputs and {len(io.outputs)} outputs"
            )
    else:
        shape = _shape(game)
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
        stream.check_kind("basis", self.basis, QubitBasis, ArityMismatch)
        if not (isinstance(self.gates, tuple) and all(isinstance(g, Gate1Q) for g in self.gates)):
            raise ArityMismatch(f"gates must be a tuple of Gate1Q, got {self.gates!r}")
        if not (isinstance(self.outputs, tuple) and all(map(_is_bit, self.outputs)) and self.outputs in ((0, 1), (1, 0))):
            raise ArityMismatch(f"outputs must be the tuple (0, 1) or (1, 0), got {self.outputs!r}")


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

    def __post_init__(self) -> None:
        """Exactly the fields of the game's kind, each keyed by the inputs it answers; else ArityMismatch."""
        sizes = _shape(self.game).tables
        if self.game in _PREPARE_AND_MEASURE:
            fits = self.shared_state is None and not self.party_rules
            fits = fits and _maps(self.preparation, _PAIRS, PureState) and _maps(self.measurement, _BITS, MeasureSpec)
            fits = fits and all(state.num_qubits == 1 for state in self.preparation.values())
        else:
            fits = self.preparation is None and self.measurement is None
            fits = fits and isinstance(self.shared_state, PureState) and self.shared_state.num_qubits == len(sizes)
            fits = fits and isinstance(self.party_rules, tuple) and len(self.party_rules) == len(sizes)
            fits = fits and all(_maps(r, _PAIRS if n == 4 else _BITS, MeasureSpec) for r, n in zip(self.party_rules, sizes))
        if not fits:
            raise ArityMismatch(f"{self.game.value} strategy has the wrong shape for its game")


def _maps(mapping, keys: tuple, kind: type) -> bool:
    """Whether ``mapping`` maps exactly ``keys`` to values of ``kind``."""
    return isinstance(mapping, Mapping) and set(mapping) == set(keys) and all(isinstance(v, kind) for v in mapping.values())


def _is_bit(value) -> bool:
    """Whether ``value`` is the integer 0 or 1; a bool is not, as numpy reads bools as a mask."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value in _BITS


def paper_strategy(game: GameId) -> QuantumStrategy:
    """The optimal quantum strategy for each game."""
    psi_meas = {0: MeasureSpec(qcore.PSI), 1: MeasureSpec(qcore.PHI)}
    ghz_meas = {    # a GHZ player's X/Y rule, which G2's measuring device plays too
        0: MeasureSpec(qcore.COMPUTATIONAL, gates=(qcore.H,)),
        1: MeasureSpec(qcore.COMPUTATIONAL, gates=(qcore.S, qcore.H)),
    }
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
        return QuantumStrategy(
            game,
            shared_state=qcore.GHZ3,
            party_rules=tuple(dict(ghz_meas) for _ in range(3)),
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
            measurement=dict(ghz_meas),
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
        sizes = _shape(self.game).tables
        if not (isinstance(self.tables, tuple) and all(isinstance(t, tuple) for t in self.tables)):
            raise ArityMismatch(f"tables must be a tuple of tuples of bits, got {self.tables!r}")
        if not (isinstance(self.mixture, tuple) and all(isinstance(m, tuple) and len(m) == 2 for m in self.mixture)):
            raise ArityMismatch(f"mixture must be a tuple of (weight, strategy) pairs, got {self.mixture!r}")
        if bool(self.tables) == bool(self.mixture):
            raise ValueError("provide exactly one of tables or mixture")
        if self.tables:
            if tuple(len(t) for t in self.tables) != sizes:
                raise ArityMismatch(
                    f"{self.game.value} strategy tables must have sizes {sizes}"
                )
            if not all(_is_bit(bit) for t in self.tables for bit in t):
                raise ArityMismatch("table entries must be bits")
        else:
            weights = {(k,): w for k, (w, _) in enumerate(self.mixture)}
            read_weights(weights, np.ones(len(self.mixture), dtype=bool), "mixture weights")
            if any(not isinstance(s, ClassicalStrategy) or s.game is not self.game for _, s in self.mixture):
                raise ArityMismatch("mixture components must play the same game")

    def renormalized(self, factor: float) -> "ClassicalStrategy":
        """Scale all mixture weights by a positive finite factor, then renormalize."""
        if not self.mixture:
            return self
        stream.check_real("factor", factor)
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


def _strategy_game(strategy) -> GameId:
    """The game a strategy plays; a value that is no strategy raises ArityMismatch."""
    stream.check_kind("strategy", strategy, (QuantumStrategy, ClassicalStrategy), ArityMismatch)
    return strategy.game


_BITS = (0, 1)
_PAIRS = tuple(itertools.product(_BITS, repeat=2))
_PREPARE_AND_MEASURE = (GameId.TAVAKOLI, GameId.GAME_G2)
# [x0, x1, x2]: whether the weight is even.  Built without a ufunc: one run at import time,
# while uncached sources still compile, raised a fresh process's peak RSS by about 0.2 MB.
_EVEN_WEIGHT = read_only_view(np.reshape([sum(x) % 2 == 0 for x in itertools.product(_BITS, repeat=3)], (2, 2, 2)))

def _rows(spec: MeasureSpec) -> np.ndarray:
    """Row b is the bra whose overlap with the qubit is the amplitude of reported bit b.

    Outcome i's bra is <v_i| G_k ... G_1, with G_1 applied first, where
    <v_i| is row i of ``basis.bras``; reported bit outputs[i] takes row i
    (a swap of two rows is its own inverse).
    """
    rows = spec.basis.bras
    for gate in reversed(spec.gates):
        rows = rows @ gate.matrix
    return rows[list(spec.outputs)]


def _quantum_operands(strategy: QuantumStrategy) -> list[np.ndarray]:
    if strategy.preparation is not None:
        rows = np.stack([_rows(strategy.measurement[s]) for s in _BITS])
        return [rows, np.stack([strategy.preparation[x].amplitudes for x in _PAIRS])]
    rows = [np.stack([_rows(rule[k]) for k in sorted(rule)]) for rule in strategy.party_rules]
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

    Weights below ``qcore.PROB_SNAP`` are the residue of exact cancellations
    and are cleared first, so deterministic outcomes stay exactly deterministic.
    """
    shape = _shape(game)
    amplitudes = np.einsum(shape.contraction, *operands)
    amplitudes = amplitudes.reshape(operands[0].shape[:-3] + (2,) * (shape.inputs + shape.outputs))
    probs = amplitudes.real ** 2 + amplitudes.imag ** 2
    probs[probs < qcore.PROB_SNAP] = 0.0
    return probs / probs.sum(axis=tuple(range(-shape.outputs, 0)), keepdims=True)


def outcome_tensor(strategy: Strategy) -> np.ndarray:
    """P[inputs..., outputs...]: the strategy's output distribution on every input.

    One length-2 axis per input bit, then one per output bit.  pt3's tensor
    also covers the odd-weight inputs that the game itself never deals.  A
    mixture's tensor is the weighted sum of its components' tensors.
    """
    game = _strategy_game(strategy)
    if isinstance(strategy, QuantumStrategy):
        return _contract(game, _quantum_operands(strategy))
    if strategy.mixture:
        return sum(weight * outcome_tensor(component) for weight, component in strategy.mixture)
    return _contract(game, _table_operands(game, [np.array(t) for t in strategy.tables]))


def win_mask(game: GameId) -> np.ndarray:
    """The winning predicate as a read-only bool array [inputs..., outputs...].

    Inputs outside the game's input space (pt3's odd weights) never win.
    """
    return _win_mask(_shape(game), game)     # checked first: the cache hashes its arguments


@functools.lru_cache(maxsize=None)
def _win_mask(shape: _Shape, game: GameId) -> np.ndarray:
    mask = np.zeros((2,) * (shape.inputs + shape.outputs), dtype=bool)
    for x in input_space(game):
        for outputs in itertools.product(_BITS, repeat=shape.outputs):
            mask[x + outputs] = winning_predicate(game, RoundIO(x, outputs))
    mask.setflags(write=False)
    return mask


def _win_rates(game: GameId, probs: np.ndarray) -> np.ndarray:
    """Pr[win | inputs] from an outcome tensor (or a batch of them)."""
    return (probs * win_mask(game)).sum(axis=tuple(range(-_shape(game).outputs, 0)))


def mass_score(game: GameId, mass: np.ndarray) -> tuple[float, ...]:
    """The won share (win,) of a mass tensor [inputs..., outputs...], such as weighted outcomes or a tally.

    GAME_G2's is (even_win, odd_guess), by input parity class; a class without mass raises BadDistribution.
    """
    mask = win_mask(game)
    if not (isinstance(mass, np.ndarray) and mass.shape == mask.shape and np.issubdtype(mass.dtype, np.number)):
        got = f"{mass.dtype} of shape {mass.shape}" if isinstance(mass, np.ndarray) else type(mass).__name__
        raise BadDistribution(f"mass must be a numeric array of shape {mask.shape}, got {got}")
    won = mass * mask
    if game is not GameId.GAME_G2:
        return (float(won.sum() / mass.sum()),)
    if not (mass[_EVEN_WEIGHT].sum() and mass[~_EVEN_WEIGHT].sum()):
        raise BadDistribution("G2 needs mass on both parity classes")
    return tuple(float(won[side].sum() / mass[side].sum()) for side in (_EVEN_WEIGHT, ~_EVEN_WEIGHT))


# ---------------------------------------------------------------------------
# exact evaluation
# ---------------------------------------------------------------------------

def branch_distribution(strategy: Strategy, inputs: tuple[int, ...]) -> dict[tuple[int, ...], float]:
    """Exact output distribution of a strategy on fixed inputs, positive entries only."""
    n_inputs = _shape(_strategy_game(strategy)).inputs
    inputs = tuple(inputs)
    if len(inputs) != n_inputs or not all(map(_is_bit, inputs)):
        raise ArityMismatch(f"{inputs} are not {n_inputs} input bits")
    row = outcome_tensor(strategy)[inputs]
    return {tuple(o): float(row[tuple(o)]) for o in np.argwhere(row > 0).tolist()}


def read_weights(weights, valid: np.ndarray, what: str) -> np.ndarray:
    """A caller's weight table as a float array on the axes of the bool grid ``valid``, zero off its keys.

    Each key must be a tuple of integers that indexes a True entry of ``valid``, each weight a finite
    nonnegative real, and the weights must sum to 1 within 1e-12; else BadDistribution names ``what`` and the key.
    """
    if not isinstance(weights, Mapping):
        raise BadDistribution(f"{what} must be a mapping from input tuples to weights, got {weights!r}")
    table = np.zeros(valid.shape)
    for key, value in weights.items():
        integers = isinstance(key, tuple) and all(isinstance(v, numbers.Integral) for v in key)
        index = tuple(map(int, key)) if integers else ()     # a bool index would be read as a mask
        if not (len(index) == valid.ndim and all(0 <= v < n for v, n in zip(index, valid.shape)) and valid[index]):
            raise BadDistribution(f"{what}: input {key!r} is not a valid input")
        if not (isinstance(value, numbers.Real) and 0 <= value < math.inf):
            raise BadDistribution(f"{what} must be finite and nonnegative, got {value!r} for input {key!r}")
        table[index] = float(value)
    if abs(table.sum() - 1.0) > 1e-12:
        raise BadDistribution(f"{what} sum to {table.sum()}, not 1")
    return table


def _input_weights(game: GameId, input_distribution) -> np.ndarray:
    """The input distribution as an array over the input bits; uniform over ``input_space`` by default."""
    valid = np.zeros((2,) * _shape(game).inputs, dtype=bool)
    valid[tuple(zip(*input_space(game)))] = True
    if input_distribution is None:
        return valid / valid.sum()
    return read_weights(input_distribution, valid, f"{game.value} input distribution")


def _check_strategy(game: GameId, strategy) -> None:
    """Reject an unknown game, a value that is no strategy, or a strategy of another game."""
    _shape(game)
    if _strategy_game(strategy) is not game:
        raise ArityMismatch(f"strategy plays {strategy.game.value}, not {game.value}")


def exact_score(game: GameId, strategy: Strategy, input_distribution=None) -> GameScore | G2Score:
    """Exact expected score: ``mass_score`` of the input-weighted outcome tensor.

    For GAME_G2 returns the (even_win, odd_guess, augmented) triple, the
    even/odd scores being conditional on the input parity class.
    """
    _check_strategy(game, strategy)
    weights = _input_weights(game, input_distribution)
    mass = weights.reshape(weights.shape + (1,) * _shape(game).outputs) * outcome_tensor(strategy)
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
    if _strategy_game(strategy) is not GameId.PSEUDO_TELEPATHY3:
        raise ArityMismatch("odd-weight extension is defined for the GHZ game")
    probs = outcome_tensor(strategy)
    odd_inputs = [x for x in itertools.product(_BITS, repeat=3) if sum(x) % 2 == 1]
    return sum(float(probs[x][..., x[1]].sum()) for x in odd_inputs) / len(odd_inputs)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

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
        _check_strategy(game, strategy)
        self._space = input_space(game)
        self.game = game
        self.strategy = strategy
        self._ranges = ((0, len(self._space), 1),)       # one uniform input index per round
        inputs = np.array(self._space, dtype=np.int8)
        rows = outcome_tensor(strategy)[tuple(inputs.T)].reshape(len(inputs), -1)     # [input, output]
        columns = max(2, np.count_nonzero(rows, axis=1).max())
        order = np.argsort(rows == 0, axis=1, kind="stable")[:, :columns]      # positive outputs first, in order
        kept = np.take_along_axis(rows, order, axis=1)
        self._threshold = np.where(kept[:, 1:] > 0, np.cumsum(kept, axis=1)[:, :-1], np.inf).T.copy()
        outputs = np.array(list(itertools.product(_BITS, repeat=_shape(game).outputs)), dtype=np.int8)
        self._code_outputs = outputs[order].reshape(-1, outputs.shape[1])
        self._code_inputs = np.repeat(inputs, columns, axis=0)

    def sample(self, inputs: tuple[int, ...], rng: np.random.Generator) -> RoundIO:
        stream.check_rng(rng)
        inputs = tuple(inputs)
        if inputs not in self._space:
            raise BadInput(f"{inputs} is not a valid {self.game.value} input")
        i = self._space.index(inputs)
        branch = int(np.count_nonzero(rng.random() >= self._threshold[:, i]))
        return RoundIO(inputs, tuple(self._code_outputs[i * (len(self._threshold) + 1) + branch].tolist()))

    def tally(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n rounds drawn as ``sample_many`` draws them, counted as int64 on the axes of ``win_mask``."""
        stream.check_count("n", n)
        counts = np.zeros(len(self._code_inputs), dtype=np.int64)
        for code in stream.draw_codes(n, rng, self._ranges, self._threshold):
            counts += np.bincount(code, minlength=counts.size)
        tally = np.zeros((2,) * (self._code_inputs.shape[1] + self._code_outputs.shape[1]), dtype=np.int64)
        np.add.at(tally, tuple(np.hstack([self._code_inputs, self._code_outputs]).T), counts)
        return tally

    def sample_many(self, n: int, rng: np.random.Generator) -> RoundColumns:
        """n rounds with uniform inputs, in round order, as int8 columns (6 B/round for pt3)."""
        stream.check_count("n", n)
        inputs = np.empty((n, _shape(self.game).inputs), dtype=np.int8)
        outputs = np.empty((n, _shape(self.game).outputs), dtype=np.int8)
        codes = stream.draw_codes(n, rng, self._ranges, self._threshold)
        for piece, code in zip(stream.chunk_slices(n, stream.DRAW_VALUES), codes):
            stream.gather(self._code_inputs, code, inputs[piece])
            stream.gather(self._code_outputs, code, outputs[piece])
        return RoundColumns(inputs, outputs)


def sample_round(game: GameId, strategy: Strategy, inputs: tuple[int, ...], rng: np.random.Generator) -> RoundIO:
    """One round of the game; outputs drawn from the strategy's outcome tensor."""
    return RoundSampler(game, strategy).sample(inputs, rng)


# ---------------------------------------------------------------------------
# classical brute force
# ---------------------------------------------------------------------------

def enumerate_deterministic(game: GameId) -> Iterator[ClassicalStrategy]:
    """All deterministic strategies of a game, in lexicographic table order."""
    sizes = _shape(game).tables
    pools = [itertools.product((0, 1), repeat=size) for size in sizes]
    for tables in itertools.product(*pools):
        yield ClassicalStrategy(game, tables=tuple(tables))


def _deterministic_wins(game: GameId) -> tuple[list[np.ndarray], np.ndarray]:
    """Every deterministic strategy's tables and its wins on every input.

    Strategy k's tables are the bits of k, most significant first, which is
    ``enumerate_deterministic`` order.  Returns the tables as (k, size) arrays
    and the wins as a 0/1 array [k, inputs...].
    """
    sizes = _shape(game).tables
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
    scores = zip(wins[:, _EVEN_WEIGHT].sum(axis=1) / 4, wins[:, ~_EVEN_WEIGHT].sum(axis=1) / 4)
    return tuple((float(e), float(o), s) for (e, o), s in zip(scores, enumerate_deterministic(GameId.GAME_G2)))


# ---------------------------------------------------------------------------
# equivalence checks
# ---------------------------------------------------------------------------

class EquivalencePair(Enum):
    G_VS_TAVAKOLI = "g-vs-tavakoli"
    G_VS_CHSH1 = "g-vs-chsh1"
    G1_VS_G2 = "g1-vs-g2"


class EquivalenceAssertion(NamedTuple):
    name: str
    passed: bool
    observed: float
    expected: float


class EquivalenceReport(NamedTuple):
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


def _condition(state: PureState, spec: MeasureSpec, bit: int) -> tuple[float, PureState]:
    """(probability, remaining state) of the party on qubit 0 reporting ``bit``: its gates, then that collapse."""
    for gate in spec.gates:
        state = qcore.apply_gate(state, gate, 0)
    return qcore.collapse(state, spec.basis, 0, spec.outputs.index(bit))


def _check_g_vs_tavakoli() -> tuple[EquivalenceAssertion, ...]:
    g = paper_strategy(GameId.GAME_G)
    tav = paper_strategy(GameId.TAVAKOLI)
    tav_probs = outcome_tensor(tav)
    assertions = []
    conditional_cells = []
    for x0, x1 in itertools.product((0, 1), repeat=2):
        _, bob_state = _condition(g.shared_state, g.party_rules[0][(x0, x1)], x0)     # Alice reports a = x0
        assertions.append(_state_assert(f"bob_state_x{x0}{x1}", bob_state, tav.preparation[(x0, x1)]))
        for y in (0, 1):
            target_bit = (x0, x1)[y]
            p_match = _condition(bob_state, g.party_rules[1][y], target_bit)[0]
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
        p0, state = _condition(qcore.GHZ3, ghz.party_rules[0][x0], 0)
        p1, state = _condition(state, ghz.party_rules[1][x1], y1_target)
        assertions.append(_score_assert(f"branch_prob_x{x0}{x1}", p0 * p1, 0.25))
        assertions.append(_state_assert(f"a2_state_x{x0}{x1}", state, g2.preparation[(x0, x1)]))
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
