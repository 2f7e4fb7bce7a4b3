"""Monte Carlo by columns and by tallies: identity with the row-object versions, exact references, memory bounds.

The reference implementations below are the per-round versions that the
columnar ``RoundSampler.sample_many`` and the code tallies of ``play-game``
and ``guessing_game_bound_check`` replaced; reports must keep their bytes.
"""

import itertools
import math

import numpy as np
import pytest

from diqrng import cli, games, protocols, stream
from diqrng.errors import DiqrngError
from diqrng.games import GameId, RoundIO, RoundSampler, input_space, outcome_tensor, paper_strategy

SEEDS = (3, 1001, 2**40 + 7)


# ---------------------------------------------------------------------------
# references: one RoundIO per round, winning_predicate per round, one-shot int64 draws
# ---------------------------------------------------------------------------

def reference_sample_many(game, strategy, n, rng):
    probs = outcome_tensor(strategy)
    n_out = probs.ndim - len(input_space(game)[0])
    all_outputs = list(itertools.product((0, 1), repeat=n_out))
    outputs, cdf = {}, {}
    for inputs in input_space(game):
        row = probs[inputs].ravel()
        support = np.flatnonzero(row)
        outputs[inputs] = [all_outputs[k] for k in support]
        cdf[inputs] = np.cumsum(row[support])

    space = list(outputs)
    input_idx = rng.integers(0, len(space), size=n)
    u = rng.random(n)
    rounds = [None] * n
    for k, inputs in enumerate(space):
        mask = np.flatnonzero(input_idx == k)
        if mask.size == 0:
            continue
        branch = np.searchsorted(cdf[inputs], u[mask], side="right")
        branch = np.minimum(branch, len(outputs[inputs]) - 1)
        for pos, br in zip(mask, branch):
            rounds[pos] = RoundIO(inputs, outputs[inputs][br])
    return rounds


def reference_play_game(opts, seed):
    game = cli._GAME_NAMES[opts["game"]]
    n_rounds = int(opts["rounds"])
    if n_rounds < 1:
        raise DiqrngError(f"play-game needs at least one round, got {n_rounds}")
    strategy = paper_strategy(game)
    exact = games.exact_score(game, strategy)
    rounds = reference_sample_many(game, strategy, n_rounds, np.random.default_rng(seed))
    if game is GameId.GAME_G2:
        even = [r for r in rounds if sum(r.inputs) % 2 == 0]
        odd = [r for r in rounds if sum(r.inputs) % 2 == 1]
        if not even or not odd:
            raise DiqrngError(
                f"g2 scores need even- and odd-weight rounds; {n_rounds} round(s) drew only one kind"
            )
        sampled = {
            "even_win": sum(games.winning_predicate(game, r) for r in even) / len(even),
            "odd_guess": sum(r.outputs[0] == r.inputs[1] for r in odd) / len(odd),
            "rounds": len(rounds),
        }
    else:
        wins = sum(games.winning_predicate(game, r) for r in rounds)
        sampled = {"win_frequency": wins / len(rounds), "rounds": len(rounds)}
    return {"game": game.value, "exact": cli._score_dict(exact), "sampled": sampled}


def reference_guessing_bounds(trials, rng):
    if trials < 1:
        raise ValueError("trials must be positive")
    table = protocols.honest_devices("P").response_table("P")[0]

    def draw_bits(x, setting):
        p1 = table[x, setting]
        return (rng.random(x.size) >= 1.0 - p1).astype(np.int64)

    x = rng.integers(0, 4, size=trials)
    setting = rng.integers(0, 3, size=trials)
    b = draw_bits(x, setting)
    a = x >> 1
    xp = (x >> 1) ^ (x & 1)
    chsh_win = ((xp & setting) == (a ^ b)) & (setting < 2)
    det_win = (setting == 2) & (xp == 0) & (b == a)
    free_win = (setting == 2) & (xp == 1)
    aug_hits = int(np.count_nonzero(chsh_win | det_win | free_win))
    checks = [protocols._bound_check("augmented_chsh_score", aug_hits, trials, protocols.AUGMENTED_CHSH_SCORE)]

    x = rng.integers(0, 4, size=trials)
    b = draw_bits(x, np.full(trials, 2))
    checks.append(protocols._bound_check("output_guess_rate", int(np.count_nonzero(b == (x >> 1))), trials, 0.75))

    x = rng.integers(1, 3, size=trials)
    b = draw_bits(x, np.full(trials, 2))
    checks.append(protocols._bound_check("rand_bit_guess_rate", int(np.count_nonzero(b == (x >> 1))), trials, 0.5))
    return protocols.GuessingBoundsReport(tuple(checks))


def cli_bytes(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# sample_many
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("game", list(GameId))
@pytest.mark.parametrize("n", [0, 1, 5, 4099])
def test_sample_many_matches_row_reference(game, n):
    strategy = paper_strategy(game)
    sampler = RoundSampler(game, strategy)
    for seed in SEEDS:
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rounds = sampler.sample_many(n, rng)
        assert list(rounds) == reference_sample_many(game, strategy, n, ref_rng)
        assert rng.random() == ref_rng.random()         # the same draws were taken
        assert rounds.inputs.dtype == rounds.outputs.dtype == np.int8
        assert rounds.inputs.shape == (n, len(input_space(game)[0]))


def test_sample_many_of_a_mixture_matches_row_reference():
    zeros = [s for s in games.enumerate_deterministic(GameId.CHSH) if s.tables[0][0] == s.tables[1][0] == 0][:3]
    mix = games.ClassicalStrategy(GameId.CHSH, mixture=tuple(zip((0.7, 0.2, 0.1), zeros)))
    rounds = RoundSampler(GameId.CHSH, mix).sample_many(5000, np.random.default_rng(8))
    assert list(rounds) == reference_sample_many(GameId.CHSH, mix, 5000, np.random.default_rng(8))


MULTI_CHUNK = (stream.CHUNK_ROUNDS, stream.CHUNK_ROUNDS + 1, 3 * stream.CHUNK_ROUNDS + 17)
# around one piece of the sampling kernel's draws
DRAW_EDGES = (stream.DRAW_VALUES - 1, stream.DRAW_VALUES, stream.DRAW_VALUES + 1)


@pytest.mark.parametrize("game", list(GameId))
@pytest.mark.parametrize("n", DRAW_EDGES + MULTI_CHUNK)
def test_multi_chunk_sample_many_matches_row_reference(game, n):
    strategy = paper_strategy(game)
    rng, ref_rng = np.random.default_rng(SEEDS[1]), np.random.default_rng(SEEDS[1])
    rounds = RoundSampler(game, strategy).sample_many(n, rng)
    ref = reference_sample_many(game, strategy, n, ref_rng)
    assert np.array_equal(rounds.inputs, np.array([r.inputs for r in ref]))
    assert np.array_equal(rounds.outputs, np.array([r.outputs for r in ref]))
    assert rng.random() == ref_rng.random()


class Uniforms(np.random.Generator):
    """A stub generator that hands out the given uniforms in order, one per round."""

    def __init__(self, values):
        super().__init__(np.random.PCG64())
        self._values = list(values)

    def random(self, out=None):
        if out is None:
            return self._values.pop(0)
        out[:] = [self._values.pop(0) for _ in range(out.size)]
        return out


def chsh_mixture_below_one():
    """Three CHSH components answering (0, 0), (0, 1) and (1, 0) on input (1, 1) with weights 0.7, 0.2, 0.1.

    That row's float CDF is 0.7, 0.9, 1 - 2**-53: it ends below 1.
    """
    zeros = [s for s in games.enumerate_deterministic(GameId.CHSH) if s.tables[0][0] == s.tables[1][0] == 0][:3]
    return games.ClassicalStrategy(GameId.CHSH, mixture=tuple(zip((0.7, 0.2, 0.1), zeros)))


@pytest.mark.parametrize("strategy", [paper_strategy(g) for g in GameId] + [chsh_mixture_below_one()])
def test_branch_rule_is_capped_searchsorted_at_its_edges(strategy):
    """At 0.0, exactly at each CDF entry and just past a CDF that ends below 1, both readers of the threshold table agree with the CDF rule."""
    game = strategy.game
    sampler = RoundSampler(game, strategy)
    probs = outcome_tensor(strategy)
    all_outputs = list(itertools.product((0, 1), repeat=probs.ndim - len(input_space(game)[0])))
    steps = len(sampler._threshold)
    ends_below_one = False
    for i, inputs in enumerate(input_space(game)):
        row = probs[inputs].ravel()
        support = np.flatnonzero(row)
        cdf = np.cumsum(row[support])
        u = [0.0, *cdf]
        if cdf[-1] < 1.0:
            ends_below_one = True
            u.append(np.nextafter(cdf[-1], 1.0))
        want = np.minimum(np.searchsorted(cdf, u, side="right"), support.size - 1)

        stub = Uniforms(u)
        assert [sampler.sample(inputs, stub).outputs for _ in u] == [all_outputs[k] for k in support[want]]

        scratch = stream.Scratch(len(u))
        cell = scratch.code[: len(u)]
        cell.fill(i)
        code, branch = scratch.measure(cell, sampler._threshold, cell, Uniforms(u))
        assert np.array_equal(branch, want)
        assert np.array_equal(code, (steps + 1) * i + want)
    if isinstance(strategy, games.ClassicalStrategy):
        assert steps > 1 and ends_below_one


def binned(rounds, shape):
    """The rounds counted on the axes [inputs..., outputs...] of an outcome tensor of ``shape``."""
    counts = np.zeros(shape, dtype=np.int64)
    np.add.at(counts, tuple(np.hstack([rounds.inputs, rounds.outputs]).T), 1)
    return counts


@pytest.mark.parametrize("strategy", [paper_strategy(g) for g in GameId] + [chsh_mixture_below_one()])
@pytest.mark.parametrize("n", [0, 1, *DRAW_EDGES, 3 * stream.DRAW_VALUES + 17])
def test_tally_counts_the_sampled_rounds_by_code(strategy, n):
    """The tally counts ``sample_many``'s rounds on the axes of ``win_mask`` and leaves the same end state."""
    sampler = RoundSampler(strategy.game, strategy)
    rng, rounds_rng = np.random.default_rng(SEEDS[2]), np.random.default_rng(SEEDS[2])
    counts = sampler.tally(n, rng)
    shape = games.win_mask(strategy.game).shape
    assert counts.dtype == np.int64 and counts.shape == shape == outcome_tensor(strategy).shape
    assert counts.sum() == n
    assert np.array_equal(counts, binned(sampler.sample_many(n, rounds_rng), shape))
    assert rng.bit_generator.state == rounds_rng.bit_generator.state


@pytest.mark.parametrize("n", [-5, -1, stream.MAX_ROUNDS + 1])
def test_sampler_rejects_round_counts_out_of_range(n):
    sampler = RoundSampler(GameId.CHSH, paper_strategy(GameId.CHSH))
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    for draw in (sampler.tally, sampler.sample_many):
        with pytest.raises(ValueError, match=rf"^n must lie in \[0, {stream.MAX_ROUNDS}\], got {n}$"):
            draw(n, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n", [True, False, 2.0, "3", None])
def test_sampler_rejects_round_counts_that_are_not_integers(n):
    sampler = RoundSampler(GameId.CHSH, paper_strategy(GameId.CHSH))
    for draw in (sampler.tally, sampler.sample_many):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            draw(n, np.random.default_rng(1))


@pytest.mark.parametrize(
    "ranges",
    [((0, 4, 3), (0, 3, 1)), ((1, 3, 3), (2, 3, 1)), ((2, 3, 1), (0, 4, 3)), ((0, 2, 5), (0, 3, 2), (0, 4, 1))],
)
@pytest.mark.parametrize("n", [1, stream.DRAW_VALUES + 1, 3 * stream.CHUNK_ROUNDS + 17])
def test_draw_cells_equal_the_one_call_order(ranges, n):
    """Each range's n draws follow the ranges before it in one stream; a one-value range takes none."""
    ref_rng = np.random.default_rng(SEEDS[0])
    want = sum(scale * ref_rng.integers(low, high, size=n) for low, high, scale in ranges)
    out = np.empty(min(n, stream.CHUNK_ROUNDS), dtype=np.int64)
    got = np.concatenate([cell.copy() for cell in stream.draw_cells(n, np.random.default_rng(SEEDS[0]), ranges, out)])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("ranges,walks", [(((0, 4, 3), (0, 3, 1)), 2), (((1, 3, 3), (2, 3, 1)), 1), (((2, 3, 1),), 0)])
def test_draw_codes_walks_each_range_once(ranges, walks, monkeypatch):
    """The cells and the uniforms share one list of streams; ``draw_cells`` alone makes no walk past its last range."""
    calls, skip_ahead = [], stream.skip_ahead

    def counted_skip_ahead(*args):
        calls.append(args[1:])
        return skip_ahead(*args)

    monkeypatch.setattr(stream, "skip_ahead", counted_skip_ahead)
    threshold = np.full((1, 12), 0.5)
    rng, ref_rng = np.random.default_rng(SEEDS[0]), np.random.default_rng(SEEDS[0])
    codes = np.concatenate([code.copy() for code in stream.draw_codes(1000, rng, ranges, threshold)])
    assert len(calls) == walks
    cells = sum(scale * ref_rng.integers(low, high, size=1000) for low, high, scale in ranges)
    assert np.array_equal(codes, 2 * cells + (ref_rng.random(1000) >= 0.5))
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    calls.clear()
    for _ in stream.draw_cells(1000, np.random.default_rng(0), ranges, np.empty(1000, dtype=np.int64)):
        pass
    assert len(calls) == max(walks - 1, 0)


def test_sampled_rounds_index_as_roundio():
    rounds = RoundSampler(GameId.GAME_G, paper_strategy(GameId.GAME_G)).sample_many(10, np.random.default_rng(4))
    listed = list(rounds)
    assert len(rounds) == 10
    assert rounds[-1] == listed[9]
    assert rounds[2:7:2] == listed[2:7:2]
    assert all(type(v) is int for r in listed for v in r.inputs + r.outputs)
    with pytest.raises(IndexError):
        rounds[10]
    with pytest.raises(ValueError):
        rounds.outputs[0, 0] = 1


# ---------------------------------------------------------------------------
# byte-identical reports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("game", sorted(cli._GAME_NAMES))
@pytest.mark.parametrize("rounds", [1, 2, 30_000])
def test_play_game_report_matches_row_reference(game, rounds, capsys, monkeypatch):
    for seed in SEEDS:
        argv = ["play-game", "--game", game, "--rounds", str(rounds), "--seed", str(seed), "--deterministic"]
        got = cli_bytes(capsys, argv)
        with monkeypatch.context() as patch:
            patch.setitem(cli._COMMANDS, "play-game", (*cli._COMMANDS["play-game"][:2], reference_play_game))
            want = cli_bytes(capsys, argv)
        assert got == want


@pytest.mark.parametrize("game", sorted(cli._GAME_NAMES))
@pytest.mark.parametrize("rounds", DRAW_EDGES + MULTI_CHUNK)
def test_multi_chunk_play_game_report_matches_row_reference(game, rounds, capsys, monkeypatch):
    argv = ["play-game", "--game", game, "--rounds", str(rounds), "--seed", str(SEEDS[0]), "--deterministic"]
    got = cli_bytes(capsys, argv)
    with monkeypatch.context() as patch:
        patch.setitem(cli._COMMANDS, "play-game", (*cli._COMMANDS["play-game"][:2], reference_play_game))
        want = cli_bytes(capsys, argv)
    assert got == want


@pytest.mark.parametrize("trials", [1, 2, 3, 65535, 65536, 65537, 200_001])
def test_guessing_bounds_report_matches_one_shot_reference(trials, capsys, monkeypatch):
    for seed in SEEDS:
        argv = ["guessing-bounds", "--trials", str(trials), "--seed", str(seed), "--deterministic"]
        got = cli_bytes(capsys, argv)
        with monkeypatch.context() as patch:
            patch.setattr(protocols, "guessing_game_bound_check", reference_guessing_bounds)
            want = cli_bytes(capsys, argv)
        assert got == want


@pytest.mark.parametrize("trials", [1, *DRAW_EDGES, 70_001, 3 * stream.CHUNK_ROUNDS + 17])
def test_guessing_bounds_take_the_same_draws(trials):
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    assert protocols.guessing_game_bound_check(trials, rng) == reference_guessing_bounds(trials, ref_rng)
    assert rng.random() == ref_rng.random()


def test_exact_references_match_closed_forms():
    expected = {c.name: c.expected for c in protocols.guessing_game_bound_check(1, np.random.default_rng(0)).checks}
    assert abs(expected["augmented_chsh_score"] - protocols.AUGMENTED_CHSH_SCORE) <= 1e-15
    assert abs(expected["augmented_chsh_score"] - ((2 / 3) * math.cos(math.pi / 8) ** 2 + 1 / 3)) <= 1e-15
    assert expected["output_guess_rate"] == 0.75
    assert expected["rand_bit_guess_rate"] == 0.5


@pytest.mark.parametrize("low,high", [(0, 2), (1, 3), (0, 3), (0, 4), (0, 8)])
def test_chunked_draws_equal_one_call(low, high):
    """The property every chunked column relies on: chunk sizes never show in a PCG64 stream."""
    sizes = (1, 7, stream.CHUNK_ROUNDS, 1001, 1, 7)
    one, chunked = np.random.default_rng(SEEDS[2]), np.random.default_rng(SEEDS[2])
    want = one.integers(low, high, size=sum(sizes))
    got = np.concatenate([chunked.integers(low, high, size=k) for k in sizes])
    assert np.array_equal(got, want)
    want = one.random(sum(sizes))
    got = np.concatenate([chunked.random(k) for k in sizes])
    assert np.array_equal(got, want)
    assert one.integers(0, 2**63) == chunked.integers(0, 2**63)


@pytest.mark.parametrize(
    "n", [1, stream.CHUNK_ROUNDS - 1, stream.CHUNK_ROUNDS, stream.CHUNK_ROUNDS + 1, 3 * stream.CHUNK_ROUNDS + 17]
)
@pytest.mark.parametrize("low,high", [(0, 4), (1, 3), (0, 3)])
def test_skip_ahead_lands_where_one_call_does(n, low, high):
    rng, ref_rng = np.random.default_rng(SEEDS[2]), np.random.default_rng(SEEDS[2])
    start = rng.bit_generator.state
    ahead = stream.skip_ahead(rng, n, low, high)
    ref_rng.integers(low, high, size=n)
    assert ahead.bit_generator.state == ref_rng.bit_generator.state
    assert rng.bit_generator.state == start
    assert np.array_equal(ahead.integers(low, high, size=5), ref_rng.integers(low, high, size=5))
    assert ahead.random() == ref_rng.random()


@pytest.mark.parametrize("n", [1, stream.DRAW_VALUES - 1, stream.DRAW_VALUES + 1, 3 * stream.DRAW_VALUES + 17])
@pytest.mark.parametrize("low,high,scale", [(0, 4, 3), (1, 3, 3), (0, 2, 1), (2, 3, 1)])
def test_add_integers_adds_one_call_draws(n, low, high, scale):
    rng, ref_rng = np.random.default_rng(SEEDS[1]), np.random.default_rng(SEEDS[1])
    out = np.full(n, 5, dtype=np.int64)
    stream.add_integers(out, rng, low, high, scale)
    assert np.array_equal(out, 5 + scale * ref_rng.integers(low, high, size=n))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if high - low == 1:
        # a one-value range draws nothing, so draw_cells adds it as a constant
        assert rng.bit_generator.state == np.random.default_rng(SEEDS[1]).bit_generator.state


def test_round_columns_leave_the_callers_arrays_writable():
    inputs, outputs = np.zeros((2, 3), dtype=np.int8), np.ones((2, 1), dtype=np.int8)
    rounds = games.RoundColumns(inputs, outputs)
    for given, held in ((inputs, rounds.inputs), (outputs, rounds.outputs)):
        assert given.flags.writeable and not held.flags.writeable
        assert np.shares_memory(given, held)


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def test_sample_many_holds_columns_not_round_objects(traced_peak):
    n = 200_000
    sampler = RoundSampler(GameId.PSEUDO_TELEPATHY3, paper_strategy(GameId.PSEUDO_TELEPATHY3))
    _, peak = traced_peak(lambda: sampler.sample_many(n, np.random.default_rng(2)))
    assert peak <= 40 * n, f"{peak / n:.1f} B/round"


def test_guessing_bounds_hold_one_byte_columns(traced_peak):
    trials = 10_000_000
    protocols.guessing_game_bound_check(1, np.random.default_rng(0))
    _, peak = traced_peak(lambda: protocols.guessing_game_bound_check(trials, np.random.default_rng(1)))
    # less than a third of one uint8 column of the trials: no n-length column is held
    assert peak <= 3 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_guessing_bounds_fill_columns_chunk_by_chunk(traced_peak):
    trials = 2_000_000
    protocols.guessing_game_bound_check(1, np.random.default_rng(0))
    _, peak = traced_peak(lambda: protocols.guessing_game_bound_check(trials, np.random.default_rng(1)))
    # one piece of x, setting and uniform draws with their buffers, and three generator copies
    assert peak <= 2**20, f"{peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("game", sorted(cli._GAME_NAMES))
def test_play_game_holds_no_round_columns(game, traced_peak, capsys):
    argv = ["play-game", "--game", game, "--seed", "3", "--deterministic", "--rounds"]
    assert cli.main([*argv, "100"]) == 0          # first-call allocations are not per round
    code, peak = traced_peak(lambda: cli.main([*argv, "2000000"]))
    assert code == 0
    # one piece of draws and buffers: a round column would be 2 MB per int8 bit
    assert peak <= 2**20, f"{peak / 2**20:.2f} MiB"


def test_sample_many_fills_columns_chunk_by_chunk(traced_peak):
    n = 1_000_000
    sampler = RoundSampler(GameId.PSEUDO_TELEPATHY3, paper_strategy(GameId.PSEUDO_TELEPATHY3))
    _, peak = traced_peak(lambda: sampler.sample_many(n, np.random.default_rng(2)))
    # the int8 inputs and outputs (3 + 3 B); one piece of draws and buffers
    assert peak <= 6 * n + 2**19, f"{(peak - 6 * n) / 2**20:.2f} MiB past the columns"


def test_sample_many_holds_only_its_columns_per_round(traced_slope):
    sampler = RoundSampler(GameId.PSEUDO_TELEPATHY3, paper_strategy(GameId.PSEUDO_TELEPATHY3))
    sampler.sample_many(1, np.random.default_rng(0))       # first-call allocations are not per round
    # each further round adds its int8 inputs and outputs (3 + 3 B) and no input-index column
    per_round = traced_slope(lambda n: sampler.sample_many(n, np.random.default_rng(2)), (10**6, 2 * 10**6))
    assert per_round <= 6.5, f"{per_round:.2f} B/round"
