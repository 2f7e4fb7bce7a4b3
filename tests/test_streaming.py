"""Chunked protocol runs: identity with the single-draw run, and memory bounds."""

import math

import numpy as np
import pytest

from diqrng import analysis, cli, games, protocols
from diqrng.games import RoundColumns
from diqrng.errors import InsufficientRounds, MissingCell
from diqrng.protocols import (
    A_STAR,
    ConditionCheck,
    ProtocolConfig,
    adversarial_devices,
    honest_devices,
    run_protocol,
)

CHUNK = games._CHUNK_ROUNDS
ROUNDS = (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17)

# skewed, and reaching every Check and False cell as a P test must; Rand rounds come from x = 01 only
P_WEIGHTS = {
    (0, 0, 0): 0.3, (0, 0, 1): 0.05, (0, 1, 0): 0.05, (0, 1, 1): 0.1, (1, 0, 0): 0.05, (1, 0, 1): 0.1,
    (1, 1, 0): 0.15, (1, 1, 1): 0.05, (0, 0, 2): 0.05, (1, 1, 2): 0.03, (0, 1, 2): 0.07,
}
Q_WEIGHTS = {(0, 0, 0): 0.4, (0, 1, 0): 0.3, (1, 1, 1): 0.3}
# zero weight on the first and last of Q's eight cells, and P generate's two cells, one step apart
Q_EDGE_WEIGHTS = {(0, 0, 1): 0.5, (0, 1, 0): 0.25, (1, 1, 0): 0.25}
P_GENERATE_WEIGHTS = {(0, 1, 2): 0.25, (1, 0, 2): 0.75}

# name -> (ProtocolConfig keywords, device pair factory)
CONFIGS = {
    "P-test": ({"protocol": "P"}, lambda: honest_devices("P")),
    "P-generate": ({"protocol": "P", "mode": "generate"}, lambda: honest_devices("P")),
    "Q-test": ({"protocol": "Q", "gamma": 0.6}, lambda: honest_devices("Q")),
    "Q-generate": ({"protocol": "Q", "mode": "generate"}, lambda: honest_devices("Q")),
    "P-input-weights": ({"protocol": "P", "input_weights": P_WEIGHTS}, lambda: honest_devices("P")),
    "Q-input-weights": ({"protocol": "Q", "input_weights": Q_WEIGHTS}, lambda: honest_devices("Q")),
    "Q-input-weights-zero-ends": ({"protocol": "Q", "input_weights": Q_EDGE_WEIGHTS}, lambda: honest_devices("Q")),
    "P-generate-input-weights": (
        {"protocol": "P", "mode": "generate", "input_weights": P_GENERATE_WEIGHTS},
        lambda: honest_devices("P"),
    ),
    "Q-mixed-coin-per-round": ({"protocol": "Q"}, lambda: adversarial_devices("mixed_perfect_even")),
    "Q-mixed-coin-per-run": (
        {"protocol": "Q"},
        lambda: adversarial_devices("mixed_perfect_even", coin_per_round=False),
    ),
    "P-guesser-coin-per-round": ({"protocol": "P"}, lambda: adversarial_devices("input_guesser")),
    "P-guesser-coin-per-run": (
        {"protocol": "P"},
        lambda: adversarial_devices("input_guesser", coin_per_round=False),
    ),
}


# ---------------------------------------------------------------------------
# reference: the whole run drawn at once, binned by masks, certified per round
# ---------------------------------------------------------------------------

def reference_rounds(config, devices):
    """Return every round as columns (x, setting, b), x = 2*x0 + x1, and the (check, rand, false) RoundColumns."""
    table = devices.response_table(config.protocol)
    seq = np.random.SeedSequence(config.seed)
    input_rng, coin_rng, meas_rng = (np.random.default_rng(s) for s in seq.spawn(3))
    n = config.rounds

    if config.input_weights is not None:
        space = protocols._draw_space(config.protocol, config.mode)
        probs = np.zeros(len(space))
        for (x0, x1, s), w in config.input_weights.items():
            probs[space.index((2 * int(x0) + int(x1), int(s)))] += float(w)
        probs /= probs.sum()
        drawn = input_rng.choice(len(space), size=n, p=probs)
        pairs = np.asarray(space, dtype=np.int64)
        x, setting = pairs[drawn, 0], pairs[drawn, 1]
    elif config.protocol == "P" and config.mode == "generate":
        x = input_rng.integers(1, 3, size=n)
        setting = np.full(n, 2, dtype=np.int64)
    else:
        x = input_rng.integers(0, 4, size=n)
        setting = input_rng.integers(0, 3 if config.protocol == "P" else 2, size=n)

    if devices.uses_coin and devices.coin_per_round:
        coin = coin_rng.integers(0, 2, size=n)
    elif devices.uses_coin:
        coin = np.full(n, int(coin_rng.integers(0, 2)), dtype=np.int64)
    else:
        coin = np.zeros(n, dtype=np.int64)
    b = (meas_rng.random(n) >= 1.0 - table[coin, x, setting]).astype(np.int8)

    inputs = np.column_stack([x >> 1, x & 1, setting]).astype(np.int8)

    def batch(mask):
        return RoundColumns(inputs[mask], b[mask, None])

    if config.protocol == "P":
        check = batch(setting < 2)
        rand = batch((setting == 2) & ((x == 1) | (x == 2)))
        false = batch((setting == 2) & ((x == 0) | (x == 3)))
    else:
        even = ((x >> 1) + (x & 1) + setting) % 2 == 0
        check, rand, false = batch(even), batch(~even), None
    return (x, setting, b), (check, rand, false)


def reference_certify(bins, config):
    """Return the conditions and output bits of a run's (check, rand, false) RoundColumns."""
    if config.mode == "generate":
        rand = bins[1]
        return (rand_nonempty(len(rand) > 0),), rand.outputs[:, 0]
    if config.protocol == "P":
        return reference_certify_p(bins, config)
    return reference_certify_q(bins, config)


def count_condition(name, hits, trials, target, satisfied, radius, delta, **detail):
    """A condition on hits out of trials, reported with its Wilson interval at 1 - delta."""
    lo, hi = analysis.wilson_interval(hits, trials, 1.0 - delta)
    return ConditionCheck(
        name, hits / trials, (lo, hi), target, satisfied, {"count": hits, "trials": trials, "radius": radius, **detail}
    )


def rand_nonempty(ok):
    return ConditionCheck("rand_nonempty", float(ok), (float(ok), float(ok)), 1.0, ok, {})


def self_test_counts(check):
    """Self-test rounds counted as [x, y, b], x = 2*x0 + x1."""
    x0, x1, y = check.inputs.T.astype(np.int64)
    return np.bincount(8 * x0 + 4 * x1 + 2 * y + check.outputs[:, 0], minlength=16).reshape(4, 2, 2)


def reference_certify_p(bins, config):
    check, rand, false = bins
    if len(check) == 0:
        raise InsufficientRounds("check bin is empty")
    try:
        a_hat = analysis.statistic_A(self_test_counts(check), confidence=1.0 - config.delta)
    except MissingCell as exc:
        raise InsufficientRounds(str(exc)) from exc
    radius = analysis.hoeffding_radius(config.delta, len(check))
    conditions = [
        ConditionCheck("A_statistic", a_hat.point, (a_hat.ci_low, a_hat.ci_high), A_STAR,
                       abs(a_hat.point - A_STAR) <= radius, {"radius": radius, "trials": len(check)})
    ]
    false_x = 2 * false.inputs[:, 0] + false.inputs[:, 1]
    for name, x, want_bit in (("false_b0_given_x00", 0, 0), ("false_b1_given_x11", 3, 1)):
        outputs = false.outputs[false_x == x, 0]
        if outputs.size == 0:
            raise InsufficientRounds(f"false bin has no x={'00' if want_bit == 0 else '11'} rounds")
        hits = int(np.count_nonzero(outputs == want_bit))
        radius_f = analysis.hoeffding_radius(config.delta, outputs.size)
        conditions.append(count_condition(
            name, hits, outputs.size, 1.0, hits / outputs.size >= 1.0 - radius_f, radius_f, config.delta,
            exceptions=outputs.size - hits,
        ))
    conditions.append(rand_nonempty(len(rand) > 0))
    passed = all(c.satisfied for c in conditions)
    return tuple(conditions), rand.outputs[:, 0] if passed else np.array([], dtype=np.uint8)


def reference_certify_q(bins, config):
    check, rand, _ = bins
    if len(check) == 0:
        raise InsufficientRounds("check bin is empty")
    x0, x1, x2 = (check.inputs[:, k].astype(np.int64) for k in range(3))
    wins = int(np.count_nonzero((x0 + x1 + x2) // 2 == check.outputs[:, 0] + (x0 & (x0 ^ x1))))
    n_check = len(check)
    radius_even = analysis.hoeffding_radius(config.delta, n_check)
    conditions = [count_condition(
        "even_win", wins, n_check, 1.0, wins / n_check >= 1.0 - radius_even, radius_even, config.delta,
        exceptions=n_check - wins,
    )]
    test_len = math.ceil(config.gamma * len(rand))
    if test_len > 0:
        matches = int(np.count_nonzero(rand.outputs[:test_len, 0] == rand.inputs[:test_len, 1]))
        radius_odd = analysis.hoeffding_radius(config.delta, test_len)
        conditions.append(count_condition(
            "odd_guess_half", matches, test_len, 0.5, abs(matches / test_len - 0.5) <= radius_odd, radius_odd,
            config.delta, gamma=config.gamma, test_portion=test_len,
        ))
    else:
        conditions.append(ConditionCheck("odd_guess_half", 0.0, (0.0, 0.0), 0.5, False,
                                         {"trials": 0, "gamma": config.gamma, "test_portion": 0}))
    conditions.append(rand_nonempty(len(rand) > 0))
    passed = all(c.satisfied for c in conditions)
    return tuple(conditions), rand.outputs[test_len:, 0] if passed else np.array([], dtype=np.uint8)


@pytest.mark.parametrize("rounds", ROUNDS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_chunked_run_matches_single_draw(name, rounds, replay_rounds):
    keywords, make_pair = CONFIGS[name]
    config = ProtocolConfig(rounds=rounds, seed=20_000 + rounds, **keywords)
    want_rounds, want_bins = reference_rounds(config, make_pair())
    # the chunked stream that a run tallies is the single draw, round by round
    for got, want in zip(replay_rounds(config, make_pair()), want_rounds, strict=True):
        assert np.array_equal(got, want)
    try:
        want_conditions, want_bits = reference_certify(want_bins, config)
    except InsufficientRounds as exc:
        with pytest.raises(InsufficientRounds) as got:
            run_protocol(config, make_pair())
        assert str(got.value) == str(exc)
        return

    bins, verdict = run_protocol(config, make_pair())
    for column in ("inputs", "outputs"):
        got_col, want_col = getattr(bins.rand, column), getattr(want_bins[1], column)
        assert got_col.dtype == want_col.dtype and got_col.shape == want_col.shape
        assert np.array_equal(got_col, want_col)
    assert bins.counts() == {
        key: len(batch) for key, batch in zip(("check", "rand", "false"), want_bins) if batch is not None
    }
    assert verdict.conditions == want_conditions
    assert np.array_equal(verdict.output_bits, want_bits.astype(np.uint8))


def weight_vectors():
    """Weights with zeros first, last and inside, P generate's one-step weights, and random ones with zeros."""
    yield from ((0.0, 0.0, 0.5, 0.5), (0.5, 0.5, 0.0, 0.0), (0.0, 0.3, 0.0, 0.7, 0.0))
    yield from ((1.0, 0.0), (0.0, 1.0), (0.25, 0.75))
    rng = np.random.default_rng(11)
    for _ in range(40):
        size = int(rng.integers(2, 13))
        weights = rng.random(size) * (rng.random(size) < 0.6)
        weights[rng.integers(size)] += 0.1
        yield tuple(weights / weights.sum())


@pytest.mark.parametrize("n", [1, games._DRAW_VALUES + 1, 3 * games._DRAW_VALUES + 17])
def test_weighted_picks_equal_generator_choice(n):
    """A one-cell draw whose table is the CDF less its last entry picks as ``choice`` does and ends where it does."""
    for seed, weights in enumerate(weight_vectors()):
        probs = np.array(weights)
        cdf = np.cumsum(probs)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        picks = [pick.copy() for pick in games.draw_codes(n, rng, ((0, 1, 1),), (cdf[:-1] / cdf[-1])[:, None])]
        assert np.array_equal(np.concatenate(picks), ref_rng.choice(probs.size, size=n, p=probs)), weights
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# memory: a run keeps its Rand bits and one chunk of columns
# ---------------------------------------------------------------------------

# a chunk's columns and temporaries, at most ten 8-byte values per round
CHUNK_BYTES = 80 * CHUNK


@pytest.mark.parametrize("protocol,mode", [("P", "test"), ("Q", "test"), ("P", "generate")])
def test_run_protocol_keeps_rand_bits_and_one_chunk(protocol, mode, traced_peak):
    config = ProtocolConfig(protocol, 2_000_000, seed=5, mode=mode)
    pair = honest_devices(protocol)
    (bins, verdict), peak = traced_peak(lambda: run_protocol(config, pair))
    assert verdict.decision == "PASS"
    # per Rand round: its bit and Q's odd-test match, packed, and Q's tested
    # matches unpacked, so well under 3 bytes at once
    n_rand = bins.counts()["rand"]
    assert peak <= 3 * n_rand + CHUNK_BYTES, f"{peak / config.rounds:.1f} B/round"


@pytest.mark.parametrize("protocol,mode,bound", [("P", "test", 0.25), ("Q", "test", 1.3), ("P", "generate", 1.3)])
def test_rand_storage_grows_slowly_with_the_run(protocol, mode, bound, traced_slope):
    """The traced peak grows by at most ``bound`` bytes per further Rand round.

    A run holds its Rand bits and Q's odd-test matches packed, 1/8 B each,
    and unpacks only Q's tested matches, 1 B each.  P test has one Rand
    round in six, so at these sizes its chunk work sets the peak and only
    the packed bits grow it.  Per-chunk uint8 pieces joined at the end grow
    the peak by about 1.01 (P test), 2.01 (Q test) and 1.66 B (P generate).
    """
    pair = honest_devices(protocol)
    run_protocol(ProtocolConfig(protocol, 1000, seed=5, mode=mode), pair)     # first-call allocations
    per_rand = traced_slope(
        lambda n: run_protocol(ProtocolConfig(protocol, n, seed=5, mode=mode), pair),
        (2_000_000, 6_000_000),
        units=lambda result: result[0].counts()["rand"],
    )
    assert per_rand <= bound, f"{per_rand:.3f} B per Rand round"


@pytest.mark.parametrize("sizes", [(0,), (5, 0, 8, 13), (CHUNK, 7, CHUNK + 3)])
def test_packed_bits_unpack_whole_or_by_prefix(sizes):
    rng = np.random.default_rng(11)
    pieces = [rng.integers(0, 2, size=k).astype(np.uint8) for k in sizes]
    packed = games.PackedBits()
    for piece in pieces:
        packed.append(piece)
    want = np.concatenate(pieces)
    assert packed.size == want.size
    assert np.array_equal(packed.unpack(), want) and packed.unpack().dtype == np.uint8
    for n in {0, min(3, want.size), sizes[0], want.size // 2, want.size}:
        assert np.array_equal(packed.unpack(n), want[:n])


@pytest.mark.parametrize("sizes", [(0,), (5, 0, 8, 13), (100, 37, CHUNK, 150)])
def test_packed_bits_blocks_past_a_dropped_prefix(sizes):
    rng = np.random.default_rng(12)
    pieces = [rng.integers(0, 2, size=k).astype(np.uint8) for k in sizes]
    packed = games.PackedBits()
    for piece in pieces:
        packed.append(piece)
    want = np.concatenate(pieces)
    # prefixes that end inside a piece, on a piece's edge, or past the end (none negative: drop rejects those)
    for n in sorted({0, 3, sizes[0], sizes[0] + 1, want.size // 2, max(want.size - 1, 0), want.size, want.size + 5}):
        rest = packed.drop(n)
        assert rest.size == max(want.size - n, 0)
        blocks = [block.copy() for block in rest.blocks()]
        assert all(block.size == CHUNK for block in blocks[:-1]) and all(block.size for block in blocks)
        assert np.array_equal(np.concatenate([want[:0], *blocks]), want[n:])
        assert np.array_equal(rest.drop(1).unpack(), want[n + 1 :])


def test_packed_bits_compare_by_content_and_recount_after_append():
    want = np.random.default_rng(13).integers(0, 2, size=CHUNK + 100).astype(np.uint8)
    whole, pieces = games.PackedBits(want), games.PackedBits()
    for piece in np.split(want, [3, 70_000]):
        pieces.append(piece)
    flipped = want.copy()
    flipped[-1] ^= 1
    assert whole == pieces and whole != games.PackedBits(flipped) and whole != pieces.drop(1)
    with pytest.raises(TypeError):
        hash(whole)
    assert whole.counts() == (int(want.sum()), int(np.count_nonzero(np.diff(want))))
    whole.append(np.ones(1, dtype=np.uint8))
    assert whole.counts()[0] == int(want.sum()) + 1


def test_dropped_bits_are_sealed_and_share_read_only_pieces():
    packed = games.PackedBits(np.ones(10, dtype=np.uint8))
    sealed = packed.drop(2)
    with pytest.raises(ValueError, match="sealed"):
        sealed.append(np.ones(1, dtype=np.uint8))
    packed.append(np.zeros(4, dtype=np.uint8))     # the original still grows, apart from its sealed copy
    assert sealed.size == 8 and packed.size == 14 and list(sealed.unpack()) == [1] * 8
    assert not any(piece.flags.writeable for piece, _ in packed._pieces)


# append sizes that fill, split and overrun pieces; and drop points by kind, from the total size
LAYOUT_SIZES = [(0,), (1, 7), (CHUNK - 1, 1, 7), (CHUNK, 0, CHUNK + 1), (7, CHUNK + 1, 1, CHUNK - 1, CHUNK)]
DROP_POINTS = {
    "aligned": lambda size: CHUNK if size > CHUNK else 0,
    "unaligned": lambda size: CHUNK + 3 if size > CHUNK + 3 else size // 2 + 1,
    "past-the-end": lambda size: size + 5,
}


@pytest.mark.parametrize("drop", list(DROP_POINTS))
@pytest.mark.parametrize("sizes", LAYOUT_SIZES)
def test_packed_bits_pieces_are_whole_blocks(tmp_path, sizes, drop):
    rng = np.random.default_rng(sum(sizes))
    pieces = [rng.integers(0, 2, size=k).astype(np.uint8) for k in sizes]
    packed = games.PackedBits()
    for piece in pieces:
        packed.append(piece)
    want = np.concatenate(pieces)
    n = DROP_POINTS[drop](want.size)
    rest = packed.drop(n)
    for bits in (packed, rest):
        counts = [count for _, count in bits._pieces]
        assert all(count == CHUNK for count in counts[:-1]) and all(counts)
        assert [block.size for block in bits.blocks()] == counts
    if n % CHUNK == 0 and n <= want.size:
        assert len(rest._pieces) == len(packed._pieces) - n // CHUNK
        assert all(a is b for (a, _), (b, _) in zip(rest._pieces, packed._pieces[n // CHUNK :]))
    assert rest.size == max(want.size - n, 0) and np.array_equal(rest.unpack(), want[n:])
    path = tmp_path / "rest.bits"
    cli.write_bits(path, rest)
    tail = rest.size % 64
    assert [len(line) for line in path.read_bytes().splitlines()] == [64] * (rest.size // 64) + [tail] * (tail > 0)


@pytest.mark.parametrize(
    "values", [np.array([0, 2, 255, 1], dtype=np.uint8), np.array([3, 0]), np.array([0.5, 1.0]), [0.0, np.nan]],
)
def test_packed_bits_take_only_0_and_1(values):
    with pytest.raises(ValueError, match="bits must be 0/1 valued$"):
        games.PackedBits(values)
    packed = games.PackedBits(np.ones(3, dtype=np.uint8))
    with pytest.raises(ValueError, match="bits must be 0/1 valued$"):
        packed.append(values)
    assert packed.size == 3 and list(packed.unpack()) == [1, 1, 1]
    with pytest.raises(ValueError, match="bits must be 0/1 valued$"):
        analysis.entropy_report(values)
    with pytest.raises(ValueError, match="bits must be 0/1 valued$"):
        protocols.CertificationVerdict("PASS", (), values)


def test_packed_bits_take_0_and_1_of_any_type():
    want = games.PackedBits(np.array([0, 1, 1], dtype=np.uint8))
    for bits in ([0, 1, 1], np.array([0.0, 1.0, 1.0]), np.array([0, 1, 1]) > 0):
        assert games.PackedBits(bits) == want
    with pytest.raises(ValueError, match="bits must be one-dimensional$"):
        games.PackedBits(np.zeros((2, 64), dtype=np.uint8))


@pytest.mark.parametrize("n", [-1, -5])
def test_packed_bits_drop_rejects_a_negative_count(n):
    packed = games.PackedBits(np.array([1, 0, 1], dtype=np.uint8))
    with pytest.raises(ValueError, match=f"drop takes n >= 0 bits, got {n}$"):
        packed.drop(n)


@pytest.mark.parametrize("n", [-1, 4, 10])
def test_packed_bits_unpack_rejects_a_count_past_its_bits(n):
    packed = games.PackedBits(np.array([1, 0, 1], dtype=np.uint8))
    with pytest.raises(ValueError, match=rf"unpack takes n in \[0, 3\] bits, got {n}$"):
        packed.unpack(n)
    assert list(packed.unpack(3)) == [1, 0, 1] and packed.unpack(0).size == 0
