"""Estimators, intervals, entropy, and the randomness battery."""

import math

import numpy as np
import pytest

from diqrng import analysis
from diqrng.analysis import (
    entropy_report,
    estimate_conditional,
    hoeffding_radius,
    randomness_battery,
    statistic_A,
    wilson_interval,
)
from diqrng.errors import EmptyCondition, MissingCell, TooFewBits
from diqrng.games import GameId, PackedBits, RoundColumns, RoundSampler, exact_score, paper_strategy


def make_records(cells_and_bits):
    """RoundColumns from (x0, x1, y, b) tuples."""
    rounds = np.array(cells_and_bits, dtype=np.int8).reshape(-1, 4)
    return RoundColumns(rounds[:, :3], rounds[:, 3:])


def self_test_tally(rounds):
    """Self-test rounds counted as [x, y, b], x = 2*x0 + x1, counted independently of statistic_A."""
    tally = np.zeros((4, 2, 2), dtype=np.int64)
    for x0, x1, y, b in np.hstack([rounds.inputs, rounds.outputs]).tolist():
        tally[2 * x0 + x1, y, b] += 1
    return tally


class TestWilson:
    def test_basic_shape(self):
        lo, hi = wilson_interval(50, 100, 0.95)
        assert lo < 0.5 < hi
        assert 0.0 <= lo <= hi <= 1.0

    def test_degenerate_counts_stay_in_unit_interval(self):
        lo, hi = wilson_interval(100, 100, 0.99)
        assert hi == 1.0 and lo < 1.0
        lo, hi = wilson_interval(0, 100, 0.99)
        assert lo == 0.0 and hi > 0.0

    @pytest.mark.parametrize("p", [0.5, 0.75, 0.8535533905932737, 0.999])
    def test_coverage(self, p):
        # 1000 simulated binomial datasets; coverage within 0.02 of nominal
        rng = np.random.default_rng(int(p * 10_000))
        confidence = 0.95
        n = 400
        covered = 0
        for _ in range(1000):
            count = int(rng.binomial(n, p))
            lo, hi = wilson_interval(count, n, confidence)
            covered += lo <= p <= hi
        assert covered / 1000 >= confidence - 0.02

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0, 0.95)
        with pytest.raises(ValueError):
            wilson_interval(1, 10, 1.5)


class TestHoeffding:
    def test_formula(self):
        assert hoeffding_radius(1e-6, 100_000) == pytest.approx(
            math.sqrt(math.log(2e6) / 2e5), abs=1e-15
        )

    def test_monotone_in_trials(self):
        assert hoeffding_radius(0.01, 1000) > hoeffding_radius(0.01, 10_000)


class TestEstimateConditional:
    def test_event_equals_condition_gives_one(self):
        records = make_records([(0, 1, 0, 1)] * 50)
        est = estimate_conditional(records, lambda r: r.outputs == (1,), lambda r: r.outputs == (1,), 0.95)
        assert est.point == 1.0
        assert est.count == est.trials == 50

    def test_half_rate(self):
        records = make_records([(0, 1, 0, i % 2) for i in range(200)])
        est = estimate_conditional(records, lambda r: r.outputs == (0,), lambda r: True, 0.99)
        assert est.point == 0.5
        assert est.ci_low <= 0.5 <= est.ci_high
        assert est.point == est.count / est.trials

    def test_empty_condition(self):
        records = make_records([(0, 1, 0, 1)] * 10)
        with pytest.raises(EmptyCondition):
            estimate_conditional(records, lambda r: True, lambda r: r.outputs == (0,), 0.95)


class TestStatisticA:
    def test_perfect_records(self):
        records = make_records(
            [(x0, x1, y, (x0, x1)[y]) for x0 in (0, 1) for x1 in (0, 1) for y in (0, 1)] * 10
        )
        est = statistic_A(records)
        assert est.point == 1.0
        assert statistic_A(self_test_tally(records)) == est

    def test_always_zero_records(self):
        # b = 0 matches x_y in exactly half the eight cells
        records = make_records(
            [(x0, x1, y, 0) for x0 in (0, 1) for x1 in (0, 1) for y in (0, 1)] * 10
        )
        assert statistic_A(records).point == 0.5

    def test_cell_averaged_not_pooled(self):
        # one cell sampled 90 times at rate 0, others once at rate 1
        records = make_records(
            [(0, 0, 0, 1)] * 90
            + [
                (x0, x1, y, (x0, x1)[y])
                for x0 in (0, 1)
                for x1 in (0, 1)
                for y in (0, 1)
                if (x0, x1, y) != (0, 0, 0)
            ]
        )
        est = statistic_A(records)
        assert est.point == pytest.approx(7 / 8, abs=1e-12)   # unweighted cell mean
        assert est.count / est.trials != est.point            # pooled rate differs

    def test_missing_cell(self):
        records = make_records([(0, 0, 0, 0)] * 5)
        with pytest.raises(MissingCell):
            statistic_A(records)

    def test_rejects_rand_settings(self):
        records = make_records([(0, 1, 0, 0)] * 8 + [(0, 1, 2, 0)])
        with pytest.raises(ValueError, match="y in"):
            statistic_A(records)

    @pytest.mark.parametrize("column,value", [(0, 2), (1, -1), (2, -1), (3, 5), (3, -1)])
    def test_rejects_non_bit_values(self, column, value):
        # eight perfect records plus one whose x0, x1, y or b is not a bit
        perfect = [(x0, x1, y, (x0, x1)[y]) for x0 in (0, 1) for x1 in (0, 1) for y in (0, 1)]
        extra = [0, 0, 0, 0]
        extra[column] = value
        name = ("x0", "x1", "y", "b")[column]
        with pytest.raises(ValueError, match=f"{name} in {{0, 1}}, got {value}"):
            statistic_A(make_records(perfect + [tuple(extra)]))

    def test_rejects_other_arities(self):
        chsh = RoundSampler(GameId.CHSH, paper_strategy(GameId.CHSH))
        with pytest.raises(ValueError, match="one output b"):
            statistic_A(chsh.sample_many(100, np.random.default_rng(1)))

    @pytest.mark.parametrize("bin_name", ["rand", "false_bin"])
    def test_run_bins_at_setting_two_rejected(self, bin_name):
        from diqrng.protocols import ProtocolConfig, honest_devices, run_protocol

        bins, _ = run_protocol(ProtocolConfig("P", 2_000, seed=3), honest_devices("P"))
        with pytest.raises(ValueError, match="y in"):
            statistic_A(getattr(bins, bin_name))

    def test_run_counts_path(self):
        from diqrng.protocols import ProtocolConfig, honest_devices, run_protocol

        bins, _ = run_protocol(ProtocolConfig("P", 2_000, seed=3), honest_devices("P"))
        assert statistic_A(bins.tally[:, :2]) == statistic_A(bins.check)
        with pytest.raises(ValueError, match="count array .* or RoundColumns.*; got BinStore"):
            statistic_A(bins)

    def test_batch_fast_path_matches_record_path(self):
        # the columns path and the counts path score the same rounds alike
        rng = np.random.default_rng(8)
        batch = make_records(rng.integers(0, 2, (500, 4)))
        assert statistic_A(batch) == statistic_A(self_test_tally(batch))
        per_round = [(*io.inputs, *io.outputs) for io in batch]
        assert statistic_A(make_records(per_round)) == statistic_A(batch)

    def test_matches_strategy_exact_score(self):
        # sampled rounds from the optimal strategy reproduce the exact statistic
        strategy = paper_strategy(GameId.TAVAKOLI)
        exact = exact_score(GameId.TAVAKOLI, strategy).value
        sampler = RoundSampler(GameId.TAVAKOLI, strategy)
        rounds = sampler.sample_many(40_000, np.random.default_rng(77))
        est = statistic_A(rounds)
        assert est == statistic_A(self_test_tally(rounds))
        eps = hoeffding_radius(1e-6, len(rounds))
        assert abs(est.point - exact) <= 4 * eps

    @pytest.mark.parametrize("seed", range(5))
    def test_random_tally_scores_as_its_rounds(self, seed):
        # a tally and the same rounds, expanded and shuffled into RoundColumns, score alike
        rng = np.random.default_rng(seed)
        tally = rng.integers(1, 60, size=(4, 2, 2))
        x, y, b = np.indices(tally.shape).reshape(3, -1)
        rounds = np.repeat(np.column_stack([x >> 1, x & 1, y, b]), tally.ravel(), axis=0)
        rounds = rng.permutation(rounds).astype(np.int8)
        columns = RoundColumns(rounds[:, :3], rounds[:, 3:])
        assert statistic_A(tally, confidence=0.9) == statistic_A(columns, confidence=0.9)

    @pytest.mark.parametrize(
        "counts,named",
        [
            (np.ones((4, 3, 2), dtype=np.int64), "shape (4, 3, 2)"),      # a whole P tally, settings 0-2
            (np.ones((8, 2), dtype=np.int64), "shape (8, 2)"),
            (np.full((4, 2, 2), 2.5), "float64"),                           # not integer counts
            (np.ones((4, 2, 2), dtype=bool), "bool"),
            (np.array([[[3, -1], [2, 2]]] * 4), "negative count"),
        ],
    )
    def test_count_array_is_checked(self, counts, named):
        with pytest.raises(ValueError, match="count array") as err:
            statistic_A(counts)
        assert "RoundColumns" in str(err.value) and named in str(err.value)

    @pytest.mark.parametrize("records", [[[[1, 1], [1, 1]]] * 4, "0101", None, 7])
    def test_other_objects_are_rejected(self, records):
        with pytest.raises(ValueError, match="count array .* or RoundColumns"):
            statistic_A(records)


class TestEntropy:
    def test_all_zeros(self):
        rep = entropy_report("0" * 1000)
        assert rep.shannon == 0.0
        assert rep.min_entropy == 0.0
        assert rep.zero_fraction == 1.0

    @pytest.mark.parametrize("bits", ["0" * 64, "1" * 64])
    def test_constant_stream_min_entropy_is_positive_zero(self, bits):
        # -0.0 == 0.0, so only the sign bit tells them apart; reports print -0 as "-0"
        assert math.copysign(1.0, entropy_report(bits).min_entropy) == 1.0

    def test_balanced(self):
        rep = entropy_report("01" * 500)
        assert rep.shannon == pytest.approx(1.0, abs=1e-15)
        assert rep.min_entropy == pytest.approx(1.0, abs=1e-15)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, 2000)
        shuffled = rng.permutation(bits)
        a, b = entropy_report(bits), entropy_report(shuffled)
        assert a.shannon == b.shannon
        assert a.min_entropy == b.min_entropy

    def test_min_entropy_below_shannon(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            bits = rng.integers(0, 2, 500)
            if rng.random() < 0.5:
                bits[: int(rng.integers(0, 400))] = 0
            rep = entropy_report(bits)
            assert rep.min_entropy <= rep.shannon <= 1.0

    def test_accepts_arrays_and_strings(self):
        assert entropy_report([0, 1, 0, 1]).shannon == entropy_report("0101").shannon

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            entropy_report("")

    @pytest.mark.parametrize("bits", [[0, 2], [1, 1, 255], np.array([0, 1, 7], dtype=np.uint8)])
    def test_non_bits_rejected(self, bits):
        with pytest.raises(ValueError, match="0/1 valued"):
            entropy_report(bits)

    @pytest.mark.parametrize("bits", [np.array([0, 256, 256, 1]), [0.5, 1.7, 0.2], [0, 256]])
    def test_values_are_checked_before_the_uint8_cast(self, bits):
        with pytest.raises(ValueError, match="0/1 valued"):
            entropy_report(bits)

    def test_bit_check_holds_no_per_bit_temporaries(self, traced_peak):
        bits = np.random.default_rng(6).integers(0, 2, 2_000_000).astype(np.uint8)
        rep, peak = traced_peak(lambda: entropy_report(bits))
        assert rep.n_bits == bits.size
        # a reduction over the caller's uint8 bits; numpy's cast buffers only
        assert peak <= 2**18, f"{peak / bits.size:.3f} B/bit"


class TestBattery:
    def test_random_bits_pass(self):
        bits = np.random.default_rng(12).integers(0, 2, 100_000)
        results = randomness_battery(bits)
        assert [r.name for r in results] == ["monobit", "runs", "serial"]
        assert all(r.passed for r in results)

    def test_alternating_fails_runs(self):
        results = {r.name: r for r in randomness_battery("01" * 500)}
        assert not results["runs"].passed
        assert not results["serial"].passed
        assert results["monobit"].passed

    def test_all_zeros_fails_monobit(self):
        results = {r.name: r for r in randomness_battery("0" * 1000)}
        assert not results["monobit"].passed
        assert not results["runs"].passed

    def test_too_few_bits(self):
        with pytest.raises(TooFewBits):
            randomness_battery("0101" * 10)

    def test_significance_is_threshold(self):
        bits = np.random.default_rng(12).integers(0, 2, 10_000)
        for r in randomness_battery(bits, significance=0.01):
            assert r.passed == (r.p_value >= 0.01)


# ---------------------------------------------------------------------------
# packed bits: the block-wise report equals the whole-array one
# ---------------------------------------------------------------------------

def whole_array_serial(arr: np.ndarray) -> float:
    """The lag-1 correlation from one float64 column of bit - mean, built in one step."""
    x = arr.astype(np.float64) - float(np.mean(arr))
    return float(np.dot(x[:-1], x[1:])) / float(np.dot(x, x))


def assert_same_report(packed: PackedBits, arr: np.ndarray) -> None:
    """Counts, entropy and battery rows of packed bits equal those of their array, bit for bit."""
    want = (int(np.count_nonzero(arr)), int(np.count_nonzero(arr[1:] != arr[:-1])))
    assert analysis._counts(packed) == analysis._counts(arr) == want
    report = entropy_report(packed)
    assert report == entropy_report(arr)
    assert report.n_bits == arr.size and report.zero_fraction == 1.0 - float(np.mean(arr))
    if arr.size < 100:
        for bits in (packed, arr):
            with pytest.raises(TooFewBits):
                randomness_battery(bits)
        return
    rows = randomness_battery(packed)
    assert rows == randomness_battery(arr)
    if 0 < want[0] < arr.size:
        assert rows[2].statistic == whole_array_serial(arr)


def pack_pieces(pieces) -> PackedBits:
    packed = PackedBits()
    for piece in pieces:
        packed.append(piece)
    return packed


class TestPackedBitsReport:
    @pytest.mark.parametrize("kind", ["random", "ones"])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 99, 100, 65_537])
    def test_block_edges(self, n, kind):
        rng = np.random.default_rng(n)
        arr = rng.integers(0, 2, n).astype(np.uint8) if kind == "random" else np.ones(n, dtype=np.uint8)
        assert_same_report(PackedBits(arr), arr)

    @pytest.mark.parametrize("sizes", [(0, 5, 0, 13, 0, 90), (3, 65_536, 0, 7, 61), (65_537, 0, 99)])
    def test_empty_and_unaligned_pieces(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        pieces = [rng.integers(0, 2, k).astype(np.uint8) for k in sizes]
        assert_same_report(pack_pieces(pieces), np.concatenate(pieces))

    @pytest.mark.parametrize("drop", [1, 99, 100, 120, 137, 138, 65_600])
    def test_dropped_prefix_across_pieces(self, drop):
        rng = np.random.default_rng(drop)
        pieces = [rng.integers(0, 2, k).astype(np.uint8) for k in (100, 37, 65_536, 150)]
        arr = np.concatenate(pieces)[drop:]
        assert_same_report(pack_pieces(pieces).drop(drop), arr)
