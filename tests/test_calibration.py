"""Calibration of certification over many runs, drawn as multinomial tallies.

A memoryless device pair's rounds are i.i.d., so a run's tally [x, setting, b]
is one multinomial draw over the input law times [1 - p, p], where p is the
pair's response table averaged over its coin rows; a pair whose coin is drawn
once per run draws its coin first.  Q's odd test reads the first
ceil(gamma * n_rand) Rand rounds, so given the tally's Rand count its hits are
Binomial(test_len, Pr[b = x1 | Rand]).  Certification reads nothing else, so
a tally certified by ``protocols.certify``, the code ``run_protocol`` runs,
passes exactly as often as a real run; one comparison with real runs per
configuration checks that.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from diqrng import analysis, protocols
from diqrng.errors import InsufficientRounds
from diqrng.games import ClassicalStrategy, GameId, best_classical, enumerate_deterministic, g2_deterministic_frontier, win_mask
from diqrng.protocols import (
    ProtocolConfig,
    adversarial_devices,
    certify,
    classical_pair_from_strategy,
    honest_devices,
    run_protocol,
)

HONEST_DRAWS = 4_000
DRAWS = 2_000
COMPARISON_DRAWS = 1_000

# protocol P with one Check cell, (x0, x1, y) = (0, 0, 0), holding 90% of the input mass
SKEWED_P = {key: 0.1 / 11 for key in ((x0, x1, s) for x0 in (0, 1) for x1 in (0, 1) for s in range(3))}
SKEWED_P[(0, 0, 0)] = 0.9


def best_classical_p():
    return classical_pair_from_strategy(best_classical(GameId.TAVAKOLI)[1], "P")


def model_runs(config, devices, draws, rng):
    """``draws`` model runs of ``config`` on ``devices``, as (tally, odd_hits, test_len) triples."""
    table = devices.response_table(config.protocol)
    if not (devices.uses_coin and not devices.coin_per_round):
        table = table.mean(axis=0, keepdims=True)      # a coin drawn every round averages out
    law = protocols._input_law(config.protocol, config.mode, config.input_weights)
    cells = law[None, :, :, None] * np.stack([1.0 - table, table], axis=-1)    # [coin, x, setting, b]

    rand = (protocols._BIN_OF[config.protocol] == protocols._RAND)[:, :, None]
    x1 = np.indices(cells.shape[1:])[0] & 1
    matches = rand & (x1 == np.arange(2))                                       # Rand rounds with b == x1
    rand_mass = (cells * rand).sum(axis=(1, 2, 3))
    q = np.divide((cells * matches).sum(axis=(1, 2, 3)), rand_mass, out=np.zeros_like(rand_mass), where=rand_mass > 0)

    coins = rng.integers(0, len(table), size=draws)
    tallies = rng.multinomial(config.rounds, cells[coins].reshape(draws, -1)).reshape(draws, *cells.shape[1:])
    n_rand = (tallies * rand).sum(axis=(1, 2, 3))
    odd_test = config.protocol == "Q" and config.mode == "test"
    test_len = np.ceil(config.gamma * n_rand).astype(np.int64) if odd_test else np.zeros(draws, dtype=np.int64)
    hits = rng.binomial(test_len, q[coins])
    return zip(tallies, hits.tolist(), test_len.tolist())


def passes(config, tally, odd_hits, test_len):
    """Whether a run PASSes: every condition satisfied; a run too short to certify does not."""
    try:
        return all(c.satisfied for c in certify(config, tally, odd_hits, test_len))
    except InsufficientRounds:
        return False


def model_pass_rate(config, devices, draws, seed=0):
    rng = np.random.default_rng(seed)
    return sum(passes(config, *run) for run in model_runs(config, devices, draws, rng)) / draws


def real_pass_rate(config, devices, runs):
    """The share of ``runs`` real runs, at seeds config.seed onward, that PASS; a raising run does not."""
    passed = 0
    for k in range(runs):
        try:
            passed += run_protocol(replace(config, seed=config.seed + k), devices)[1].decision == "PASS"
        except InsufficientRounds:
            pass
    return passed / runs


def at_most(rate, bound, draws):
    """rate, measured over draws, is consistent with a true rate of at most bound (4 standard errors)."""
    return rate <= bound + 4.0 * math.sqrt(bound * (1.0 - bound) / draws)


# ---------------------------------------------------------------------------
# the model is the run: its tallies certify as real runs do
# ---------------------------------------------------------------------------

def test_model_tallies_have_the_runs_cell_means():
    # the mean of many model tallies is the expected tally of a run, cell by cell
    config = ProtocolConfig("P", 6_000, seed=0, input_weights=SKEWED_P)
    pair = adversarial_devices("input_guesser")
    tallies = np.array([tally for tally, _, _ in model_runs(config, pair, 500, np.random.default_rng(1))])
    run_tally = run_protocol(config, pair)[0].tally
    # a run's cell count is within a few binomial standard deviations of the model mean
    assert np.all(np.abs(run_tally - tallies.mean(axis=0)) <= 5 * np.sqrt(tallies.mean(axis=0)) + 1)


@pytest.mark.parametrize("protocol,mode", [("P", "test"), ("P", "generate"), ("Q", "test"), ("Q", "generate")])
def test_certify_is_what_run_protocol_decides(protocol, mode):
    # a real run's tally and odd test, certified alone, give that run's conditions
    config = ProtocolConfig(protocol, 3_000, seed=4, mode=mode, gamma=0.7)
    bins, verdict = run_protocol(config, honest_devices(protocol))
    odd = {c.name: c for c in verdict.conditions}.get("odd_guess_half")
    hits, test_len = (odd.detail["count"], odd.detail["trials"]) if odd else (0, 0)
    assert certify(config, bins.tally, hits, test_len) == verdict.conditions


# name -> (config, devices, real runs); the real runs span pass rates near 1, between, and near 0
COMPARISONS = {
    "honest-P": (ProtocolConfig("P", 10_000, seed=100, delta=0.05), honest_devices("P"), 100),
    "honest-Q": (ProtocolConfig("Q", 10_000, seed=200, delta=0.05), honest_devices("Q"), 100),
    "best-classical-P-200": (ProtocolConfig("P", 200, seed=300), best_classical_p(), 30),
    "best-classical-P-1000": (ProtocolConfig("P", 1_000, seed=400), best_classical_p(), 30),
    "best-classical-P-2000": (ProtocolConfig("P", 2_000, seed=500), best_classical_p(), 30),
    "x1-forwarder-Q-60": (ProtocolConfig("Q", 60, seed=600), adversarial_devices("x1_forwarder"), 50),
    "x1-forwarder-Q-100": (ProtocolConfig("Q", 100, seed=700), adversarial_devices("x1_forwarder"), 50),
    "x1-forwarder-Q-400": (ProtocolConfig("Q", 400, seed=800), adversarial_devices("x1_forwarder"), 50),
    "mixed-coin-per-run-Q-40": (
        ProtocolConfig("Q", 40, seed=900, delta=0.05),
        adversarial_devices("mixed_perfect_even", coin_per_round=False),
        50,
    ),
    "skewed-P": (ProtocolConfig("P", 4_000, seed=1_000, delta=0.05, input_weights=SKEWED_P), honest_devices("P"), 100),
}


@pytest.mark.parametrize("name", sorted(COMPARISONS))
def test_model_matches_real_runs(name):
    config, pair, runs = COMPARISONS[name]
    model = model_pass_rate(config, pair, COMPARISON_DRAWS)
    real = real_pass_rate(config, pair, runs)
    se = math.sqrt(model * (1.0 - model) * (1.0 / runs + 1.0 / COMPARISON_DRAWS))
    assert abs(real - model) <= 4.0 * se, f"model {model:.4f}, real {real:.4f} over {runs} runs"


# ---------------------------------------------------------------------------
# what --delta promises: an honest run aborts with probability at most delta
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("delta", [0.05, 1e-3])
@pytest.mark.parametrize("protocol", ["P", "Q"])
def test_honest_aborts_at_most_delta(protocol, delta):
    config = ProtocolConfig(protocol, 10_000, seed=0, delta=delta)
    aborts = 1.0 - model_pass_rate(config, honest_devices(protocol), HONEST_DRAWS, seed=1)
    assert at_most(aborts, delta, HONEST_DRAWS), f"honest {protocol} aborts {aborts:.5f} at delta {delta}"


# ---------------------------------------------------------------------------
# known defects: each xfail is strict, so the fix that mends one must drop its marker
# ---------------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="no condition checks that a Hoeffding band can exclude the cheat's value, so short runs PASS",
)
@pytest.mark.parametrize("delta", [0.05, 1e-3])
@pytest.mark.parametrize(
    "protocol,rounds,make_pair",
    [("P", 200, best_classical_p), ("Q", 20, lambda: adversarial_devices("x1_forwarder"))],
    ids=["best-classical-P-200", "x1-forwarder-Q-20"],
)
def test_cheats_pass_at_most_delta(protocol, rounds, make_pair, delta):
    config = ProtocolConfig(protocol, rounds, seed=0, delta=delta)
    rate = model_pass_rate(config, make_pair(), DRAWS, seed=2)
    assert at_most(rate, delta, DRAWS), f"cheat PASSes {rate:.4f} at delta {delta}"


@pytest.mark.xfail(
    strict=True,
    reason="the A band uses the pooled radius although A averages eight unevenly filled cells",
)
def test_honest_p_with_skewed_inputs_aborts_at_most_delta():
    config = ProtocolConfig("P", 4_000, seed=0, delta=0.05, input_weights=SKEWED_P)
    aborts = 1.0 - model_pass_rate(config, honest_devices("P"), HONEST_DRAWS, seed=3)
    assert at_most(aborts, config.delta, HONEST_DRAWS), f"honest P aborts {aborts:.4f} at delta 0.05"


# ---------------------------------------------------------------------------
# exact PASS probabilities for protocol Q
# ---------------------------------------------------------------------------

# log k! for every count the tests below reach (runs of up to 10,000 rounds)
LOG_FACTORIAL = np.array([math.lgamma(k + 1.0) for k in range(10_001)])
# Bin(n, Pr[Check]) terms below e^-92 (1e-40) are left out: they weigh less than any probability a test reads
NEGLIGIBLE = math.log(1e-40)


def log_binomial_pmf(k, n, p):
    """log Pr[Bin(n, p) = k], elementwise over integer arrays k and n; -inf where the mass is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_choose = LOG_FACTORIAL[n] - LOG_FACTORIAL[k] - LOG_FACTORIAL[n - k]
        return log_choose + np.where(k > 0, k * np.log(p), 0.0) + np.where(n > k, (n - k) * np.log1p(-p), 0.0)


def band_passes(hits, trials, radius, two_sided):
    """``protocols._band_check``'s decision, elementwise: Q's even-win band at target 1 or its odd band at 1/2."""
    rate = hits / trials
    return np.abs(rate - 0.5) <= radius if two_sided else rate >= 1.0 - radius


def band_pass_probability(trials, p, delta, two_sided):
    """Pr[the band at delta holds] for Bin(t, p) hits, for each t >= 1 of the int array ``trials``.

    Only a window of hits around the band's edges is summed; every count outside it fails.
    """
    radius = np.array([analysis.hoeffding_radius(delta, int(t)) for t in trials])
    center = 0.5 if two_sided else 1.0
    low = np.maximum(np.floor(trials * (center - radius)) - 1, 0).astype(np.int64)
    high = np.minimum(np.ceil(trials * (center + radius)) + 1, trials).astype(np.int64)
    hits = low[:, None] + np.arange(int((high - low).max()) + 1)
    inside = hits <= high[:, None]
    hits = np.minimum(hits, trials[:, None])
    passed = inside & band_passes(hits, trials[:, None], radius[:, None], two_sided)
    return np.where(passed, np.exp(log_binomial_pmf(hits, trials[:, None], p)), 0.0).sum(axis=1)


def q_rates(law, table):
    """(Pr[Check], the Check win rate, Pr[b = x1 | Rand]) of a one-coin response table [x, setting] under ``law``."""
    check = protocols._BIN_OF["Q"] == protocols._CHECK
    won = (law[..., None] * np.stack([1.0 - table, table], axis=-1) * win_mask(GameId.GAME_G2).reshape(4, 2, 2)).sum(axis=2)
    p_check = law[check].sum()
    return float(p_check), float(won[check].sum() / p_check), float(won[~check].sum() / (1.0 - p_check))


def exact_q_pass_probability(config, pair):
    """(PASS probability, probability of no Check round) of a protocol Q test run on a memoryless pair.

    PASS = sum over n_check of Bin(n_check; n, Pr[Check]) * T_even(n_check, p) * T_odd(ceil(gamma (n - n_check)), q),
    with p the law-weighted Check win rate and q = Pr[b = x1 | Rand].  A run without a Check round raises
    InsufficientRounds, reported as the second value, and one without a Rand round fails ``rand_nonempty``.
    A coin-per-run pair is the mean of its coin rows; a coin drawn every round averages its rows first.
    """
    assert config.protocol == "Q" and config.mode == "test"
    law = protocols._input_law("Q", "test", config.input_weights)
    table = pair.response_table("Q")
    if not (pair.uses_coin and not pair.coin_per_round):
        table = table.mean(axis=0, keepdims=True)
    n = config.rounds
    n_check = np.arange(n + 1)
    results = []
    for row in table:
        p_check, p_even, q_odd = q_rates(law, row)
        log_weight = log_binomial_pmf(n_check, n, p_check)
        kept = n_check[(n_check > 0) & (n_check < n) & (log_weight > NEGLIGIBLE)]
        test_len = np.ceil(config.gamma * (n - kept)).astype(np.int64)
        passed = band_pass_probability(kept, p_even, config.delta, False)
        passed *= band_pass_probability(test_len, q_odd, config.delta, True)
        results.append((float(np.exp(log_weight[kept]) @ passed), float(np.exp(log_weight[0]))))
    return tuple(float(v) for v in np.mean(results, axis=0))


def q_check_tally(wins, trials):
    """A Q tally of ``trials`` Check rounds, all in cell x = 00, setting 0, of which the ``wins`` with b = 0 win."""
    tally = np.zeros((4, 2, 2), dtype=np.int64)
    tally[0, 0] = wins, trials - wins
    return tally


def test_oracle_band_decisions_are_certifys():
    # at each threshold and its neighbours, for both bands, the oracle decides as certify does
    decided = []
    for delta in (0.05, 1e-3, 1e-6):
        config = ProtocolConfig("Q", 10, seed=0, delta=delta)
        for trials in (1, 2, 3, 7, 20, 64, 101, 400, 1_000, 4_321):
            radius = analysis.hoeffding_radius(delta, trials)
            edges = (trials * (1.0 - radius), trials * (0.5 - radius), trials * (0.5 + radius))
            hits = sorted({h for e in edges for h in range(math.floor(e) - 1, math.floor(e) + 3) if 0 <= h <= trials})
            want = [band_passes(np.array(hits), trials, radius, two_sided) for two_sided in (False, True)]
            for h, even, odd in zip(hits, *want):
                got = {c.name: c.satisfied for c in certify(config, q_check_tally(h, trials), h, trials)}
                assert (got["even_win"], got["odd_guess_half"]) == (even, odd), (delta, trials, h)
                decided.append((even, odd))
    assert len(decided) >= 100 and {even for even, _ in decided} == {odd for _, odd in decided} == {False, True}


def g2_pair(tables):
    return classical_pair_from_strategy(ClassicalStrategy(GameId.GAME_G2, tables=tables), "Q")


def test_oracle_rates_are_the_g2_frontier():
    law = protocols._input_law("Q", "test", None)
    rates = {q_rates(law, g2_pair(s.tables).table[0])[1:] for s in enumerate_deterministic(GameId.GAME_G2)}
    assert rates == {(even, odd) for even, odd, _ in g2_deterministic_frontier()} and len(rates) == 13


@pytest.mark.parametrize("name", sorted(name for name, (config, _, _) in COMPARISONS.items() if config.protocol == "Q"))
def test_exact_q_pass_probability_matches_the_model(name):
    config, pair, _ = COMPARISONS[name]
    exact, _ = exact_q_pass_probability(config, pair)
    model = model_pass_rate(config, pair, COMPARISON_DRAWS)
    se = math.sqrt(max(exact * (1.0 - exact), 0.0) / COMPARISON_DRAWS)
    assert abs(model - exact) <= 4.0 * se + 1e-12, f"model {model}, exact {exact}"     # the sum rounds within 1e-12


@pytest.mark.parametrize("rounds,want", [(200, 0.67321), (400, 0.026179), (600, 5.588e-5), (1_000, 1.143e-12)])
def test_exact_q_pass_probability_of_a_g2_strategy(rounds, want):
    config = ProtocolConfig("Q", rounds, seed=0, delta=1e-6)
    exact, no_check = exact_q_pass_probability(config, g2_pair(((0, 0, 0, 1), (0, 0, 1, 0))))
    assert exact == pytest.approx(want, rel=1e-3) and no_check == pytest.approx(0.5**rounds, rel=1e-9)


@pytest.mark.xfail(
    strict=True,
    reason="no condition checks that a Hoeffding band can exclude the cheat's value (band_can_reject), so short runs PASS",
)
def test_deterministic_g2_pairs_pass_q_at_most_delta():
    # the 256 deterministic G2 pairs reach 13 (even-win, odd-guess) points; one pair stands for each
    law = protocols._input_law("Q", "test", None)
    pairs = {}
    for strategy in enumerate_deterministic(GameId.GAME_G2):
        pair = g2_pair(strategy.tables)
        pairs.setdefault(q_rates(law, pair.table[0]), pair)
    over = []
    for delta in (0.05, 1e-3, 1e-6):
        for rounds in (20, 100, 200, 400, 1_000, 2_000, 10_000):
            config = ProtocolConfig("Q", rounds, seed=0, delta=delta)
            worst = max(exact_q_pass_probability(config, pair)[0] for pair in pairs.values())
            if worst > delta:
                over.append((delta, rounds, worst))
    assert not over, f"a deterministic pair PASSes above delta at (delta, rounds, PASS): {over}"
