"""Game definitions, strategies, exact scores, brute force, equivalences."""

import itertools
import math

import numpy as np
import pytest

from diqrng import games, qcore
from diqrng.errors import ArityMismatch, BadDistribution, BadInput
from diqrng.games import (
    ClassicalStrategy,
    EquivalencePair,
    GameId,
    MeasureSpec,
    QuantumStrategy,
    RoundIO,
    RoundSampler,
    ScoreKind,
    best_classical,
    branch_distribution,
    enumerate_deterministic,
    equivalence_check,
    exact_score,
    g2_deterministic_frontier,
    input_space,
    outcome_tensor,
    paper_strategy,
    pt3_odd_extension_score,
    sample_round,
    winning_predicate,
)

QWIN = 0.5 * (1 + 1 / math.sqrt(2))
CELL = 0.25 * (1 + 1 / math.sqrt(2))   # the nonzero per-outcome entries of the tables
CELL_LO = 0.25 * (1 - 1 / math.sqrt(2))
# (input bits, output bits) of each game
ARITY = {
    GameId.CHSH: (2, 2),
    GameId.CHSH1: (2, 2),
    GameId.GAME_G: (3, 2),
    GameId.TAVAKOLI: (3, 1),
    GameId.PSEUDO_TELEPATHY3: (3, 3),
    GameId.GAME_G2: (3, 1),
}


def table_outputs(strategy, x):
    """Outputs of a deterministic strategy on input x, read off its tables directly."""
    t, game = strategy.tables, strategy.game
    if game in (GameId.CHSH, GameId.CHSH1):
        return (t[0][x[0]], t[1][x[1]])
    if game is GameId.GAME_G:
        return (t[0][2 * x[0] + x[1]], t[1][x[2]])
    if game is GameId.PSEUDO_TELEPATHY3:
        return tuple(t[i][x[i]] for i in range(3))
    return (t[1][2 * t[0][2 * x[0] + x[1]] + x[2]],)     # the one-bit message, then the measurement


def predicate_wins(strategy):
    """Per input of the game's input space, whether the strategy wins, by winning_predicate."""
    game = strategy.game
    return {x: winning_predicate(game, RoundIO(x, table_outputs(strategy, x))) for x in input_space(game)}


def cascade_distribution(strategy, inputs):
    """Output distribution by measuring the parties one after another with qcore."""
    if strategy.preparation is not None:
        spec = strategy.measurement[inputs[2]]
        state, parties = strategy.preparation[inputs[:2]], [spec]
    else:
        keys = (inputs[:2], inputs[2]) if strategy.game is GameId.GAME_G else inputs
        state = strategy.shared_state
        parties = [rule[k] for rule, k in zip(strategy.party_rules, keys)]
    dist = {(): (1.0, state)}
    for spec in parties:
        step = {}
        for outs, (p, st) in dist.items():
            for gate in spec.gates:
                st = qcore.apply_gate(st, gate, 0)
            for outcome, (q, collapsed) in enumerate(qcore.measurement_branches(st, spec.basis, 0)):
                if q > 0:
                    step[outs + (spec.outputs[outcome],)] = (p * q, collapsed)
        dist = step
    return {outs: p for outs, (p, _) in dist.items()}


class TestWinningPredicate:
    def test_chsh_table_row(self):
        assert winning_predicate(GameId.CHSH, RoundIO((1, 1), (0, 1)))
        assert not winning_predicate(GameId.CHSH, RoundIO((1, 1), (0, 0)))

    @pytest.mark.parametrize("x,y,a,b", list(itertools.product((0, 1), repeat=4)))
    def test_chsh_is_xor_of_and(self, x, y, a, b):
        assert winning_predicate(GameId.CHSH, RoundIO((x, y), (a, b))) == ((x & y) == (a ^ b))

    def test_game_g_predicate(self):
        assert winning_predicate(GameId.GAME_G, RoundIO((0, 1, 1), (1, 0)))
        assert not winning_predicate(GameId.GAME_G, RoundIO((0, 1, 1), (1, 1)))

    def test_tavakoli_predicate(self):
        assert winning_predicate(GameId.TAVAKOLI, RoundIO((1, 0, 0), (1,)))
        assert not winning_predicate(GameId.TAVAKOLI, RoundIO((1, 0, 1), (1,)))

    def test_g2_even_rows(self):
        # the half-sum identity over the integers
        assert winning_predicate(GameId.GAME_G2, RoundIO((1, 0, 1), (0,)))
        assert winning_predicate(GameId.GAME_G2, RoundIO((0, 0, 0), (0,)))
        assert not winning_predicate(GameId.GAME_G2, RoundIO((0, 0, 0), (1,)))
        assert winning_predicate(GameId.GAME_G2, RoundIO((0, 1, 1), (1,)))
        assert winning_predicate(GameId.GAME_G2, RoundIO((1, 1, 0), (1,)))

    def test_g2_odd_rows_test_x1(self):
        assert winning_predicate(GameId.GAME_G2, RoundIO((0, 1, 0), (1,)))
        assert not winning_predicate(GameId.GAME_G2, RoundIO((0, 1, 0), (0,)))

    def test_pt3_parity(self):
        assert winning_predicate(GameId.PSEUDO_TELEPATHY3, RoundIO((0, 0, 0), (0, 0, 0)))
        assert winning_predicate(GameId.PSEUDO_TELEPATHY3, RoundIO((0, 1, 1), (1, 0, 0)))
        assert not winning_predicate(GameId.PSEUDO_TELEPATHY3, RoundIO((0, 1, 1), (0, 0, 0)))

    def test_pt3_rejects_odd_weight(self):
        with pytest.raises(BadInput):
            winning_predicate(GameId.PSEUDO_TELEPATHY3, RoundIO((0, 0, 1), (0, 0, 0)))

    def test_pt3_predicate_general_n(self):
        # n = 5, weight 4: players need the output parity (4/2) mod 2 = 0
        assert winning_predicate(GameId.PSEUDO_TELEPATHY3, RoundIO((1, 1, 1, 1, 0), (1, 1, 0, 0, 0)))
        assert not winning_predicate(GameId.PSEUDO_TELEPATHY3, RoundIO((1, 1, 1, 1, 0), (1, 0, 0, 0, 0)))
        # n = 4, weight 2: parity 1
        assert winning_predicate(GameId.PSEUDO_TELEPATHY3, RoundIO((1, 1, 0, 0), (0, 1, 0, 0)))
        with pytest.raises(BadInput):
            winning_predicate(GameId.PSEUDO_TELEPATHY3, RoundIO((1, 1, 1, 0, 0), (0,) * 5))
        with pytest.raises(ArityMismatch):
            winning_predicate(GameId.PSEUDO_TELEPATHY3, RoundIO((1, 1, 0, 0), (0, 1, 0)))

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            winning_predicate(GameId.CHSH, RoundIO((1, 1, 0), (0, 1)))
        with pytest.raises(ArityMismatch):
            winning_predicate(GameId.TAVAKOLI, RoundIO((1, 0, 0), (1, 0)))
        with pytest.raises(ArityMismatch):
            winning_predicate(GameId.CHSH, RoundIO((1, 2), (0, 1)))

    @pytest.mark.parametrize("game", list(GameId))
    def test_input_space_is_every_valid_input_in_order(self, game):
        bits = itertools.product((0, 1), repeat=ARITY[game][0])
        want = [x for x in bits if game is not GameId.PSEUDO_TELEPATHY3 or sum(x) % 2 == 0]
        assert list(input_space(game)) == want

    @pytest.mark.parametrize("game", ["chsh", None, [GameId.CHSH]])
    def test_input_space_rejects_an_unknown_game(self, game):
        with pytest.raises(ArityMismatch, match="unknown game"):
            input_space(game)


class TestExactScores:
    @pytest.mark.parametrize(
        "game", [GameId.CHSH, GameId.CHSH1, GameId.GAME_G, GameId.TAVAKOLI]
    )
    def test_quantum_value(self, game):
        score = exact_score(game, paper_strategy(game))
        assert abs(score.value - QWIN) <= 1e-12

    def test_score_kinds(self):
        assert exact_score(GameId.CHSH, paper_strategy(GameId.CHSH)).kind is ScoreKind.WIN_PROBABILITY
        assert exact_score(GameId.TAVAKOLI, paper_strategy(GameId.TAVAKOLI)).kind is ScoreKind.STATISTIC_A

    def test_pseudo_telepathy_wins_always(self):
        score = exact_score(GameId.PSEUDO_TELEPATHY3, paper_strategy(GameId.PSEUDO_TELEPATHY3))
        assert score.value == 1.0

    def test_g2_honest_triple(self):
        scores = exact_score(GameId.GAME_G2, paper_strategy(GameId.GAME_G2))
        assert scores.even_win.value == 1.0
        assert abs(scores.odd_guess.value - 0.5) <= 1e-12
        assert abs(scores.augmented.value - 0.75) <= 1e-12

    def test_chsh_joint_distribution_matches_table(self):
        # every input row: the two winning outcomes carry (1 + 1/sqrt2)/4 each
        strategy = paper_strategy(GameId.CHSH)
        for x, y in itertools.product((0, 1), repeat=2):
            dist = branch_distribution(strategy, (x, y))
            for (a, b), p in dist.items():
                wins = (x & y) == (a ^ b)
                assert abs(p - (CELL if wins else CELL_LO)) <= 1e-12

    def test_chsh1_joint_distribution_matches_table(self):
        strategy = paper_strategy(GameId.CHSH1)
        for x, y in itertools.product((0, 1), repeat=2):
            dist = branch_distribution(strategy, (x, y))
            for (a, b), p in dist.items():
                wins = (x & y) == (a ^ b)
                assert abs(p - (CELL if wins else CELL_LO)) <= 1e-12

    def test_tavakoli_every_cell(self):
        strategy = paper_strategy(GameId.TAVAKOLI)
        for x0, x1, y in itertools.product((0, 1), repeat=3):
            dist = branch_distribution(strategy, (x0, x1, y))
            assert abs(dist[((x0, x1)[y],)] - 2 * CELL) <= 1e-12

    def test_g2_even_rows_deterministic(self):
        # the four even-weight rows produce their forced bit with probability 1
        strategy = paper_strategy(GameId.GAME_G2)
        forced = {(0, 0, 0): 0, (0, 1, 1): 1, (1, 0, 1): 0, (1, 1, 0): 1}
        for inputs, bit in forced.items():
            dist = branch_distribution(strategy, inputs)
            assert dist == {(bit,): 1.0}

    def test_g2_odd_rows_uniform(self):
        strategy = paper_strategy(GameId.GAME_G2)
        for inputs in ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)):
            dist = branch_distribution(strategy, inputs)
            assert abs(dist[(0,)] - 0.5) <= 1e-12
            assert abs(dist[(1,)] - 0.5) <= 1e-12

    def test_pt3_branch_structure_matches_table(self):
        # per even input: four equally likely (y0, y1) pairs, y2 forced by parity
        strategy = paper_strategy(GameId.PSEUDO_TELEPATHY3)
        for inputs in input_space(GameId.PSEUDO_TELEPATHY3):
            dist = branch_distribution(strategy, inputs)
            assert len(dist) == 4
            seen = set()
            for outputs, p in dist.items():
                assert abs(p - 0.25) <= 1e-12
                assert sum(outputs) % 2 == (sum(inputs) // 2) % 2
                seen.add(outputs[:2])
            assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_pt3_odd_extension(self):
        assert abs(pt3_odd_extension_score(paper_strategy(GameId.PSEUDO_TELEPATHY3)) - 0.5) <= 1e-12

    def test_g2_x1_cheat_scores_one_one(self):
        # prepare |x1>, measure computational, ignore the setting
        cheat = QuantumStrategy(
            GameId.GAME_G2,
            preparation={
                (x0, x1): (qcore.KET_ZERO if x1 == 0 else qcore.KET_ONE)
                for x0 in (0, 1)
                for x1 in (0, 1)
            },
            measurement={
                0: MeasureSpec(qcore.COMPUTATIONAL),
                1: MeasureSpec(qcore.COMPUTATIONAL),
            },
        )
        scores = exact_score(GameId.GAME_G2, cheat)
        assert scores.even_win.value == 1.0
        assert scores.odd_guess.value == 1.0

    def test_custom_input_distribution(self):
        strategy = paper_strategy(GameId.CHSH)
        dist = {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0}
        score = exact_score(GameId.CHSH, strategy, input_distribution=dist)
        assert abs(score.value - QWIN) <= 1e-12

    def test_bad_distributions(self):
        strategy = paper_strategy(GameId.CHSH)
        with pytest.raises(BadDistribution):
            exact_score(GameId.CHSH, strategy, input_distribution={(0, 0): 0.5})
        with pytest.raises(BadDistribution):
            exact_score(GameId.CHSH, strategy, input_distribution={(0, 2): 1.0})

    @pytest.mark.parametrize(
        "dist",
        [
            {(0, 0): "1"},                          # numpy would read the string as 1.0
            {5: 1.0},                               # not an input tuple
            {"00": 1.0},
            {(0.0, 1): 1.0},                        # not integers; numpy would raise IndexError
        ],
    )
    def test_input_keys_and_weights_are_checked(self, dist):
        with pytest.raises(BadDistribution):
            exact_score(GameId.CHSH, paper_strategy(GameId.CHSH), input_distribution=dist)

    def test_bool_input_keys_are_bits(self):
        strategy = paper_strategy(GameId.CHSH)
        want = exact_score(GameId.CHSH, strategy, input_distribution={(1, 0): 1.0})
        assert exact_score(GameId.CHSH, strategy, input_distribution={(True, False): 1.0}) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_weights_rejected(self, bad):
        dist = {(0, 0): bad, (0, 1): 1.0, (1, 0): 0.0, (1, 1): 0.0}
        with pytest.raises(BadDistribution):
            exact_score(GameId.CHSH, paper_strategy(GameId.CHSH), input_distribution=dist)

    def test_strategy_game_mismatch(self):
        with pytest.raises(ArityMismatch):
            exact_score(GameId.CHSH, paper_strategy(GameId.CHSH1))
        with pytest.raises(ArityMismatch, match="strategy plays chsh1, not chsh"):
            RoundSampler(GameId.CHSH, paper_strategy(GameId.CHSH1))
        with pytest.raises(ArityMismatch, match="odd-weight extension is defined for the GHZ game"):
            pt3_odd_extension_score(paper_strategy(GameId.CHSH))

    def test_score_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="score 1.5 outside"):
            games.GameScore(1.5, ScoreKind.WIN_PROBABILITY)


def parent_contract(game, operands):
    """The outcome tensor as ``games`` built it before ``qcore.born_weights``: residues cleared in place, then divided."""
    shape = games._shape(game)
    amplitudes = np.einsum(shape.contraction, *operands)
    amplitudes = amplitudes.reshape(operands[0].shape[:-3] + (2,) * (shape.inputs + shape.outputs))
    probs = amplitudes.real ** 2 + amplitudes.imag ** 2
    probs[probs < 1e-18] = 0.0
    return probs / probs.sum(axis=tuple(range(-shape.outputs, 0)), keepdims=True)


class TestOutcomeTensor:
    @pytest.mark.parametrize("game", list(GameId))
    def test_matches_qcore_measurement_cascade(self, game):
        strategy = paper_strategy(game)
        probs = outcome_tensor(strategy)
        n_in, n_out = ARITY[game]
        assert probs.shape == (2,) * (n_in + n_out)
        for inputs in itertools.product((0, 1), repeat=n_in):      # pt3's odd weights too
            want = cascade_distribution(strategy, inputs)
            for outputs in itertools.product((0, 1), repeat=n_out):
                assert abs(probs[inputs + outputs] - want.get(outputs, 0.0)) <= 1e-12
            assert probs[inputs].sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("game", list(GameId))
    def test_matches_the_parent_born_rule_bit_for_bit(self, game):
        strategy = paper_strategy(game)
        assert np.array_equal(outcome_tensor(strategy), parent_contract(game, games._quantum_operands(strategy)))
        deterministic = list(enumerate_deterministic(game))
        for strategy in deterministic:
            want = parent_contract(game, games._table_operands(game, [np.array(t) for t in strategy.tables]))
            assert np.array_equal(outcome_tensor(strategy), want)
        # all of them as one batch, as the classical search contracts them
        operands = games._table_operands(game, [np.array(t) for t in zip(*(s.tables for s in deterministic))])
        assert np.array_equal(games._contract(game, operands), parent_contract(game, operands))

    def test_a_residue_is_cleared_as_the_parent_cleared_it(self):
        # H, then the Hadamard basis, reads |0> as outcome 0 up to a Born weight of about 5e-34 on outcome 1
        spec = MeasureSpec(qcore.HADAMARD, gates=(qcore.H,))
        prepared = {x: qcore.KET_ZERO for x in itertools.product((0, 1), repeat=2)}
        strategy = QuantumStrategy(GameId.TAVAKOLI, preparation=prepared, measurement={0: spec, 1: spec})
        probs = outcome_tensor(strategy)
        assert np.array_equal(probs, parent_contract(GameId.TAVAKOLI, games._quantum_operands(strategy)))
        assert np.array_equal(probs[..., 0], np.ones((2, 2, 2))) and not probs[..., 1].any()

    def test_gates_apply_first_to_last_and_outputs_relabel(self):
        # S then H is not H then S; a swapped relabelling flips every bit
        strategy = QuantumStrategy(
            GameId.CHSH,
            shared_state=qcore.BELL_PHI_PLUS,
            party_rules=(
                {0: MeasureSpec(qcore.PSI, gates=(qcore.S, qcore.H)), 1: MeasureSpec(qcore.HADAMARD, outputs=(1, 0))},
                {0: MeasureSpec(qcore.PHI, gates=(qcore.H, qcore.S)), 1: MeasureSpec(qcore.COMPUTATIONAL, gates=(qcore.X,))},
            ),
        )
        probs = outcome_tensor(strategy)
        for inputs in itertools.product((0, 1), repeat=2):
            want = cascade_distribution(strategy, inputs)
            for outputs in itertools.product((0, 1), repeat=2):
                assert abs(probs[inputs + outputs] - want.get(outputs, 0.0)) <= 1e-12

    @pytest.mark.parametrize("game", list(GameId))
    def test_deterministic_tensor_is_one_hot_of_tables(self, game):
        for strategy in itertools.islice(enumerate_deterministic(game), 5, None, 7):
            for inputs in itertools.product((0, 1), repeat=ARITY[game][0]):
                assert branch_distribution(strategy, inputs) == {table_outputs(strategy, inputs): 1.0}

    def test_mixture_is_weighted_sum(self):
        a, b = list(enumerate_deterministic(GameId.GAME_G2))[3:5]
        mix = ClassicalStrategy(GameId.GAME_G2, mixture=((0.25, a), (0.75, b)))
        assert np.allclose(outcome_tensor(mix), 0.25 * outcome_tensor(a) + 0.75 * outcome_tensor(b), atol=0)

    def test_bad_inputs_rejected(self):
        strategy = paper_strategy(GameId.CHSH)
        for inputs in ((0, 0, 0), (0, 2), (-1, 0)):
            with pytest.raises(ArityMismatch):
                branch_distribution(strategy, inputs)

    def test_outputs_must_relabel_both_outcomes(self):
        with pytest.raises(ArityMismatch):
            MeasureSpec(qcore.PSI, outputs=(0, 0))

    def test_strategy_shape_must_fit_game(self):
        entangled = paper_strategy(GameId.CHSH)
        with pytest.raises(ArityMismatch):
            wrong = QuantumStrategy(GameId.GAME_G2, shared_state=entangled.shared_state, party_rules=entangled.party_rules)
            exact_score(GameId.GAME_G2, wrong)


class TestClassicalStrategies:
    def test_always_zero_loses_on_11(self):
        strategy = ClassicalStrategy(GameId.CHSH, tables=((0, 0), (0, 0)))
        outputs = branch_distribution(strategy, (1, 1))
        assert outputs == {(0, 0): 1.0}
        assert not winning_predicate(GameId.CHSH, RoundIO((1, 1), (0, 0)))

    def test_always_zero_chsh_score(self):
        strategy = ClassicalStrategy(GameId.CHSH, tables=((0, 0), (0, 0)))
        assert exact_score(GameId.CHSH, strategy).value == pytest.approx(0.75, abs=1e-15)

    def test_mixture_scores_average(self):
        zeros = ClassicalStrategy(GameId.CHSH, tables=((0, 0), (0, 0)))
        worst = ClassicalStrategy(GameId.CHSH, tables=((0, 1), (1, 0)))
        s_zeros = exact_score(GameId.CHSH, zeros).value
        s_worst = exact_score(GameId.CHSH, worst).value
        mix = ClassicalStrategy(GameId.CHSH, mixture=((0.25, zeros), (0.75, worst)))
        expected = 0.25 * s_zeros + 0.75 * s_worst
        assert exact_score(GameId.CHSH, mix).value == pytest.approx(expected, abs=1e-12)

    def test_mixture_weight_validation(self):
        zeros = ClassicalStrategy(GameId.CHSH, tables=((0, 0), (0, 0)))
        with pytest.raises(BadDistribution):
            ClassicalStrategy(GameId.CHSH, mixture=((0.5, zeros), (0.6, zeros)))
        with pytest.raises(BadDistribution):
            ClassicalStrategy(GameId.CHSH, mixture=((-0.5, zeros), (1.5, zeros)))
        with pytest.raises(BadDistribution):
            ClassicalStrategy(GameId.CHSH, mixture=(("a", zeros),))
        with pytest.raises(BadDistribution):
            ClassicalStrategy(GameId.CHSH, mixture=((None, zeros), (1.0, zeros)))

    @pytest.mark.parametrize("game", ["chsh", None, 0])
    def test_strategy_game_must_be_a_game_id(self, game):
        with pytest.raises(ArityMismatch, match="unknown game"):
            ClassicalStrategy(game, tables=((0, 0), (0, 0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mixture_weights_rejected(self, bad):
        zeros = ClassicalStrategy(GameId.CHSH, tables=((0, 0), (0, 0)))
        ones = ClassicalStrategy(GameId.CHSH, tables=((1, 1), (1, 1)))
        with pytest.raises(BadDistribution):
            ClassicalStrategy(GameId.CHSH, mixture=((bad, zeros), (1.0, ones)))
        mix = ClassicalStrategy(GameId.CHSH, mixture=((0.3, zeros), (0.7, ones)))
        with pytest.raises(BadDistribution):
            mix.renormalized(bad)

    def test_argmax_invariance_under_renormalization(self):
        zeros = ClassicalStrategy(GameId.CHSH, tables=((0, 0), (0, 0)))
        ones = ClassicalStrategy(GameId.CHSH, tables=((1, 1), (1, 1)))
        mix = ClassicalStrategy(GameId.CHSH, mixture=((0.3, zeros), (0.7, ones)))
        rescaled = mix.renormalized(7.3)
        before = exact_score(GameId.CHSH, mix).value
        after = exact_score(GameId.CHSH, rescaled).value
        assert abs(before - after) <= 1e-12

    def test_table_shape_validation(self):
        with pytest.raises(ArityMismatch):
            ClassicalStrategy(GameId.CHSH, tables=((0, 0, 0), (0, 0)))
        with pytest.raises(ArityMismatch, match="table entries must be bits"):
            ClassicalStrategy(GameId.CHSH, tables=((0, 2), (0, 0)))

    def test_tables_or_mixture_exactly_one(self):
        zeros = ClassicalStrategy(GameId.CHSH, tables=((0, 0), (0, 0)))
        with pytest.raises(ValueError, match="exactly one of tables or mixture"):
            ClassicalStrategy(GameId.CHSH)
        with pytest.raises(ValueError, match="exactly one of tables or mixture"):
            ClassicalStrategy(GameId.CHSH, tables=zeros.tables, mixture=((1.0, zeros),))

    def test_mixture_components_play_its_game(self):
        chsh1 = ClassicalStrategy(GameId.CHSH1, tables=((0, 0), (0, 0)))
        with pytest.raises(ArityMismatch, match="mixture components must play the same game"):
            ClassicalStrategy(GameId.CHSH, mixture=((1.0, chsh1),))

    def test_deterministic_strategy_renormalizes_to_itself(self):
        zeros = ClassicalStrategy(GameId.CHSH, tables=((0, 0), (0, 0)))
        assert zeros.renormalized(7.3) is zeros


class TestBestClassical:
    @pytest.mark.parametrize(
        "game,expected,count",
        [
            (GameId.CHSH, 0.75, 16),
            (GameId.CHSH1, 0.75, 16),
            (GameId.GAME_G, 0.75, 64),
            (GameId.PSEUDO_TELEPATHY3, 0.75, 64),
            (GameId.TAVAKOLI, 0.75, 256),
        ],
    )
    def test_maxima(self, game, expected, count):
        assert sum(1 for _ in enumerate_deterministic(game)) == count
        score, argmax = best_classical(game)
        assert score == expected
        assert exact_score(game, argmax).value == expected

    def test_pt3_matches_closed_form(self):
        score, _ = best_classical(GameId.PSEUDO_TELEPATHY3)
        assert score == 0.5 + 2.0 ** (-math.ceil(3 / 2))

    def test_tavakoli_against_independent_enumeration(self):
        # plain nested-loop oracle, no strategy machinery
        best = 0.0
        for prep in itertools.product((0, 1), repeat=4):
            for meas in itertools.product((0, 1), repeat=4):
                hits = 0
                for x0, x1, y in itertools.product((0, 1), repeat=3):
                    m = prep[2 * x0 + x1]
                    b = meas[2 * m + y]
                    hits += b == (x0, x1)[y]
                best = max(best, hits / 8)
        assert best == 0.75
        assert best_classical(GameId.TAVAKOLI)[0] == best

    def test_g2_frontier(self):
        frontier = g2_deterministic_frontier()
        assert len(frontier) == 256
        pairs = {(even, odd) for even, odd, _ in frontier}
        # no deterministic strategy attains the honest-quantum signature
        assert (1.0, 0.5) not in pairs
        perfect_even_odds = {odd for even, odd, _ in frontier if even == 1.0}
        assert perfect_even_odds == {0.0, 1.0}

    def test_g2_max_augmented_is_cheat(self):
        score, argmax = best_classical(GameId.GAME_G2)
        assert score == 1.0
        scores = exact_score(GameId.GAME_G2, argmax)
        assert scores.even_win.value == 1.0
        assert scores.odd_guess.value in (0.0, 1.0)

    def test_perfect_even_mixture_mimics_honest_signature(self):
        # an equal mixture of the two perfect-even families scores (1, 0.5):
        # statistically indistinguishable from the honest devices even though
        # each component is deterministic (recorded as data, not adjudicated)
        family_a = ClassicalStrategy(GameId.GAME_G2, tables=((0, 1, 0, 1), (0, 0, 1, 1)))
        family_b = ClassicalStrategy(GameId.GAME_G2, tables=((0, 0, 1, 1), (0, 1, 1, 0)))
        assert exact_score(GameId.GAME_G2, family_a).odd_guess.value == 1.0
        assert exact_score(GameId.GAME_G2, family_b).odd_guess.value == 0.0
        mix = ClassicalStrategy(GameId.GAME_G2, mixture=((0.5, family_a), (0.5, family_b)))
        scores = exact_score(GameId.GAME_G2, mix)
        assert scores.even_win.value == 1.0
        assert abs(scores.odd_guess.value - 0.5) <= 1e-12
        assert abs(scores.augmented.value - 0.75) <= 1e-12

    def test_argmax_is_lexicographically_first(self):
        _, argmax = best_classical(GameId.CHSH)
        assert argmax.tables == ((0, 0), (0, 0))

    @pytest.mark.parametrize("game", list(GameId))
    def test_argmax_is_first_predicate_maximum(self, game):
        counts = [sum(predicate_wins(s).values()) for s in enumerate_deterministic(game)]
        first = counts.index(max(counts))
        score, argmax = best_classical(game)
        assert score == max(counts) / len(input_space(game))
        assert argmax.tables == list(enumerate_deterministic(game))[first].tables

    def test_g2_frontier_order_and_values(self):
        frontier = g2_deterministic_frontier()
        for (even, odd, strategy), want in zip(frontier, enumerate_deterministic(GameId.GAME_G2), strict=True):
            wins = predicate_wins(want)
            assert strategy.tables == want.tables
            assert even == sum(w for x, w in wins.items() if sum(x) % 2 == 0) / 4
            assert odd == sum(w for x, w in wins.items() if sum(x) % 2 == 1) / 4


class TestSampling:
    def test_ghz_parity_every_round(self):
        strategy = paper_strategy(GameId.PSEUDO_TELEPATHY3)
        rng = np.random.default_rng(123)
        sampler = RoundSampler(GameId.PSEUDO_TELEPATHY3, strategy)
        for inputs in input_space(GameId.PSEUDO_TELEPATHY3):
            for _ in range(200):
                io = sampler.sample(inputs, rng)
                assert sum(io.outputs) % 2 == (sum(inputs) // 2) % 2

    def test_tavakoli_frequency(self):
        strategy = paper_strategy(GameId.TAVAKOLI)
        rng = np.random.default_rng(2024)
        sampler = RoundSampler(GameId.TAVAKOLI, strategy)
        hits = sum(
            sampler.sample((0, 0, 0), rng).outputs[0] == 0 for _ in range(100_000)
        )
        assert abs(hits / 100_000 - QWIN) < 0.01

    def test_classical_lookup(self):
        strategy = ClassicalStrategy(GameId.CHSH, tables=((0, 0), (0, 0)))
        io = sample_round(GameId.CHSH, strategy, (1, 1), np.random.default_rng(0))
        assert io.outputs == (0, 0)

    def test_sample_round_deterministic_given_stream(self):
        strategy = paper_strategy(GameId.CHSH)
        a = sample_round(GameId.CHSH, strategy, (0, 1), np.random.default_rng(99))
        b = sample_round(GameId.CHSH, strategy, (0, 1), np.random.default_rng(99))
        assert a == b

    def test_draw_at_end_of_row_keeps_forced_bit(self):
        class LastDraw(np.random.Generator):
            def __init__(self):
                super().__init__(np.random.PCG64())

            def random(self):
                return 1.0 - 2.0 ** -53

        sampler = RoundSampler(GameId.GAME_G2, paper_strategy(GameId.GAME_G2))
        forced = {(0, 0, 0): 0, (0, 1, 1): 1, (1, 0, 1): 0, (1, 1, 0): 1}
        for inputs, bit in forced.items():
            assert sampler.sample(inputs, LastDraw()).outputs == (bit,)
        # three components that all answer (0, 0): the row's mass 0.7 + 0.2 + 0.1 rounds to
        # 1 - 2**-53, so the last draw runs off the CDF, past three zero-probability outputs
        zeros = [s for s in enumerate_deterministic(GameId.CHSH) if s.tables[0][0] == s.tables[1][0] == 0][:3]
        mix = ClassicalStrategy(GameId.CHSH, mixture=tuple(zip((0.7, 0.2, 0.1), zeros)))
        assert RoundSampler(GameId.CHSH, mix).sample((0, 0), LastDraw()).outputs == (0, 0)

    def test_invalid_inputs_rejected(self):
        sampler = RoundSampler(GameId.PSEUDO_TELEPATHY3, paper_strategy(GameId.PSEUDO_TELEPATHY3))
        with pytest.raises(BadInput):
            sampler.sample((0, 0, 1), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "game",
        [GameId.CHSH, GameId.CHSH1, GameId.GAME_G, GameId.TAVAKOLI, GameId.PSEUDO_TELEPATHY3],
    )
    def test_monte_carlo_matches_exact(self, game):
        strategy = paper_strategy(game)
        exact = exact_score(game, strategy).value
        sampler = RoundSampler(game, strategy)
        n = 100_000
        rounds = sampler.sample_many(n, np.random.default_rng(hash(game.value) % 2**32))
        wins = sum(winning_predicate(game, io) for io in rounds)
        tol = 4 * math.sqrt(exact * (1 - exact) / n)
        assert abs(wins / n - exact) <= tol

    def test_monte_carlo_g2(self):
        strategy = paper_strategy(GameId.GAME_G2)
        sampler = RoundSampler(GameId.GAME_G2, strategy)
        rounds = sampler.sample_many(100_000, np.random.default_rng(31))
        even = [r for r in rounds if sum(r.inputs) % 2 == 0]
        odd = [r for r in rounds if sum(r.inputs) % 2 == 1]
        assert all(winning_predicate(GameId.GAME_G2, r) for r in even)
        odd_rate = sum(r.outputs[0] == r.inputs[1] for r in odd) / len(odd)
        assert abs(odd_rate - 0.5) <= 4 * math.sqrt(0.25 / len(odd))


class TestEquivalence:
    @pytest.mark.parametrize("pair", list(EquivalencePair))
    def test_all_assertions_pass(self, pair):
        report = equivalence_check(pair)
        failed = [a.name for a in report.assertions if not a.passed]
        assert report.passed, f"failed assertions: {failed}"

    def test_bob_state_conditioned_on_x0_is_one_for_10(self):
        report = equivalence_check(EquivalencePair.G_VS_TAVAKOLI)
        by_name = {a.name: a for a in report.assertions}
        assert by_name["bob_state_x10"].observed >= 1 - 1e-9

    def test_a2_state_for_11_is_minus(self):
        report = equivalence_check(EquivalencePair.G1_VS_G2)
        by_name = {a.name: a for a in report.assertions}
        assert by_name["a2_state_x11"].observed >= 1 - 1e-9
        assert abs(by_name["even_score"].observed - 1.0) <= 1e-12
        assert abs(by_name["odd_score"].observed - 0.5) <= 1e-12

    def test_chsh1_and_g_agree(self):
        report = equivalence_check(EquivalencePair.G_VS_CHSH1)
        by_name = {a.name: a for a in report.assertions}
        assert abs(by_name["total_score"].observed - QWIN) <= 1e-12
