"""Device pairs, protocol runners, binning, certification, guessing bounds."""

import copy
import math
import pickle

import numpy as np
import pytest

from diqrng import analysis, games, protocols, qcore, stream
from diqrng.errors import (
    ArityMismatch,
    BadDistribution,
    BadInput,
    DeviceArityMismatch,
    DiqrngError,
    InsufficientRounds,
    UnknownKind,
)
from diqrng.games import ClassicalStrategy, GameId, MeasureSpec, RoundColumns, enumerate_deterministic, paper_strategy
from diqrng.protocols import (
    A_STAR,
    AUGMENTED_CHSH_SCORE,
    BinStore,
    CertificationVerdict,
    DevicePair,
    ProtocolConfig,
    adversarial_devices,
    classical_pair_from_strategy,
    guessing_game_bound_check,
    honest_devices,
    run_protocol,
)


def conditions_by_name(verdict):
    return {c.name: c for c in verdict.conditions}


def qcore_response_table(protocol, preparation=None):
    """Pr[b = 1] as [x, setting] from qcore: each preparation through its setting's gates, then its basis."""
    strategy = paper_strategy(GameId.TAVAKOLI if protocol == "P" else GameId.GAME_G2)
    preparation = strategy.preparation if preparation is None else preparation
    specs = dict(strategy.measurement)
    if protocol == "P":
        specs[2] = MeasureSpec(qcore.HADAMARD)
    table = np.zeros((4, len(specs)))
    for x in range(4):
        for setting, spec in specs.items():
            state = preparation[(x >> 1, x & 1)]
            for gate in spec.gates:
                state = qcore.apply_gate(state, gate, 0)
            table[x, setting] = qcore.outcome_distribution(state, spec.basis, 0)[spec.outputs.index(1)]
    return table


# Every public call that takes a game, a protocol, an equivalence pair or a device kind; ``ProtocolConfig``
# raises ValueError instead (``test_config_validation``).
_CHSH = paper_strategy(GameId.CHSH)
NAMED_CALLS = {
    "input_space": games.input_space,
    "winning_predicate": lambda name: games.winning_predicate(name, games.RoundIO((0, 0), (0, 0))),
    "win_mask": games.win_mask,
    "mass_score": lambda name: games.mass_score(name, np.ones((2, 2, 2, 2))),
    "best_classical": games.best_classical,
    "enumerate_deterministic": lambda name: list(games.enumerate_deterministic(name)),
    "paper_strategy": games.paper_strategy,
    "ClassicalStrategy": lambda name: ClassicalStrategy(name, tables=((0, 0), (0, 0))),
    "exact_score": lambda name: games.exact_score(name, _CHSH),
    "RoundSampler": lambda name: games.RoundSampler(name, _CHSH),
    "sample_round": lambda name: games.sample_round(name, _CHSH, (0, 0), np.random.default_rng(0)),
    "equivalence_check": games.equivalence_check,
    "DevicePair": lambda name: DevicePair(np.full((1, 4, 3), 0.5), protocol=name),
    "DevicePair.response_table": lambda name: DevicePair(np.full((1, 4, 3), 0.5)).response_table(name),
    "honest_devices": honest_devices,
    "classical_pair_from_strategy": lambda name: classical_pair_from_strategy(
        next(enumerate_deterministic(GameId.TAVAKOLI)), name
    ),
    "adversarial_devices": adversarial_devices,
}


# a game's value, an equivalence pair's value and a name of nothing, each in place of the enum or name it needs
@pytest.mark.parametrize("name", ["chsh", "g-vs-chsh1", "R"])
@pytest.mark.parametrize("call", list(NAMED_CALLS))
def test_unknown_names_raise_package_errors(call, name):
    with pytest.raises(DiqrngError):
        NAMED_CALLS[call](name)


_Q_CONFIG = ProtocolConfig("Q", 200, seed=1)
_CHSH_RULES = _CHSH.party_rules
_TAVAKOLI = paper_strategy(GameId.TAVAKOLI)
# Public calls given one argument of the wrong kind: (call, the argument's name).  Each must raise a package
# error, or a ValueError or TypeError that names the argument.
WRONG_KIND_CALLS = {
    "QuantumStrategy game": (lambda: games.QuantumStrategy("chsh"), "game"),
    "QuantumStrategy no fields": (lambda: games.QuantumStrategy(GameId.CHSH), "shared_state"),
    "QuantumStrategy qubits": (
        lambda: games.QuantumStrategy(GameId.CHSH, shared_state=qcore.GHZ3, party_rules=_CHSH_RULES), "shared_state"
    ),
    "QuantumStrategy rule keys": (
        lambda: games.QuantumStrategy(GameId.GAME_G, shared_state=qcore.BELL_PHI_PLUS, party_rules=_CHSH_RULES),
        "party_rules",
    ),
    "QuantumStrategy fields of the other kind": (
        lambda: games.QuantumStrategy(GameId.GAME_G2, shared_state=qcore.BELL_PHI_PLUS, party_rules=_CHSH_RULES),
        "preparation",
    ),
    "QuantumStrategy preparations": (
        lambda: games.QuantumStrategy(
            GameId.TAVAKOLI, preparation={(0, 0): qcore.KET_PLUS}, measurement=_TAVAKOLI.measurement
        ),
        "preparation",
    ),
    "QuantumStrategy two-qubit preparation": (
        lambda: games.QuantumStrategy(
            GameId.TAVAKOLI, preparation=dict.fromkeys(_TAVAKOLI.preparation, qcore.BELL_PHI_PLUS),
            measurement=_TAVAKOLI.measurement,
        ),
        "preparation",
    ),
    "QuantumStrategy settings": (
        lambda: games.QuantumStrategy(GameId.TAVAKOLI, preparation=_TAVAKOLI.preparation, measurement={0: None}),
        "measurement",
    ),
    "MeasureSpec basis": (lambda: MeasureSpec("x"), "basis"),
    "MeasureSpec gates": (lambda: MeasureSpec(qcore.PSI, gates=[qcore.H]), "gates"),
    "ClassicalStrategy mixture component": (lambda: ClassicalStrategy(GameId.CHSH, mixture=((1.0, None),)), "mixture"),
    "exact_score strategy": (lambda: games.exact_score(GameId.CHSH, "x"), "strategy"),
    "exact_score input_distribution": (lambda: games.exact_score(GameId.CHSH, _CHSH, "x"), "input_distribution"),
    "RoundSampler strategy": (lambda: games.RoundSampler(GameId.CHSH, "x"), "strategy"),
    "RoundSampler.sample rng": (lambda: games.RoundSampler(GameId.CHSH, _CHSH).sample((0, 0), None), "rng"),
    "RoundSampler.tally rng": (lambda: games.RoundSampler(GameId.CHSH, _CHSH).tally(3, None), "rng"),
    "RoundSampler.sample_many rng": (lambda: games.RoundSampler(GameId.CHSH, _CHSH).sample_many(3, None), "rng"),
    "sample_round rng": (lambda: games.sample_round(GameId.CHSH, _CHSH, (0, 0), None), "rng"),
    "classical_pair_from_strategy strategy": (lambda: classical_pair_from_strategy(None, "P"), "strategy"),
    "run_protocol devices": (lambda: run_protocol(_Q_CONFIG, None), "devices"),
    "run_protocol config": (lambda: run_protocol(None, honest_devices("Q")), "config"),
    "guessing_game_bound_check rng": (lambda: guessing_game_bound_check(10, None), "rng"),
    "wilson_interval confidence": (lambda: analysis.wilson_interval(1, 2, "x"), "confidence"),
    "hoeffding_radius delta": (lambda: analysis.hoeffding_radius("x", 2), "delta"),
    "statistic_A confidence": (lambda: analysis.statistic_A(np.ones((4, 2, 2), dtype=np.int64), "x"), "confidence"),
    # a float tally was truncated: 10.7 rounds in every cell certified as 42 even wins of 85
    "certify float tally": (lambda: protocols.certify(_Q_CONFIG, np.full((4, 2, 2), 10.7)), "tally"),
    "certify negative tally": (lambda: protocols.certify(_Q_CONFIG, np.full((4, 2, 2), -1)), "tally"),
    "certify config": (lambda: protocols.certify(None, np.ones((4, 2, 2), dtype=np.int64)), "config"),
    # a legacy RandomState has a random method but not the Generator methods a draw needs
    "guessing_game_bound_check RandomState": (lambda: guessing_game_bound_check(10, np.random.RandomState(0)), "rng"),
    "RoundSampler.tally RandomState": (
        lambda: games.RoundSampler(GameId.CHSH, _CHSH).tally(3, np.random.RandomState(0)), "rng"
    ),
    "RoundSampler.sample RandomState": (
        lambda: games.RoundSampler(GameId.CHSH, _CHSH).sample((0, 0), np.random.RandomState(0)), "rng"
    ),
    "outcome_tensor strategy": (lambda: games.outcome_tensor("x"), "strategy"),
    "branch_distribution strategy": (lambda: games.branch_distribution("x", (0, 0)), "strategy"),
    "pt3_odd_extension_score strategy": (lambda: games.pt3_odd_extension_score("x"), "strategy"),
    "winning_predicate io": (lambda: games.winning_predicate(GameId.CHSH, None), "io"),
    "mass_score mass": (lambda: games.mass_score(GameId.CHSH, "x"), "mass"),
    "ClassicalStrategy.renormalized factor": (
        lambda: ClassicalStrategy(GameId.CHSH, mixture=((1.0, next(enumerate_deterministic(GameId.CHSH))),)).renormalized("2"),
        "factor",
    ),
    "wilson_interval count": (lambda: analysis.wilson_interval("1", 2, 0.9), "count"),
    "wilson_interval trials": (lambda: analysis.wilson_interval(1, "2", 0.9), "trials"),
    "hoeffding_radius trials": (lambda: analysis.hoeffding_radius(0.1, "2"), "trials"),
    "certify odd_hits": (lambda: protocols.certify(_Q_CONFIG, np.ones((4, 2, 2), dtype=np.int64), "1", 2), "odd_hits"),
    "certify test_len": (lambda: protocols.certify(_Q_CONFIG, np.ones((4, 2, 2), dtype=np.int64), 1, "2"), "test_len"),
    # an unhashable name is as unknown as any other, not a TypeError from a cache or a dict lookup
    "win_mask list": (lambda: games.win_mask([0]), "game"),
    "honest_devices list": (lambda: honest_devices([1]), "protocol"),
    "adversarial_devices list": (lambda: adversarial_devices([1]), "kind"),
    "DevicePair.response_table list": (lambda: DevicePair(np.full((1, 4, 3), 0.5)).response_table([1]), "protocol"),
    "apply_gate state": (lambda: qcore.apply_gate("x", qcore.H, 0), "state"),
    "apply_gate gate": (lambda: qcore.apply_gate(qcore.KET_ZERO, "x", 0), "gate"),
    "overlap a": (lambda: qcore.overlap("x", qcore.KET_ZERO), "a and b"),
    "overlap b": (lambda: qcore.overlap(qcore.KET_ZERO, "x"), "a and b"),
    "collapse basis": (lambda: qcore.collapse(qcore.KET_ZERO, "x", 0, 0), "basis"),
    "outcome_distribution target": (lambda: qcore.outcome_distribution(qcore.KET_ZERO, qcore.PSI, "x"), "target"),
    "measurement_branches basis": (lambda: qcore.measurement_branches(qcore.KET_ZERO, None, 0), "basis"),
    "measure randomness": (lambda: qcore.measure(qcore.KET_ZERO, qcore.PSI, 0, "x"), "randomness"),
    "make_state int": (lambda: qcore.make_state(5), "amplitudes"),
    "make_state str": (lambda: qcore.make_state("x"), "amplitudes"),
    "make_state str amplitude": (lambda: qcore.make_state({"0": "x"}), "amplitudes"),
    "make_state int label": (lambda: qcore.make_state({0: 1}), "amplitudes"),
    "PureState amplitudes": (lambda: qcore.PureState("x"), "amplitudes"),
    "Gate1Q matrix": (lambda: qcore.Gate1Q("g", "x"), "matrix"),
    "QubitBasis v0": (lambda: qcore.QubitBasis("b", 1, 2), "v0"),
    "QubitBasis v1": (lambda: qcore.QubitBasis("b", qcore.KET_ZERO, 2), "v1"),
    "collapse float outcome": (lambda: qcore.collapse(qcore.GHZ3, qcore.PSI, 0, 1.0), "outcome"),
    "MeasureSpec outputs None": (lambda: MeasureSpec(qcore.PSI, outputs=None), "outputs"),
    # a list field leaves the frozen record unhashable
    "MeasureSpec outputs list": (lambda: MeasureSpec(qcore.PSI, outputs=[1, 0]), "outputs"),
    # bools pass as 0 and 1 but index numpy arrays as masks
    "MeasureSpec outputs bools": (lambda: MeasureSpec(qcore.PSI, outputs=(True, False)), "outputs"),
    "ClassicalStrategy table bools": (lambda: ClassicalStrategy(GameId.CHSH, tables=((True, False), (0, 0))), "tables"),
    "ClassicalStrategy table floats": (lambda: ClassicalStrategy(GameId.CHSH, tables=((0.0, 1.0), (0, 0))), "tables"),
    "ClassicalStrategy tables list": (lambda: ClassicalStrategy(GameId.CHSH, tables=[[0, 0], [0, 0]]), "tables"),
    "ClassicalStrategy tables int": (lambda: ClassicalStrategy(GameId.CHSH, tables=5), "tables"),
    "ClassicalStrategy mixture int": (lambda: ClassicalStrategy(GameId.CHSH, mixture=5), "mixture"),
    "ClassicalStrategy mixture entry": (lambda: ClassicalStrategy(GameId.CHSH, mixture=((1.0,),)), "mixture"),
    # a bool input tuple read as a mask gave an empty distribution
    "branch_distribution bool inputs": (lambda: games.branch_distribution(_CHSH, (True, False)), "inputs"),
    # a float input failed with a TypeError from `&`, and a bool input was scored
    "winning_predicate float input": (lambda: games.winning_predicate(GameId.CHSH, games.RoundIO((1.0, 1), (0, 1))), "io"),
    "winning_predicate bool input": (lambda: games.winning_predicate(GameId.CHSH, games.RoundIO((True, 1), (0, 1))), "io"),
    # bool and float inputs were sampled and echoed back in the round
    "RoundSampler.sample bool inputs": (
        lambda: games.RoundSampler(GameId.CHSH, _CHSH).sample((True, False), np.random.default_rng(0)), "inputs"
    ),
    "RoundSampler.sample float inputs": (
        lambda: games.RoundSampler(GameId.CHSH, _CHSH).sample((1.0, 0.0), np.random.default_rng(0)), "inputs"
    ),
    "sample_round bool inputs": (
        lambda: games.sample_round(GameId.CHSH, _CHSH, (True, False), np.random.default_rng(0)), "inputs"
    ),
    "sample_round float inputs": (
        lambda: games.sample_round(GameId.CHSH, _CHSH, (1.0, 0.0), np.random.default_rng(0)), "inputs"
    ),
    "GameScore value": (lambda: games.GameScore("x", games.ScoreKind.AUGMENTED), "value"),
    "GameScore kind": (lambda: games.GameScore(0.5, "x"), "kind"),
    "RoundColumns inputs": (lambda: RoundColumns("x", "y"), "inputs"),
    "RoundColumns outputs": (lambda: RoundColumns(np.zeros((1, 2), dtype=np.int8), "y"), "outputs"),
    "DevicePair coin_per_round": (lambda: DevicePair(np.full((1, 4, 3), 0.5), coin_per_round="x"), "coin_per_round"),
    "DevicePair caveat": (lambda: DevicePair(np.full((1, 4, 3), 0.5), caveat=5), "caveat"),
    # a truthy string ran a per-round coin
    "adversarial_devices coin_per_round": (
        lambda: adversarial_devices("input_guesser", coin_per_round="no"), "coin_per_round"
    ),
    "CertificationVerdict conditions": (lambda: CertificationVerdict("ABORT", [], []), "conditions"),
    "CertificationVerdict notes": (lambda: CertificationVerdict("ABORT", (), [], notes=5), "notes"),
    # "n" alone is in the comparison errors these raised, so the rows name the check's own words
    "PackedBits.drop str": (lambda: stream.PackedBits([1, 0]).drop("x"), "n must be an integer"),
    "PackedBits.drop float": (lambda: stream.PackedBits([1, 0]).drop(1.5), "n must be an integer"),
    "PackedBits.drop bool": (lambda: stream.PackedBits([1, 0]).drop(True), "n must be an integer"),
    "born_weights weights": (lambda: qcore.born_weights([0.5, 0.5], 0), "weights"),
    "randomness_battery significance": (
        lambda: analysis.randomness_battery(np.zeros(1_000, dtype=np.uint8), significance="x"), "significance"
    ),
}

# Public calls given one argument outside its range or set, or of a kind that failed with an unrelated error:
# (call, the argument's name).  Each must raise a ValueError that names the argument.
_UNSATISFIED = protocols.ConditionCheck("even_win", 0.0, (0.0, 0.0), 1.0, False, {})
VALUE_ERROR_CALLS = {
    # numpy read a bool index as a mask, and the run raised BadDimension for the state's shape
    "collapse bool outcome": (lambda: qcore.collapse(qcore.GHZ3, qcore.PSI, 0, True), "outcome"),
    "certify test_len": (lambda: protocols.certify(_Q_CONFIG, np.ones((4, 2, 2), dtype=np.int64), 0, -2), "test_len"),
    "certify odd_hits": (lambda: protocols.certify(_Q_CONFIG, np.ones((4, 2, 2), dtype=np.int64), -1, 2), "odd_hits"),
    # monobit passed on 1,000 zero bits at a significance of 0 or below, and every test fails above 1
    "randomness_battery significance 0": (
        lambda: analysis.randomness_battery(np.zeros(1_000, dtype=np.uint8), significance=0), "significance"
    ),
    "randomness_battery significance -1": (
        lambda: analysis.randomness_battery(np.zeros(1_000, dtype=np.uint8), significance=-1), "significance"
    ),
    "randomness_battery significance 2": (
        lambda: analysis.randomness_battery(np.zeros(1_000, dtype=np.uint8), significance=2), "significance"
    ),
    "CertificationVerdict decision": (lambda: CertificationVerdict("MAYBE", (), []), "decision"),
    "CertificationVerdict PASS unsatisfied": (lambda: CertificationVerdict("PASS", (_UNSATISFIED,), []), "conditions"),
}


@pytest.mark.parametrize("call", list(WRONG_KIND_CALLS))
def test_wrong_kind_arguments_raise_package_errors_or_name_the_argument(call):
    make, argument = WRONG_KIND_CALLS[call]
    with pytest.raises((DiqrngError, ValueError, TypeError)) as err:
        make()
    assert isinstance(err.value, DiqrngError) or argument in str(err.value), str(err.value)
    if call.startswith(("QuantumStrategy", "MeasureSpec")):
        assert isinstance(err.value, ArityMismatch)


@pytest.mark.parametrize("call", list(VALUE_ERROR_CALLS))
def test_values_out_of_range_raise_value_errors_that_name_them(call):
    make, argument = VALUE_ERROR_CALLS[call]
    with pytest.raises(ValueError) as err:
        make()
    assert argument in str(err.value), str(err.value)


# Each call that takes bits from its caller, given one value x in place of a bit, and the error it raises for a
# value that is not the integer 0 or 1.  Every one of them tests it with ``stream.is_bit``.
BIT_SITES = {
    "winning_predicate": (lambda x: games.winning_predicate(GameId.CHSH, games.RoundIO((x, 0), (0, 1))), ArityMismatch),
    "winning_predicate output": (
        lambda x: games.winning_predicate(GameId.CHSH, games.RoundIO((0, 0), (x, 1))), ArityMismatch
    ),
    "RoundSampler.sample": (
        lambda x: games.RoundSampler(GameId.CHSH, _CHSH).sample((x, 0), np.random.default_rng(0)), BadInput
    ),
    "sample_round": (lambda x: games.sample_round(GameId.CHSH, _CHSH, (x, 0), np.random.default_rng(0)), BadInput),
    "branch_distribution": (lambda x: games.branch_distribution(_CHSH, (x, 0)), ArityMismatch),
    "MeasureSpec outputs": (lambda x: MeasureSpec(qcore.PSI, outputs=(x, 0)), ArityMismatch),
    "ClassicalStrategy tables": (lambda x: ClassicalStrategy(GameId.CHSH, tables=((x, 0), (0, 0))), ArityMismatch),
    "collapse": (lambda x: qcore.collapse(qcore.KET_PLUS, qcore.COMPUTATIONAL, 0, x), ValueError),
}


@pytest.mark.parametrize("value", [True, np.bool_(True), 1.0, np.float64(0.0), 2, -1, "1", None])
@pytest.mark.parametrize("site", list(BIT_SITES))
def test_every_bit_site_refuses_what_is_not_an_integer_bit(site, value):
    call, error = BIT_SITES[site]
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("site", list(BIT_SITES))
def test_every_bit_site_takes_a_numpy_integer_bit(site):
    result = BIT_SITES[site][0](np.int64(1))
    if isinstance(result, games.RoundIO):
        # the sampled round holds plain ints, not the caller's values
        assert result.inputs == (1, 0) and [type(v) for v in result.inputs + result.outputs] == [int] * 4
    if site.startswith("winning_predicate"):
        assert type(result) is bool


# Each call that takes a whole round's inputs (or outputs) from its caller, given a value x in their place, and the
# error it raises when x is not an iterable of bits.  Each reads them with ``games._bits``.
ROUND_SITES = {
    "winning_predicate": (lambda x: games.winning_predicate(GameId.CHSH, games.RoundIO(x, (0, 1))), ArityMismatch),
    "winning_predicate outputs": (
        lambda x: games.winning_predicate(GameId.CHSH, games.RoundIO((0, 0), x)), ArityMismatch
    ),
    "RoundSampler.sample": (
        lambda x: games.RoundSampler(GameId.CHSH, _CHSH).sample(x, np.random.default_rng(0)), BadInput
    ),
    "sample_round": (lambda x: games.sample_round(GameId.CHSH, _CHSH, x, np.random.default_rng(0)), BadInput),
    "branch_distribution": (lambda x: games.branch_distribution(_CHSH, x), ArityMismatch),
}


@pytest.mark.parametrize("value", [5, None])
@pytest.mark.parametrize("site", list(ROUND_SITES))
def test_every_round_site_refuses_what_is_not_its_bits(site, value):
    call, error = ROUND_SITES[site]
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("site", list(ROUND_SITES))
def test_every_round_site_takes_a_list(site):
    result = ROUND_SITES[site][0]([np.int64(1), 0])
    if site.startswith("winning_predicate"):
        assert type(result) is bool
    elif isinstance(result, games.RoundIO):
        assert result.inputs == (1, 0) and [type(v) for v in result.inputs] == [int] * 2


@pytest.mark.parametrize("record", [paper_strategy(GameId.CHSH), CertificationVerdict("ABORT", (), [])])
def test_records_with_unhashable_fields_are_declared_unhashable(record):
    with pytest.raises(TypeError, match=f"unhashable type: '{type(record).__name__}'"):
        hash(record)
    assert record == copy.copy(record)


def test_strategy_records_built_as_documented_hash():
    # their fields are tuples, so a frozen record hashes, and equal records hash alike
    zeros, ones = list(enumerate_deterministic(GameId.CHSH))[:2]
    records = [
        MeasureSpec(qcore.PHI, gates=(qcore.H,), outputs=(1, 0)),
        *_TAVAKOLI.measurement.values(),
        zeros,
        ClassicalStrategy(GameId.CHSH, tables=((0, 1), (1, 0))),
        ClassicalStrategy(GameId.CHSH, mixture=((0.5, zeros), (0.5, ones))),
    ]
    assert [hash(copy.copy(record)) for record in records] == [hash(record) for record in records]
    assert len(set(records)) == len(records)


# The three readers of a caller's weight table, each with two of its valid keys: exact_score over CHSH's
# inputs, ProtocolConfig over P's generate-mode cells and a mixture of two CHSH strategies.
_WEIGHT_READERS = {
    "exact_score": ((0, 0), (1, 1), lambda w: games.exact_score(GameId.CHSH, _CHSH, w)),
    "ProtocolConfig": ((0, 1, 2), (1, 0, 2), lambda w: ProtocolConfig("P", 10, seed=1, mode="generate", input_weights=w)),
    "mixture": (
        (0,), (1,), lambda w: ClassicalStrategy(GameId.CHSH, mixture=tuple(zip(w.values(), enumerate_deterministic(GameId.CHSH))))
    ),
}
# case -> (the table, from the reader's two keys; what its message must name)
_BAD_WEIGHTS = {
    "list of pairs": (lambda k, k2: [(k, 1.0)], lambda k: "must be a mapping"),
    "key outside the grid": (lambda k, k2: {k[:-1] + (3,): 1.0}, lambda k: repr(k[:-1] + (3,))),
    "nan": (lambda k, k2: {k: math.nan, k2: 1.0}, repr),
    "negative": (lambda k, k2: {k: -1.0, k2: 2.0}, repr),
    "string": (lambda k, k2: {k: "1", k2: 0.0}, repr),
    "sum of one half": (lambda k, k2: {k: 0.25, k2: 0.25}, lambda k: "sum to 0.5"),
}


@pytest.mark.parametrize(
    "reader,case",
    # a mixture's weights come keyed by its components, so it is never given a non-mapping or a foreign key
    [(r, c) for r in _WEIGHT_READERS for c in _BAD_WEIGHTS if r != "mixture" or c not in ("list of pairs", "key outside the grid")],
)
def test_every_weight_reader_rejects_the_same_tables(reader, case):
    k, k2, read = _WEIGHT_READERS[reader]
    make, named = _BAD_WEIGHTS[case]
    with pytest.raises(BadDistribution) as err:
        read(make(k, k2))
    assert isinstance(err.value, ValueError) and named(k) in str(err.value), str(err.value)


class TestHonestDevices:
    def test_p_preparations(self):
        pair = honest_devices("P")
        wanted = {
            (0, 0): qcore.KET_PLUS,
            (0, 1): qcore.KET_ZERO,
            (1, 0): qcore.KET_ONE,
            (1, 1): qcore.KET_MINUS,
        }
        table = pair.response_table("P")
        assert table.shape == (1, 4, 3)
        assert table[0] == pytest.approx(qcore_response_table("P", wanted), abs=1e-12)

    def test_p_response_probabilities(self):
        table = honest_devices("P").response_table("P")[0]
        # x = 10 measured along sigma_x: uniform bit
        assert table[2, 2] == pytest.approx(0.5, abs=1e-12)
        # x = 00 measured along sigma_x: deterministic b = 0
        assert table[0, 2] == 0.0
        assert table[3, 2] == 1.0
        # check-setting cells sit at the quantum value
        assert table[0, 0] == pytest.approx(1 - A_STAR, abs=1e-12)

    def test_q_deterministic_even_cells(self):
        table = honest_devices("Q").response_table("Q")[0]
        # (x0x1, x2) -> forced bit on the even-weight rows of the game table
        assert table[0, 0] == 0.0
        assert table[1, 1] == 1.0
        assert table[2, 1] == 0.0
        assert table[3, 0] == 1.0
        # odd-weight rows are exactly unbiased
        for x, x2 in ((0, 1), (1, 0), (2, 0), (3, 1)):
            assert table[x, x2] == pytest.approx(0.5, abs=1e-12)

    def test_unknown_protocol(self):
        with pytest.raises(DeviceArityMismatch):
            honest_devices("R")


class TestDevicePairTable:
    @pytest.mark.parametrize(
        "shape, protocol",
        [((4, 3), None), ((1, 4, 2), None), ((1, 4, 2), "P"), ((1, 4, 3), "Q"), ((3, 4, 3), None), ((1, 3, 3), "P")],
    )
    def test_bad_shape_rejected(self, shape, protocol):
        with pytest.raises(DeviceArityMismatch):
            DevicePair(np.full(shape, 0.5), protocol=protocol)

    @pytest.mark.parametrize("value", [-0.1, 1.5, float("nan")])
    def test_out_of_range_rejected(self, value):
        table = np.full((1, 4, 3), 0.5)
        table[0, 2, 1] = value
        with pytest.raises(DeviceArityMismatch):
            DevicePair(table)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(DeviceArityMismatch):
            DevicePair(np.full((1, 4, 3), 0.5), protocol="R")
        with pytest.raises(DeviceArityMismatch):
            DevicePair(np.full((1, 4, 3), 0.5)).response_table("R")

    def test_rounding_residue_is_clipped_and_table_read_only(self):
        table = np.zeros((2, 4, 3))
        table[1] = 1.0 + 1e-15
        table[0, 0, 0] = -1e-15
        pair = DevicePair(table)
        assert pair.uses_coin
        assert pair.table.min() == 0.0 and pair.table.max() == 1.0
        assert pair.response_table("Q").shape == (2, 4, 2)
        with pytest.raises(ValueError):
            pair.table[0, 0, 0] = 0.5


class TestClassicalPairs:
    def test_only_deterministic_strategies_of_the_protocols_game(self):
        zeros = next(enumerate_deterministic(GameId.TAVAKOLI))
        with pytest.raises(DeviceArityMismatch, match="only deterministic strategies"):
            classical_pair_from_strategy(ClassicalStrategy(GameId.TAVAKOLI, mixture=((1.0, zeros),)), "P")
        with pytest.raises(DeviceArityMismatch, match="protocol P devices need a tavakoli strategy"):
            classical_pair_from_strategy(next(enumerate_deterministic(GameId.GAME_G2)), "P")


class TestAdversarialDevices:
    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            adversarial_devices("telepathy")

    def test_family_pairs_are_q_only(self):
        pair = adversarial_devices("perfect_even_family_A")
        with pytest.raises(DeviceArityMismatch):
            pair.response_table("P")

    def test_perfect_even_families_disagree_on_odd(self):
        a = adversarial_devices("perfect_even_family_A").response_table("Q")[0]
        b = adversarial_devices("perfect_even_family_B").response_table("Q")[0]
        # both win every even-weight row
        for x, x2, bit in ((0, 0, 0), (1, 1, 1), (2, 1, 0), (3, 0, 1)):
            assert a[x, x2] == float(bit)
            assert b[x, x2] == float(bit)
        # family A reproduces x1 on odd rows, family B its complement
        for x, x2 in ((0, 1), (1, 0), (2, 0), (3, 1)):
            x1 = x & 1
            assert a[x, x2] == float(x1)
            assert b[x, x2] == float(1 - x1)

    def test_input_guesser_success_is_half(self):
        config = ProtocolConfig("P", 40_000, seed=321)
        bins, _ = run_protocol(config, adversarial_devices("input_guesser"))
        # the rounds of every bin whose b is x' = x0 ^ x1, counted from the tally [x, setting, b]
        x, _, b = np.indices(bins.tally.shape)
        hits = int(bins.tally[b == (x >> 1) ^ (x & 1)].sum())
        trials = int(bins.tally.sum())
        assert trials == config.rounds
        assert abs(hits / trials - 0.5) <= 4 * math.sqrt(0.25 / trials)

    @pytest.mark.parametrize("protocol", ["P", "Q"])
    def test_input_guesser_coin_per_run_is_one_coin(self, protocol):
        pair = adversarial_devices("input_guesser", coin_per_round=False)
        assert pair.uses_coin and not pair.coin_per_round
        bins, _ = run_protocol(ProtocolConfig(protocol, 5_000, seed=29), pair)
        # the guesser answers its coin in every cell, so every round of every bin has the one coin as b
        per_b = bins.tally.sum(axis=(0, 1))
        assert sorted(per_b.tolist()) == [0, 5_000]


class TestRunProtocolP:
    def test_honest_pass(self):
        config = ProtocolConfig("P", 100_000, seed=42, delta=1e-6)
        bins, verdict = run_protocol(config, honest_devices("P"))
        assert verdict.decision == "PASS"
        conds = conditions_by_name(verdict)
        radius = conds["A_statistic"].detail["radius"]
        assert abs(conds["A_statistic"].estimate - A_STAR) <= radius
        assert conds["false_b0_given_x00"].detail["exceptions"] == 0
        assert conds["false_b1_given_x11"].detail["exceptions"] == 0
        assert verdict.output_bits.size == len(bins.rand)

    def test_bin_partition(self):
        config = ProtocolConfig("P", 9_999, seed=5)
        bins, _ = run_protocol(config, honest_devices("P"))
        # each bin's rounds by the bin rule, from the tally [x, setting, b] and the Rand view
        rule = {"check": bins.tally[:, :2], "rand": bins.tally[[1, 2], 2], "false": bins.tally[[0, 3], 2]}
        assert {name: int(cells.sum()) for name, cells in rule.items()} == bins.counts()
        assert len(bins.rand) == bins.counts()["rand"]
        assert sum(bins.counts().values()) == config.rounds

    def test_bin_membership_rules(self):
        bins, _ = run_protocol(ProtocolConfig("P", 5_000, seed=6), honest_devices("P"))
        # every round at setting < 2 is a Check round, and every other round sits at setting 2
        assert bins.counts()["check"] == int(bins.tally[:, :2].sum())
        assert bins.counts()["rand"] + bins.counts()["false"] == int(bins.tally[:, 2].sum())
        assert np.all(bins.rand.inputs[:, 2] == 2)
        assert np.all(bins.rand.inputs[:, 0] != bins.rand.inputs[:, 1])
        # so the False rounds are the setting-2 rounds with x0 == x1
        false = bins.counts()["false"]
        assert false == int(bins.tally[:, 2].sum()) - len(bins.rand) == int(bins.tally[[0, 3], 2].sum())

    def test_false_bin_deterministic_everywhere(self):
        bins, _ = run_protocol(ProtocolConfig("P", 60_000, seed=77), honest_devices("P"))
        # tally [x, setting, b]: no x = 00 False round has b = 1, no x = 11 one b = 0
        assert bins.tally[0, 2, 1] == 0 and bins.tally[0, 2, 0] > 0
        assert bins.tally[3, 2, 0] == 0 and bins.tally[3, 2, 1] > 0

    def test_replay_determinism(self):
        config = ProtocolConfig("P", 20_000, seed=12345)
        bins1, verdict1 = run_protocol(config, honest_devices("P"))
        bins2, verdict2 = run_protocol(config, honest_devices("P"))
        assert np.array_equal(bins1.tally, bins2.tally)
        assert np.array_equal(bins1.rand.inputs, bins2.rand.inputs)
        assert np.array_equal(bins1.rand.outputs, bins2.rand.outputs)
        assert verdict1.decision == verdict2.decision
        assert np.array_equal(verdict1.output_bits, verdict2.output_bits)
        assert verdict1.conditions == verdict2.conditions

    def test_output_independent_of_inputs(self):
        bins, _ = run_protocol(ProtocolConfig("P", 100_000, seed=8), honest_devices("P"))
        b = bins.rand.outputs[:, 0].astype(float)
        x0 = bins.rand.inputs[:, 0].astype(float)
        corr = np.corrcoef(b, x0)[0, 1]
        assert abs(corr) <= 4 / math.sqrt(len(bins.rand))

    def test_always_zero_aborts(self):
        config = ProtocolConfig("P", 100_000, seed=9, delta=1e-6)
        _, verdict = run_protocol(config, adversarial_devices("always_zero"))
        assert verdict.decision == "ABORT"
        conds = conditions_by_name(verdict)
        assert conds["A_statistic"].estimate == pytest.approx(0.5, abs=0.02)
        assert not conds["A_statistic"].satisfied
        assert verdict.output_bits.size == 0

    def test_generate_mode_rate_one(self):
        config = ProtocolConfig("P", 5_000, seed=10, mode="generate")
        bins, verdict = run_protocol(config, honest_devices("P"))
        assert verdict.decision == "PASS"
        assert verdict.output_bits.size == config.rounds
        assert len(bins.rand) == config.rounds
        assert bins.counts()["check"] == 0 and not bins.tally[:, :2].any()

    def test_zero_rounds(self):
        with pytest.raises(InsufficientRounds):
            run_protocol(ProtocolConfig("P", 0, seed=1), honest_devices("P"))

    def test_certify_checks_the_tally(self):
        config = ProtocolConfig("P", 100, seed=1)
        with pytest.raises(ValueError, match=r"tally is \[x, setting, b\] of shape \(4, 3, 2\)"):
            protocols.certify(config, np.ones((4, 2, 2), dtype=np.int64))
        tally = np.ones((4, 3, 2), dtype=np.int64)
        tally[0, 2] = 0     # every Check cell filled, no x = 00 False round
        with pytest.raises(InsufficientRounds, match="false bin has no x=00 rounds"):
            protocols.certify(config, tally)

    def test_tiny_run_raises_insufficient(self):
        with pytest.raises(InsufficientRounds):
            run_protocol(ProtocolConfig("P", 4, seed=1), honest_devices("P"))

    def test_classical_frontier_sample_aborts(self):
        # spot-check a handful of the 256 deterministic pairs (full sweep in acceptance)
        config = ProtocolConfig("P", 100_000, seed=31337, delta=1e-6)
        strategies = list(enumerate_deterministic(GameId.TAVAKOLI))
        for strategy in strategies[:: 64] + [strategies[-1]]:
            pair = classical_pair_from_strategy(strategy, "P")
            _, verdict = run_protocol(config, pair)
            assert verdict.decision == "ABORT"


class TestRunProtocolQ:
    def test_honest_pass_and_split(self):
        config = ProtocolConfig("Q", 100_000, seed=42, gamma=0.5)
        bins, verdict = run_protocol(config, honest_devices("Q"))
        assert verdict.decision == "PASS"
        conds = conditions_by_name(verdict)
        assert conds["even_win"].detail["exceptions"] == 0
        assert abs(conds["odd_guess_half"].estimate - 0.5) <= conds["odd_guess_half"].detail["radius"]
        test_len = math.ceil(config.gamma * len(bins.rand))
        assert conds["odd_guess_half"].detail["test_portion"] == test_len
        assert verdict.output_bits.size == len(bins.rand) - test_len

    def test_every_check_round_wins(self):
        bins, _ = run_protocol(ProtocolConfig("Q", 50_000, seed=3), honest_devices("Q"))
        # the tally [x, setting, b] holds no even-weight (Check) round that loses
        x, x2, b = np.indices(bins.tally.shape)
        x0, x1 = x >> 1, x & 1
        even = (x0 + x1 + x2) % 2 == 0
        wins = (x0 + x1 + x2) // 2 == b + (x0 & (x0 ^ x1))
        assert bins.tally[even & ~wins].sum() == 0
        assert bins.tally[even].sum() == bins.counts()["check"] > 0

    def test_x1_forwarder_aborts_with_exact_one(self):
        config = ProtocolConfig("Q", 10_000, seed=11)
        _, verdict = run_protocol(config, adversarial_devices("x1_forwarder"))
        assert verdict.decision == "ABORT"
        conds = conditions_by_name(verdict)
        assert conds["even_win"].satisfied
        assert conds["odd_guess_half"].estimate == 1.0
        assert not conds["odd_guess_half"].satisfied

    def test_mixed_perfect_even_passes_both_conditions(self):
        config = ProtocolConfig("Q", 100_000, seed=17)
        pair = adversarial_devices("mixed_perfect_even")
        _, verdict = run_protocol(config, pair)
        conds = conditions_by_name(verdict)
        assert conds["even_win"].estimate == 1.0
        assert abs(conds["odd_guess_half"].estimate - 0.5) <= conds["odd_guess_half"].detail["radius"]
        assert verdict.decision == "PASS"
        assert verdict.notes     # the caveat is recorded with the run

    def test_mixed_with_run_level_coin_aborts(self):
        pair = adversarial_devices("mixed_perfect_even", coin_per_round=False)
        _, verdict = run_protocol(ProtocolConfig("Q", 10_000, seed=23), pair)
        conds = conditions_by_name(verdict)
        assert conds["odd_guess_half"].estimate in (0.0, 1.0)
        assert verdict.decision == "ABORT"

    def test_gamma_one_emits_nothing(self):
        config = ProtocolConfig("Q", 20_000, seed=2, gamma=1.0)
        _, verdict = run_protocol(config, honest_devices("Q"))
        assert verdict.decision == "PASS"
        assert verdict.output_bits.size == 0

    def test_generate_mode_rate_half(self):
        config = ProtocolConfig("Q", 50_000, seed=19, mode="generate")
        bins, verdict = run_protocol(config, honest_devices("Q"))
        assert verdict.decision == "PASS"
        assert verdict.output_bits.size == len(bins.rand)
        n = config.rounds
        assert abs(verdict.output_bits.size - n / 2) <= 4 * math.sqrt(n / 4)

    def test_device_protocol_mismatch(self):
        with pytest.raises(DeviceArityMismatch):
            run_protocol(ProtocolConfig("P", 100, seed=1), honest_devices("Q"))

    def test_empty_rand_bin_is_graceful_abort(self):
        # find a tiny run whose rounds all land in the check bin
        pair = honest_devices("Q")
        for seed in range(2000):
            config = ProtocolConfig("Q", 3, seed=seed)
            try:
                bins, verdict = run_protocol(config, pair)
            except InsufficientRounds:
                continue
            if len(bins.rand) == 0:
                conds = conditions_by_name(verdict)
                assert verdict.decision == "ABORT"
                assert not conds["rand_nonempty"].satisfied
                assert not conds["odd_guess_half"].satisfied
                assert verdict.output_bits.size == 0
                return
        pytest.fail("no all-even-weight run found")


class TestConfigAndVerdict:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig("R", 10, seed=1)
        with pytest.raises(ValueError):
            ProtocolConfig("P", 10, seed=1, delta=0.0)
        with pytest.raises(ValueError):
            ProtocolConfig("Q", 10, seed=1, gamma=0.4)
        with pytest.raises(ValueError):
            ProtocolConfig("P", 10, seed=1, mode="stream")

    @pytest.mark.parametrize(
        "keywords", [{"delta": "x"}, {"delta": None}, {"delta": True}, {"gamma": None}, {"gamma": "0.5"}, {"gamma": True}]
    )
    def test_delta_and_gamma_must_be_real_numbers(self, keywords):
        with pytest.raises(ValueError, match="^(delta|gamma) must be a real number, got"):
            ProtocolConfig("Q", 10, seed=1, **keywords)

    @pytest.mark.parametrize("delta", [1e-16, 1.6e-16, 1e-17, 5e-324])
    def test_delta_below_float_resolution_is_rejected_by_value(self, delta):
        # 0.5 + (1 - delta)/2 rounds to 1, so the run's Wilson interval would need an infinite quantile
        for protocol in ("P", "Q"):
            with pytest.raises(ValueError, match=f"^delta must be at least about 1.7e-16.*got {delta}$"):
                ProtocolConfig(protocol, 10, seed=1, delta=delta)

    @pytest.mark.parametrize("protocol", ["P", "Q"])
    def test_smallest_delta_still_certifies(self, protocol):
        _, verdict = run_protocol(ProtocolConfig(protocol, 20_000, seed=3, delta=2e-16), honest_devices(protocol))
        assert verdict.decision == "PASS"

    def test_abort_verdict_carries_no_bits(self):
        with pytest.raises(ValueError):
            CertificationVerdict("ABORT", (), np.array([1, 0], dtype=np.uint8))

    def test_verdict_leaves_the_callers_bits_writable(self):
        bits = np.array([1, 0, 1], dtype=np.uint8)
        verdict = CertificationVerdict("PASS", (), bits)
        assert bits.flags.writeable and not verdict.output_bits.flags.writeable
        # the verdict holds its own packed copy, which a later write to the caller's array leaves alone
        bits[0] = 0
        assert list(verdict.output_bits) == [1, 0, 1] and verdict.bits.size == 3

    def test_verdict_bits_are_sealed(self):
        _, verdict = run_protocol(ProtocolConfig("Q", 20_000, seed=3), honest_devices("Q"))
        assert verdict.decision == "PASS"
        released = verdict.output_bits.copy()
        with pytest.raises(ValueError, match="sealed"):
            verdict.bits.append(np.ones(8, dtype=np.uint8))
        assert not any(packed.flags.writeable for packed, _ in verdict.bits._pieces)
        assert verdict.bits.size == released.size and np.array_equal(verdict.bits.unpack(), released)

    def test_verdict_keeps_its_bits_when_the_callers_grow(self):
        bits = stream.PackedBits(np.array([1, 0, 1], dtype=np.uint8))
        verdict = CertificationVerdict("PASS", (), bits)
        bits.append(np.ones(5, dtype=np.uint8))
        assert verdict.bits.size == 3 and list(verdict.output_bits) == [1, 0, 1]

    def test_identical_runs_give_equal_verdicts(self):
        config = ProtocolConfig("P", 20_000, seed=12345, mode="generate")
        first, again = (run_protocol(config, honest_devices("P"))[1] for _ in range(2))
        assert first == again and first.bits is not again.bits
        other = run_protocol(ProtocolConfig("P", 20_000, seed=54321, mode="generate"), honest_devices("P"))[1]
        assert first != other

    def test_verdict_rejects_values_that_are_not_bits(self):
        with pytest.raises(ValueError, match="0/1 valued"):
            CertificationVerdict("PASS", (), np.array([1, 2], dtype=np.uint8))

    def test_bin_store_leaves_the_callers_tally_writable(self):
        tally = np.zeros((4, 3, 2), dtype=np.int64)
        bins = BinStore("P", tally, replay=None)
        assert tally.flags.writeable and not bins.tally.flags.writeable
        assert np.shares_memory(tally, bins.tally)

    def test_input_weight_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig("P", 10, seed=1, input_weights={(0, 0, 0): 0.5})
        with pytest.raises(ValueError):
            ProtocolConfig("Q", 10, seed=1, input_weights={(0, 0, 2): 1.0})
        with pytest.raises(ValueError):
            ProtocolConfig("P", 10, seed=1, input_weights={(0, 0, 0): 1.5, (0, 1, 0): -0.5})
        with pytest.raises(ValueError, match="must be a mapping"):
            ProtocolConfig("P", 10, seed=1, input_weights=[((0, 0, 0), 1.0)])

    @pytest.mark.parametrize(
        "weights,named",
        [
            ({(0, 0): 1.0}, "(0, 0)"),                              # too few entries
            ({(0, 0, 0): "1", (0, 1, 0): 0.0}, "(0, 0, 0)"),        # a weight that is not a number
            ({(0.5, 1, 0): 1.0}, "(0.5, 1, 0)"),                    # not bits; int() would read (0, 1, 0)
            ({(0, 2, 0): 1.0}, "(0, 2, 0)"),                        # not a bit; 2*x0 + x1 would read (1, 0, 0)
            ({(1, -1, 0): 1.0}, "(1, -1, 0)"),
            ({"000": 1.0}, "'000'"),
            ({(0, 1, -1): 1.0}, "(0, 1, -1)"),                      # a negative setting must not wrap to 2
            ({(0, 1, 3): 1.0}, "(0, 1, 3)"),
        ],
    )
    def test_input_weight_keys_and_values_are_checked(self, weights, named):
        with pytest.raises(ValueError) as err:
            ProtocolConfig("P", 10, seed=1, input_weights=weights)
        assert named in str(err.value)

    @pytest.mark.parametrize(
        "keywords",
        [{"rounds": 1e4}, {"rounds": 10.0}, {"rounds": "10"}, {"seed": -1}, {"seed": 1.5}, {"seed": True}],
    )
    def test_rounds_and_seed_are_checked_at_construction(self, keywords):
        with pytest.raises(ValueError, match="rounds|seed"):
            ProtocolConfig(**{"protocol": "P", "rounds": 10, "seed": 1, **keywords})

    def test_numpy_integers_are_integers(self):
        config = ProtocolConfig("P", np.int64(2_000), seed=np.uint64(3))
        _, verdict = run_protocol(config, honest_devices("P"))
        _, want = run_protocol(ProtocolConfig("P", 2_000, seed=3), honest_devices("P"))
        assert verdict.conditions == want.conditions

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_input_weights_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ProtocolConfig("P", 10, seed=1, input_weights={(0, 0, 0): bad, (0, 1, 0): 1.0})

    def test_input_weights_steer_the_draw(self):
        # all mass on one rand-bin input: every round lands there
        weights = {(0, 1, 2): 1.0}
        config = ProtocolConfig("P", 500, seed=4, mode="generate", input_weights=weights)
        bins, verdict = run_protocol(config, honest_devices("P"))
        assert len(bins.rand) == 500
        assert np.all(bins.rand.inputs[:, 0] == 0)
        assert np.all(bins.rand.inputs[:, 1] == 1)
        assert verdict.output_bits.size == 500

    def test_input_weights_starving_a_bin_raises(self):
        weights = {(x0, x1, y): 1 / 8 for x0 in (0, 1) for x1 in (0, 1) for y in (0, 1)}
        with pytest.raises(ValueError, match=r"leave out \(0, 0, 2\), \(1, 1, 2\): protocol P test mode"):
            ProtocolConfig("P", 2_000, seed=4, input_weights=weights)

    @pytest.mark.parametrize(
        "protocol,weights,named",
        [
            # no Check rounds at all
            ("P", {(0, 1, 2): 0.5, (1, 0, 2): 0.5}, "(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0)"),
            # five self-test cells left out
            (
                "P",
                {(0, 0, 0): 0.3, (0, 1, 2): 0.2, (1, 0, 1): 0.1, (1, 1, 2): 0.15, (0, 0, 2): 0.05, (1, 1, 0): 0.2},
                "(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)",
            ),
            # every even-weight cell left out, so Q has no Check rounds
            ("Q", {(0, 0, 1): 0.5, (0, 1, 0): 0.25, (1, 0, 0): 0.25}, "(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)"),
        ],
    )
    def test_input_weights_that_cannot_certify_are_rejected(self, protocol, weights, named):
        with pytest.raises(ValueError, match="input weights leave out") as err:
            ProtocolConfig(protocol, 2_000, seed=4, input_weights=weights)
        assert named in str(err.value)

    def test_weighted_configs_hash_and_pickle(self):
        weights = {(0, 1, 2): 0.25, (1, 0, 2): 0.75}
        config = ProtocolConfig("P", 10, seed=1, mode="generate", input_weights=weights)
        same = ProtocolConfig("P", 10, seed=1, mode="generate", input_weights=dict(weights))
        assert config == same and hash(config) == hash(same)
        assert pickle.loads(pickle.dumps(config)) == config == copy.deepcopy(config)

    def test_weights_edited_after_construction_are_checked_by_the_run(self):
        config = ProtocolConfig("Q", 2_000, seed=4, input_weights={(0, 0, 0): 0.5, (0, 0, 1): 0.5})
        config.input_weights.clear()
        config.input_weights.update({(0, 0, 1): 0.5, (0, 1, 0): 0.25, (1, 0, 0): 0.25})    # no Check cell left
        with pytest.raises(ValueError, match=r"leave out \(0, 0, 0\), \(0, 1, 1\), \(1, 0, 1\), \(1, 1, 0\): protocol Q"):
            run_protocol(config, honest_devices("Q"))

    def test_uniform_weights_match_default_statistics(self):
        weights = {
            (x0, x1, y): 1 / 12 for x0 in (0, 1) for x1 in (0, 1) for y in (0, 1, 2)
        }
        config = ProtocolConfig("P", 50_000, seed=21, input_weights=weights)
        _, verdict = run_protocol(config, honest_devices("P"))
        assert verdict.decision == "PASS"


class TestGuessingBounds:
    def test_all_three_bounds(self):
        report = guessing_game_bound_check(100_000, np.random.default_rng(2027))
        by_name = {c.name: c for c in report.checks}
        assert report.passed
        aug = by_name["augmented_chsh_score"]
        assert aug.expected == pytest.approx((2 / 3) * math.cos(math.pi / 8) ** 2 + 1 / 3, abs=1e-12)
        assert abs(aug.empirical - 0.902369) <= 4 * aug.stderr + 1e-6
        assert abs(by_name["output_guess_rate"].empirical - 0.75) <= 4 * by_name["output_guess_rate"].stderr
        assert abs(by_name["rand_bit_guess_rate"].empirical - 0.5) <= 4 * by_name["rand_bit_guess_rate"].stderr

    def test_augmented_constant(self):
        assert AUGMENTED_CHSH_SCORE == pytest.approx(0.9023689270621825, abs=1e-12)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            guessing_game_bound_check(0, np.random.default_rng(1))

    @pytest.mark.parametrize("trials", [1.5, 100.0, "100"])
    def test_non_integer_trials_rejected(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            guessing_game_bound_check(trials, np.random.default_rng(1))


class TestRoundBatch:
    def test_records_view(self):
        bins, _ = run_protocol(ProtocolConfig("P", 200, seed=55), honest_devices("P"))
        assert isinstance(bins.rand, RoundColumns)
        assert bins.rand.inputs.dtype == bins.rand.outputs.dtype == np.int8
        record = bins.rand[0]
        assert record.inputs == tuple(int(v) for v in bins.rand.inputs[0])
        assert record.outputs == (int(bins.rand.outputs[0, 0]),)
        assert record.outputs[0] in (0, 1)
        assert len(list(bins.rand)) == len(bins.rand)


class TestRunnerDeviceConsistency:
    @pytest.mark.parametrize("protocol", ["P", "Q"])
    def test_vectorized_run_matches_per_round_device_calls(self, protocol, replay_rounds):
        # replay the run's randomness streams through a qcore reference table, round by round
        config = ProtocolConfig(protocol, 500, seed=99)
        pair = honest_devices(protocol)
        bins, _ = run_protocol(config, pair)

        seq = np.random.SeedSequence(config.seed)
        input_rng, _, meas_rng = (np.random.default_rng(s) for s in seq.spawn(3))
        n = config.rounds
        x = input_rng.integers(0, 4, size=n)
        setting = input_rng.integers(0, 3 if protocol == "P" else 2, size=n)
        u = meas_rng.random(n)

        reference = qcore_response_table(protocol)
        assert np.array_equal(pair.response_table(protocol)[0], reference)
        expected = []
        for i in range(n):
            p1 = reference[int(x[i]), int(setting[i])]
            expected.append(0 if u[i] < 1.0 - p1 else 1)
        expected = np.array(expected)

        # the run's round stream holds every round in round order, and the Rand bin its Rand rounds
        got_x, got_setting, got_b = replay_rounds(config, pair)
        assert got_x.tolist() == x.tolist() and got_setting.tolist() == setting.tolist()
        assert got_b.tolist() == expected.tolist()
        if protocol == "P":
            in_rand = (setting == 2) & ((x == 1) | (x == 2))
        else:
            in_rand = ((x >> 1) + (x & 1) + setting) % 2 == 1
        assert [record.outputs for record in bins.rand] == [(int(b),) for b in expected[in_rand]]
        assert np.array_equal(bins.tally.ravel(), np.bincount(2 * (bins.tally.shape[1] * x + setting) + expected,
                                                              minlength=bins.tally.size))

    def test_estimate_conditional_on_rand_records(self):
        from diqrng.analysis import estimate_conditional

        bins, _ = run_protocol(ProtocolConfig("P", 60_000, seed=14), honest_devices("P"))
        est = estimate_conditional(
            bins.rand, lambda r: r.outputs == (0,), lambda r: True, confidence=0.99
        )
        assert est.ci_low <= 0.5 <= est.ci_high
        assert abs(est.point - 0.5) <= 4 * math.sqrt(0.25 / est.trials)
