"""The four benchmark workloads: their operations, inputs and output checks.

A workload is a fixed cycle of operations that a run repeats.  One operation
is one public call of the program, or one ``cli.main`` command.  Every input
(run seeds, input distributions, mixtures) is derived from the workload seed;
the program sees only the generated inputs.  Each operation has a check that
runs outside its timed interval and raises ``CheckFailed`` on a wrong output.

The checks use closed forms and small reference implementations kept here,
never the program's own functions, so that a traced run counts only the
program's calls.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from diqrng import cli, games, protocols
from diqrng.games import ClassicalStrategy, EquivalencePair, GameId

WORK_DIR = Path(".perfbench_work")
DEFAULT_SEED = 0
DIGESTS_FILE = Path(__file__).with_name("digests.json")

QUANTUM_WIN = 0.5 * (1.0 + 1.0 / math.sqrt(2.0))   # cos^2(pi/8), also A*
AUGMENTED_CHSH = (2.0 / 3.0) * QUANTUM_WIN + 1.0 / 3.0
EXACT_TOL = 1e-12
REPORT_TOL = 1e-11          # reports print floats at 12 significant digits

STREAM_SIZES = (1_000_000, 10_000_000)
STREAM_CONFIGS = (("P", "test"), ("Q", "test"), ("P", "generate"))
# A lower bound on the bytes per round that run_protocol keeps live at once:
# six 8-byte columns (x, setting, coin, p1, u, index), six 1-byte ones (b, x0,
# x1 and the three input columns) and the 12 bytes per round of the bins'
# copies.  Masks and temporaries come on top; the traced run measures the
# whole tracemalloc peak of each run_protocol call.
STREAM_BYTES_PER_ROUND = 6 * 8 + 6 * 1 + 12
SWEEP_ROUNDS = 10_000
SWEEP_DELTA = 1e-6
MONTECARLO_ROUNDS = 100_000
GUESSING_TRIALS = 1_000_000

# adversarial kinds that every accepting protocol must abort
_ABORTING_KINDS = (
    "always_zero",
    "x1_forwarder",
    "input_guesser",
    "perfect_even_family_A",
    "perfect_even_family_B",
)


class CheckFailed(Exception):
    """An operation's output is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One operation: ``run`` is timed, ``before`` and ``check`` are not.

    ``check`` receives ``run``'s result and returns a dict of facts to tally
    (such as bits written) or None.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], dict | None]
    rounds: int = 0
    before: Callable[[], None] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    facts: dict = field(default_factory=dict)   # recorded, not checked


def call(owner, attr: str, *args, **kwargs) -> Callable[[], object]:
    """Defer ``owner.attr(*args)`` so the lookup happens at call time.

    The traced run replaces module attributes with wrappers; binding the
    function at set-up would bypass them.
    """
    return lambda: getattr(owner, attr)(*args, **kwargs)


def run_cli(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:      # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _unlink(*paths: Path) -> Callable[[], None]:
    def clear() -> None:
        for path in paths:
            path.unlink(missing_ok=True)
    return clear


def _read_report(code: object, path: Path) -> dict:
    expect(code == 0, f"exit code {code}, expected 0")
    expect(path.exists(), f"no report at {path}")
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# reference game rules, independent of the program
# ---------------------------------------------------------------------------

def ref_input_space(game: GameId) -> tuple[tuple[int, ...], ...]:
    if game in (GameId.CHSH, GameId.CHSH1):
        return tuple(itertools.product((0, 1), repeat=2))
    space = tuple(itertools.product((0, 1), repeat=3))
    if game is GameId.PSEUDO_TELEPATHY3:
        return tuple(x for x in space if sum(x) % 2 == 0)
    return space


def ref_wins(game: GameId, x: tuple[int, ...], out: tuple[int, ...]) -> bool:
    if game in (GameId.CHSH, GameId.CHSH1):
        return (x[0] & x[1]) == (out[0] ^ out[1])
    if game is GameId.GAME_G:
        return ((x[0] ^ x[1]) & x[2]) == (out[0] ^ out[1])
    if game is GameId.TAVAKOLI:
        return out[0] == x[x[2]]
    if game is GameId.PSEUDO_TELEPATHY3:
        return sum(out) % 2 == (sum(x) // 2) % 2
    weight = sum(x)                                   # GAME_G2
    if weight % 2 == 0:
        return weight // 2 == out[0] + (x[0] & (x[0] ^ x[1]))
    return out[0] == x[1]


def ref_outputs(strategy: ClassicalStrategy, x: tuple[int, ...]) -> tuple[int, ...]:
    """Outputs of a deterministic strategy, in ClassicalStrategy's table layout."""
    t = strategy.tables
    game = strategy.game
    if game in (GameId.CHSH, GameId.CHSH1):
        return (t[0][x[0]], t[1][x[1]])
    if game is GameId.GAME_G:
        return (t[0][2 * x[0] + x[1]], t[1][x[2]])
    if game is GameId.PSEUDO_TELEPATHY3:
        return tuple(t[i][x[i]] for i in range(3))
    message = t[0][2 * x[0] + x[1]]                   # TAVAKOLI and GAME_G2
    return (t[1][2 * message + x[2]],)


def ref_scores(strategy: ClassicalStrategy) -> tuple[float, ...]:
    """(score,) of a deterministic strategy; (even, odd, augmented) for G2."""
    game = strategy.game
    wins = {x: ref_wins(game, x, ref_outputs(strategy, x)) for x in ref_input_space(game)}
    if game is GameId.GAME_G2:
        even = sum(w for x, w in wins.items() if sum(x) % 2 == 0) / 4
        odd = sum(w for x, w in wins.items() if sum(x) % 2 == 1) / 4
        return (even, odd, (even + odd) / 2)
    return (sum(wins.values()) / len(wins),)


def paper_cell_value(game: GameId, x: tuple[int, ...]) -> float:
    """Win probability of the paper's quantum strategy on one input."""
    if game is GameId.PSEUDO_TELEPATHY3:
        return 1.0
    if game is GameId.GAME_G2:
        return 1.0 if sum(x) % 2 == 0 else 0.5
    return QUANTUM_WIN


def paper_scores(game: GameId, weights: dict[tuple[int, ...], float]) -> tuple[float, ...]:
    """The paper strategy's score under an input distribution, by linearity."""
    def mean(cells):
        cells = list(cells)
        return sum(weights[x] * paper_cell_value(game, x) for x in cells) / sum(weights[x] for x in cells)

    if game is GameId.GAME_G2:
        even = mean(x for x in weights if sum(x) % 2 == 0)
        odd = mean(x for x in weights if sum(x) % 2 == 1)
        return (even, odd, (even + odd) / 2)
    return (mean(weights),)


def score_tuple(score) -> tuple[float, ...]:
    if isinstance(score, games.G2Score):
        return (score.even_win.value, score.odd_guess.value, score.augmented.value)
    return (score.value,)


def _expect_close(got: tuple[float, ...], want: tuple[float, ...], tol: float) -> None:
    expect(len(got) == len(want), f"score arity {len(got)}, expected {len(want)}")
    for g, w in zip(got, want):
        expect(abs(g - w) <= tol, f"score {g!r}, expected {w!r}")


def ref_response_table(protocol: str) -> np.ndarray:
    """Pr[b = 1] of the honest devices as [coin, x, setting], from the paper's states."""
    s = 1.0 / math.sqrt(2.0)
    c8, s8 = math.cos(math.pi / 8), math.sin(math.pi / 8)
    table = np.zeros((1, 4, 3 if protocol == "P" else 2))
    if protocol == "P":
        preps = ([s, s], [1, 0], [0, 1], [s, -s])                  # |+>, |0>, |1>, |->
        b1_vectors = ([-s8, c8], [-c8, s8], [s, -s])              # psi_perp, phi_perp, |->
        for x, state in enumerate(preps):
            for y, v in enumerate(b1_vectors):
                table[0, x, y] = abs(np.vdot(v, state)) ** 2
        return table
    h = np.array([[s, s], [s, -s]])
    rotations = (h, h @ np.diag([1, 1j]))                          # H, then S then H
    preps = ([s, s], [s, s * 1j], [s, -s * 1j], [s, -s])          # |+>, |+i>, |-i>, |->
    for x, state in enumerate(preps):
        for y, u in enumerate(rotations):
            table[0, x, y] = abs((u @ np.array(state))[1]) ** 2
    return table


# ---------------------------------------------------------------------------
# stream: the QRNG user's CLI path
# ---------------------------------------------------------------------------

def _load_digests(seed: int) -> dict:
    if seed != DEFAULT_SEED or not DIGESTS_FILE.exists():
        return {}
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))["stream"]


def _stream(seed: int) -> Workload:
    out_dir = WORK_DIR / "stream"
    out_dir.mkdir(parents=True, exist_ok=True)
    cli_seeds = iter(int(s) for s in np.random.SeedSequence(seed).generate_state(12))
    recorded = _load_digests(seed)
    workload = Workload("stream", [], {"digests": {}, "working_set_lower_bound_bytes": {}})
    digests = workload.facts["digests"]
    reports: dict[str, dict] = {}

    def check_digests(tag: str, files: dict[str, Path]) -> None:
        got = {kind: sha256(path) for kind, path in files.items()}
        earlier = digests.setdefault(tag, got)
        expect(got == earlier, f"{tag}: bytes differ from the same command earlier in this run")
        if tag in recorded:
            expect(got == recorded[tag], f"{tag}: bytes differ from the digests recorded at seed {DEFAULT_SEED}")

    def run_op(tag: str, protocol: str, mode: str, rounds: int) -> Op:
        report_path, bits_path = out_dir / f"{tag}.json", out_dir / f"{tag}.bits"
        argv = [
            "run-protocol", "--protocol", protocol, "--mode", mode, "--rounds", str(rounds),
            "--seed", str(next(cli_seeds)), "--deterministic",
            "--out", str(report_path), "--bits-out", str(bits_path),
        ]

        def check(code) -> dict:
            report = reports[tag] = _read_report(code, report_path)
            expect(report["verdict"] == "PASS", f"{tag}: verdict {report['verdict']}")
            emitted, bins = report["emitted_bits"], report["bins"]
            conditions = {c["name"]: c for c in report["conditions"]}
            if mode == "generate":
                expect(emitted == bins["rand"] == rounds, f"{tag}: {emitted} bits from {rounds} rounds")
            elif protocol == "P":
                a = conditions["A_statistic"]
                expect(abs(a["estimate"] - QUANTUM_WIN) <= a["detail"]["radius"], f"{tag}: A off A*")
                for name in ("false_b0_given_x00", "false_b1_given_x11"):
                    expect(conditions[name]["detail"]["exceptions"] == 0, f"{tag}: {name} exceptions")
                expect(emitted == bins["rand"], f"{tag}: {emitted} bits, Rand bin {bins['rand']}")
            else:
                n_rand = bins["rand"]
                expect(emitted == n_rand - math.ceil(0.5 * n_rand), f"{tag}: {emitted} bits of {n_rand}")
                expect(abs(emitted / rounds - 0.25) < 0.01, f"{tag}: {emitted} bits, not about rounds/4")
            data = bits_path.read_bytes()
            expect(len(data) - data.count(b"\n") == emitted, f"{tag}: bit file length")
            check_digests(tag, {"report": report_path, "bits": bits_path})
            return {"bits": emitted}

        return Op(f"run-protocol.{tag}", lambda: run_cli(argv), check, rounds,
                  before=_unlink(report_path, bits_path))

    def analyze_op(tag: str) -> Op:
        report_path, bits_path = out_dir / f"{tag}.analyze.json", out_dir / f"{tag}.bits"
        argv = ["analyze", "--bits-in", str(bits_path), "--seed", str(next(cli_seeds)),
                "--deterministic", "--out", str(report_path)]

        def check(code) -> None:
            report = _read_report(code, report_path)
            source = reports.pop(tag, None)
            expect(source is not None, f"{tag}: the run before this analyze failed")
            n_bits = report["n_bits"]
            expect(n_bits == source["emitted_bits"], f"{tag}: read {n_bits} bits")
            for section in ("entropy", "battery"):
                expect(report[section] == source[section], f"{tag}: {section} differs after read_bits")
            ones = n_bits - round(source["entropy"]["zero_fraction"] * n_bits)
            expect(bits_path.read_bytes().count(b"1") == ones, f"{tag}: ones in the bit file")
            check_digests(f"{tag}.analyze", {"report": report_path})

        return Op(f"analyze.{tag}", lambda: run_cli(argv), check, before=_unlink(report_path))

    for rounds in STREAM_SIZES:
        size = f"1e{round(math.log10(rounds))}"
        workload.facts["working_set_lower_bound_bytes"][size] = rounds * STREAM_BYTES_PER_ROUND
        for protocol, mode in STREAM_CONFIGS:
            tag = f"{protocol}-{mode}-{size}"
            workload.ops += [run_op(tag, protocol, mode, rounds), analyze_op(tag)]
    return workload


# ---------------------------------------------------------------------------
# sweep: many short protocol runs over device pairs sharing one seed
# ---------------------------------------------------------------------------

def _sweep(seed: int) -> Workload:
    run_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
    configs = {
        p: protocols.ProtocolConfig(p, rounds=SWEEP_ROUNDS, seed=run_seed, delta=SWEEP_DELTA)
        for p in ("P", "Q")
    }
    workload = Workload("sweep", [], {"mixed_perfect_even_decisions": {}})

    def expect_abort(name: str):
        def check(result) -> None:
            _, verdict = result
            expect(verdict.decision == "ABORT", f"{name}: {verdict.decision}, expected ABORT")
            expect(verdict.output_bits.size == 0, f"{name}: aborted run emitted bits")
        return check

    def expect_honest(protocol: str):
        def check(result) -> None:
            bins, verdict = result
            expect(verdict.decision == "PASS", f"honest {protocol}: {verdict.decision}")
            conditions = {c.name: c for c in verdict.conditions}
            n_rand = len(bins.rand)
            if protocol == "P":
                a = conditions["A_statistic"]
                expect(abs(a.estimate - QUANTUM_WIN) <= a.detail["radius"], "honest P: A off A*")
                for name in ("false_b0_given_x00", "false_b1_given_x11"):
                    expect(conditions[name].detail["exceptions"] == 0, f"honest P: {name} exceptions")
                expect(verdict.output_bits.size == n_rand, "honest P: bits != Rand count")
            else:
                kept = n_rand - math.ceil(configs["Q"].gamma * n_rand)
                expect(verdict.output_bits.size == kept, "honest Q: bits != untested Rand count")
        return check

    def record_mixed(name: str):
        def check(result) -> None:
            _, verdict = result
            even = {c.name: c for c in verdict.conditions}["even_win"]
            expect(even.estimate == 1.0, f"{name}: even_win {even.estimate}")
            expect(any("mixed_perfect_even" in note for note in verdict.notes), f"{name}: no caveat")
            workload.facts["mixed_perfect_even_decisions"][name] = verdict.decision
        return check

    def op(name: str, protocol: str, make_pair: Callable, check) -> Op:
        return Op(name, lambda: protocols.run_protocol(configs[protocol], make_pair()), check, SWEEP_ROUNDS)

    for i, strategy in enumerate(games.enumerate_deterministic(GameId.TAVAKOLI)):
        name = f"classical.P.{i:03d}"
        workload.ops.append(op(name, "P", call(protocols, "classical_pair_from_strategy", strategy, "P"),
                               expect_abort(name)))
    for kind in _ABORTING_KINDS + ("mixed_perfect_even",):
        accepts = protocols.adversarial_devices(kind).protocol
        for protocol in ("P", "Q") if accepts is None else (accepts,):
            name = f"{kind}.{protocol}"
            check = record_mixed(name) if kind == "mixed_perfect_even" else expect_abort(name)
            workload.ops.append(op(name, protocol, call(protocols, "adversarial_devices", kind), check))
    name = "mixed_perfect_even.Q.coin_per_run"
    workload.ops.append(op(name, "Q", call(protocols, "adversarial_devices", "mixed_perfect_even",
                                           coin_per_round=False), record_mixed(name)))
    for protocol in ("P", "Q"):
        workload.ops.append(op(f"honest.{protocol}", protocol, call(protocols, "honest_devices", protocol),
                               expect_honest(protocol)))
    return workload


# ---------------------------------------------------------------------------
# exact: the games layer's exact path
# ---------------------------------------------------------------------------

def _exact(seed: int) -> Workload:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    workload = Workload("exact", [])
    ops = workload.ops

    def expect_scores(want: tuple[float, ...]):
        return lambda score: _expect_close(score_tuple(score), want, EXACT_TOL)

    for game in GameId:
        strategy = games.paper_strategy(game)
        space = ref_input_space(game)
        uniform = {x: 1.0 / len(space) for x in space}
        ops.append(Op(f"exact_score.{game.value}.uniform", call(games, "exact_score", game, strategy),
                      expect_scores(paper_scores(game, uniform))))
        for k in range(3):
            weights = dict(zip(space, (float(w) for w in rng.dirichlet(np.ones(len(space))))))
            ops.append(Op(f"exact_score.{game.value}.inputs{k}",
                          call(games, "exact_score", game, strategy, weights),
                          expect_scores(paper_scores(game, weights))))
        deterministic = list(games.enumerate_deterministic(game))
        for k in range(2):
            picks = rng.choice(len(deterministic), size=3, replace=False)
            weights = [float(w) for w in rng.dirichlet(np.ones(3))]
            components = [deterministic[i] for i in picks]
            mixture = ClassicalStrategy(game, mixture=tuple(zip(weights, components)))
            want = tuple(float(v) for v in np.array(weights) @ np.array([ref_scores(c) for c in components]))
            ops.append(Op(f"exact_score.{game.value}.mixture{k}", call(games, "exact_score", game, mixture),
                          expect_scores(want)))

    for game in GameId:
        def check_best(result, game=game) -> None:
            value, argmax = result
            want = 1.0 if game is GameId.GAME_G2 else 0.75
            expect(value == want, f"best_classical({game.value}) = {value}, expected {want}")
            expect(argmax.game is game and ref_scores(argmax)[-1] == value, "argmax does not attain the max")
        ops.append(Op(f"best_classical.{game.value}", call(games, "best_classical", game), check_best))

    def check_frontier(frontier) -> None:
        expect(len(frontier) == 256, f"frontier has {len(frontier)} entries")
        for even, odd, strategy in frontier:
            expect((even, odd) == ref_scores(strategy)[:2], "frontier entry off its strategy's scores")
    ops.append(Op("g2_deterministic_frontier", call(games, "g2_deterministic_frontier"), check_frontier))

    for pair in EquivalencePair:
        def check_pair(report, pair=pair) -> None:
            expect(report.pair is pair and report.passed, f"equivalence check {pair.value} failed")
        ops.append(Op(f"equivalence_check.{pair.value}", call(games, "equivalence_check", pair), check_pair))

    for game in GameId:
        strategy = games.paper_strategy(game)

        def check_sampler(sampler, game=game) -> None:
            draw = np.random.default_rng(0)
            for x in ref_input_space(game):
                io = sampler.sample(x, draw)
                expect(io.inputs == x, "sampled round has other inputs")
                if paper_cell_value(game, x) == 1.0:
                    expect(ref_wins(game, x, io.outputs), f"{game.value}: a certain win was lost")
        ops.append(Op(f"RoundSampler.{game.value}", call(games, "RoundSampler", game, strategy), check_sampler))

    for protocol in ("P", "Q"):
        pair = protocols.honest_devices(protocol)
        want = ref_response_table(protocol)

        def check_table(table, want=want) -> None:
            expect(table.shape == want.shape, f"table shape {table.shape}")
            expect(float(np.max(np.abs(table - want))) <= EXACT_TOL, "response table off the Born rule")
        ops.append(Op(f"response_table.{protocol}", call(pair, "response_table", protocol), check_table))
    return workload


# ---------------------------------------------------------------------------
# montecarlo: sampled games and guessing bounds through the CLI
# ---------------------------------------------------------------------------

def _within_four_se(freq: float, p: float, n: float) -> bool:
    return abs(freq - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)


def _montecarlo(seed: int) -> Workload:
    out_dir = WORK_DIR / "montecarlo"
    out_dir.mkdir(parents=True, exist_ok=True)
    cli_seeds = iter(int(s) for s in np.random.SeedSequence(seed).generate_state(len(GameId) + 1))
    workload = Workload("montecarlo", [])

    for game in GameId:
        path = out_dir / f"{game.value}.json"
        argv = ["play-game", "--game", game.value, "--rounds", str(MONTECARLO_ROUNDS),
                "--seed", str(next(cli_seeds)), "--deterministic", "--out", str(path)]

        def check(code, game=game, path=path) -> None:
            report = _read_report(code, path)
            exact, sampled = report["exact"], report["sampled"]
            expect(sampled["rounds"] == MONTECARLO_ROUNDS, "wrong round count")
            if game is GameId.GAME_G2:
                _expect_close((exact["even_win"], exact["odd_guess"], exact["augmented"]),
                              (1.0, 0.5, 0.75), REPORT_TOL)
                # the report omits the parity-class counts; each holds about half the rounds
                n_class = MONTECARLO_ROUNDS / 2
                expect(_within_four_se(sampled["even_win"], exact["even_win"], n_class), "even_win off exact")
                expect(_within_four_se(sampled["odd_guess"], exact["odd_guess"], n_class), "odd_guess off exact")
            else:
                want = 1.0 if game is GameId.PSEUDO_TELEPATHY3 else QUANTUM_WIN
                _expect_close((exact["value"],), (want,), REPORT_TOL)
                expect(_within_four_se(sampled["win_frequency"], exact["value"], MONTECARLO_ROUNDS),
                       f"{game.value}: sampled {sampled['win_frequency']} off exact {exact['value']}")

        workload.ops.append(Op(f"play-game.{game.value}", lambda argv=argv: run_cli(argv), check,
                               MONTECARLO_ROUNDS, before=_unlink(path)))

    path = out_dir / "guessing-bounds.json"
    argv = ["guessing-bounds", "--trials", str(GUESSING_TRIALS), "--seed", str(next(cli_seeds)),
            "--deterministic", "--out", str(path)]
    bounds = {"augmented_chsh_score": AUGMENTED_CHSH, "output_guess_rate": 0.75, "rand_bit_guess_rate": 0.5}

    def check_bounds(code) -> None:
        report = _read_report(code, path)
        expect(report["all_within_four_se"] is True, "all_within_four_se is false")
        expect([c["name"] for c in report["checks"]] == list(bounds), "unexpected bound checks")
        for c in report["checks"]:
            _expect_close((c["expected"],), (bounds[c["name"]],), REPORT_TOL)
            expect(c["trials"] == GUESSING_TRIALS, "wrong trial count")
            expect(_within_four_se(c["empirical"], bounds[c["name"]], GUESSING_TRIALS), f"{c['name']} off")

    # three experiments of `trials` rounds each
    workload.ops.append(Op("guessing-bounds", lambda: run_cli(argv), check_bounds,
                           3 * GUESSING_TRIALS, before=_unlink(path)))
    return workload


WORKLOADS = {"stream": _stream, "sweep": _sweep, "exact": _exact, "montecarlo": _montecarlo}
