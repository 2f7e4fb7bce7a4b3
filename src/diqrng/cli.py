"""Command-line front end and deterministic report serialization.

Every command emits a single JSON document whose key order and float
formatting are fixed, so identical manifests reproduce identical bytes.
Bound checks, equivalence assertions, entropy and battery results become
report rows by ``dataclasses.asdict``, so their field order is report key
order.  Output bits are dumped separately as ASCII '0'/'1' lines of 64 bits.

Exit codes: 0 success/PASS, 2 certification ABORT, 1 usage or runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, analysis, games, protocols
from .errors import DiqrngError
from .games import EquivalencePair, GameId
from .protocols import ProtocolConfig

_GAME_NAMES = {g.value: g for g in GameId}
_PAIR_NAMES = {p.value: p for p in EquivalencePair}
_DEVICE_NAMES = {
    "honest": None,
    "always-zero": "always_zero",
    "x1-forwarder": "x1_forwarder",
    "perfect-even-a": "perfect_even_family_A",
    "perfect-even-b": "perfect_even_family_B",
    "mixed-perfect-even": "mixed_perfect_even",
    "input-guesser": "input_guesser",
}

# the values of each choice option, whether it comes from a flag or a config file
_CHOICES = {
    "game": sorted(_GAME_NAMES),
    "protocol": ["P", "Q"],
    "device": sorted(_DEVICE_NAMES),
    "mode": ["test", "generate"],
    "pair": sorted(_PAIR_NAMES) + ["all"],
}

SEED_ENV_VAR = "DIQRNG_SEED"


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def _write_value(value, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        items = list(value.items())
        for i, (key, val) in enumerate(items):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _write_value(val, indent + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
        return
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(value):
            out.append(pad + "  ")
            _write_value(val, indent + 1, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "]")
        return
    if isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
        return
    if isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
        return
    if isinstance(value, (float, np.floating)):
        out.append(format(float(value), ".12g"))
        return
    if value is None:
        out.append("null")
        return
    out.append(json.dumps(str(value)))


def serialize_report(results: dict) -> str:
    """Deterministic JSON text: insertion key order, floats at 12 significant digits."""
    out: list[str] = []
    _write_value(results, 0, out)
    out.append("\n")
    return "".join(out)


_LINE_BITS = 64
_READ_BYTES = 65 << 10      # 1,024 full lines with LF breaks


def write_bits(path: str | Path, bits) -> None:
    """Dump bits as ASCII '0'/'1' lines of 64 (final line may be shorter).

    ``bits`` are 0/1 values or ``games.PackedBits``.  Anything else raises
    ValueError before the file is opened.  The lines are written block by
    block, from one block's buffer.
    """
    bits = analysis._as_bits(bits)
    lines = np.empty((games._CHUNK_ROUNDS // _LINE_BITS, _LINE_BITS + 1), dtype=np.uint8)
    lines[:, _LINE_BITS] = ord("\n")
    with Path(path).open("wb") as out:
        for block in analysis._blocks(bits):
            rows, tail = divmod(block.size, _LINE_BITS)
            np.add(block[: rows * _LINE_BITS].reshape(rows, _LINE_BITS), ord("0"), out=lines[:rows, :_LINE_BITS])
            out.write(lines[:rows].data)
            if tail:
                out.write((block[rows * _LINE_BITS :] + ord("0")).tobytes() + b"\n")


def read_bits(path: str | Path) -> games.PackedBits:
    """Parse a bit dump into sealed ``games.PackedBits``; line breaks may be LF, CRLF or CR.

    The file is read block by block; ``unpack()`` gives the bits as one
    uint8 array.
    """
    bits = games.PackedBits()
    with Path(path).open("rb") as dump:
        while block := dump.read(_READ_BYTES):
            values = np.frombuffer(block.translate(None, b"\r\n"), dtype=np.uint8) - ord("0")
            if values.size and values.max() > 1:
                raise ValueError("bit strings may contain only '0' and '1'")
            bits.append(values)
    return bits.drop()


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="diqrng", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: _Parser) -> None:
        p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
        p.add_argument("--config", type=str, default=None, help="JSON file supplying any flag; flags override it")
        p.add_argument("--out", type=str, default=None, help="write the report here instead of stdout")
        p.add_argument("--deterministic", action="store_true", default=None,
                       help="require an explicit seed and omit the timestamp")

    p = sub.add_parser("play-game", help="exact and sampled scores of one game")
    common(p)
    p.add_argument("--game", choices=_CHOICES["game"], default=None)
    p.add_argument("--rounds", type=int, default=None)

    p = sub.add_parser("run-protocol", help="run protocol P or Q and certify")
    common(p)
    p.add_argument("--protocol", choices=_CHOICES["protocol"], default=None)
    p.add_argument("--device", choices=_CHOICES["device"], default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--delta", type=float, default=None, help="abort-band confidence parameter")
    p.add_argument("--gamma", type=float, default=None, help="tested fraction of the Rand bin (protocol Q)")
    p.add_argument("--mode", choices=_CHOICES["mode"], default=None)
    p.add_argument("--bits-out", type=str, default=None, help="write output bits to this path")
    p.add_argument("--coin-per-run", action="store_true", default=None,
                   help="draw the adversarial shared coin once per run instead of per round")

    p = sub.add_parser("bruteforce-classical", help="enumerate all deterministic strategies")
    common(p)
    p.add_argument("--game", choices=_CHOICES["game"], default=None)

    p = sub.add_parser("equivalence-check", help="probability-equivalence checks between games")
    common(p)
    p.add_argument("--pair", choices=_CHOICES["pair"], default=None)

    p = sub.add_parser("guessing-bounds", help="simulated no-signaling guessing bounds")
    common(p)
    p.add_argument("--trials", type=int, default=None)

    p = sub.add_parser("analyze", help="entropy and randomness battery of a bit dump")
    common(p)
    p.add_argument("--bits-in", type=str, default=None, help="bit dump to analyze")

    return parser


_DEFAULTS: dict[str, dict] = {
    "play-game": {"game": "chsh", "rounds": 100_000},
    "run-protocol": {
        "protocol": "P",
        "device": "honest",
        "rounds": 100_000,
        "delta": 1e-6,
        "gamma": 0.5,
        "mode": "test",
        "bits_out": None,
        "coin_per_run": False,
    },
    "bruteforce-classical": {"game": "chsh"},
    "equivalence-check": {"pair": "all"},
    "guessing-bounds": {"trials": 100_000},
    "analyze": {"bits_in": None},
}


# the type of each option whose default is None; the others take their default's type
_NULLABLE_TYPES = {"seed": int, "out": str, "bits_out": str, "bits_in": str}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _check_type(key: str, value, default) -> None:
    if value is None and default is None:
        return
    want = _NULLABLE_TYPES[key] if default is None else type(default)
    # JSON has one number type, so a float option also takes an integer; a bool is never a number
    accepted = (int, float) if want is float else want
    if isinstance(value, bool) != (want is bool) or not isinstance(value, accepted):
        raise DiqrngError(f"option {key} must be {_TYPE_NAMES[want]}, got {json.dumps(value)}")


def _merge_options(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, each value checked against its option."""
    defaults = {**_DEFAULTS[args.command], "seed": None, "out": None, "deterministic": False}
    merged = dict(defaults)
    if args.config is not None:
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise DiqrngError("config file must hold a JSON object")
        for key, value in loaded.items():
            key = key.replace("-", "_")
            if key not in defaults:
                raise DiqrngError(f"unknown option {key} for {args.command} (known: {', '.join(defaults)})")
            merged[key] = value
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        merged[key] = value
    for key, value in merged.items():
        _check_type(key, value, defaults[key])
    for key, allowed in _CHOICES.items():
        if key in _DEFAULTS[args.command] and merged[key] not in allowed:
            raise DiqrngError(f"invalid {key} {merged[key]!r} (choose from {', '.join(allowed)})")
    return merged


def _resolve_seed(opts: dict) -> int:
    if opts.get("seed") is not None:
        return int(opts["seed"])
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return int(env)
    if opts.get("deterministic"):
        raise DiqrngError("--deterministic needs an explicit seed (flag, config file, or DIQRNG_SEED)")
    return secrets.randbits(63)


def _manifest(command: str, seed: int, opts: dict, config_keys: list[str]) -> dict:
    """What produced a report; identical manifests reproduce identical bytes.

    The timestamp is the one non-reproducible field and is omitted under --deterministic.
    """
    manifest = {
        "command": command,
        "tool_version": __version__,
        "seed": seed,
        "config": {key: opts[key] for key in config_keys},
    }
    if not opts.get("deterministic"):
        manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
    return manifest


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _score_dict(score) -> dict:
    if isinstance(score, games.G2Score):
        return {
            "even_win": score.even_win.value,
            "odd_guess": score.odd_guess.value,
            "augmented": score.augmented.value,
        }
    return {"value": score.value, "kind": score.kind.value}


def _cmd_play_game(opts: dict, seed: int) -> tuple[dict, int]:
    game = _GAME_NAMES[opts["game"]]
    n_rounds = int(opts["rounds"])
    if n_rounds < 1:
        raise DiqrngError(f"play-game needs at least one round, got {n_rounds}")
    if n_rounds > games.MAX_ROUNDS:
        raise ValueError(f"play-game takes at most {games.MAX_ROUNDS} rounds, got {n_rounds}")
    strategy = games.paper_strategy(game)
    exact = games.exact_score(game, strategy)
    sampler = games.RoundSampler(game, strategy)
    rng = np.random.default_rng(seed)
    rounds = sampler.sample_many(n_rounds, rng)
    mask = games.win_mask(game)
    wins = n_odd = odd_wins = 0
    for chunk in games.chunk_slices(n_rounds):
        inputs = rounds.inputs[chunk]
        won = mask[(*inputs.T, *rounds.outputs[chunk].T)]
        wins += np.count_nonzero(won)
        if game is GameId.GAME_G2:
            # an odd-weight G2 round wins exactly when its guess b == x1 is right
            odd = np.bitwise_xor.reduce(inputs, axis=1) == 1
            n_odd += np.count_nonzero(odd)
            odd_wins += np.count_nonzero(won[odd])
    if game is GameId.GAME_G2:
        if n_odd in (0, n_rounds):
            raise DiqrngError(
                f"g2 scores need even- and odd-weight rounds; {n_rounds} round(s) drew only one kind"
            )
        sampled = {
            "even_win": (wins - odd_wins) / (n_rounds - n_odd),
            "odd_guess": odd_wins / n_odd,
            "rounds": n_rounds,
        }
    else:
        sampled = {"win_frequency": wins / n_rounds, "rounds": n_rounds}
    report = {
        "manifest": _manifest("play-game", seed, opts, ["game", "rounds"]),
        "game": game.value,
        "exact": _score_dict(exact),
        "sampled": sampled,
    }
    return report, 0


def _cmd_bruteforce(opts: dict, seed: int) -> tuple[dict, int]:
    game = _GAME_NAMES[opts["game"]]
    max_score, argmax = games.best_classical(game)
    report = {
        "manifest": _manifest("bruteforce-classical", seed, opts, ["game"]),
        "game": game.value,
        "max_score": max_score,
        "argmax_tables": [list(t) for t in argmax.tables],
        "strategies_enumerated": sum(1 for _ in games.enumerate_deterministic(game)),
    }
    if game is GameId.GAME_G2:
        frontier: dict[tuple[float, float], int] = {}
        for even, odd, _ in games.g2_deterministic_frontier():
            frontier[(even, odd)] = frontier.get((even, odd), 0) + 1
        report["frontier"] = [
            {"even_win": even, "odd_guess": odd, "count": count}
            for (even, odd), count in sorted(frontier.items())
        ]
    return report, 0


def _cmd_equivalence(opts: dict, seed: int) -> tuple[dict, int]:
    pairs = list(EquivalencePair) if opts["pair"] == "all" else [_PAIR_NAMES[opts["pair"]]]
    entries = []
    for pair in pairs:
        result = games.equivalence_check(pair)
        entries.append(
            {
                "pair": pair.value,
                "passed": result.passed,
                "assertions": [asdict(a) for a in result.assertions],
            }
        )
    report = {
        "manifest": _manifest("equivalence-check", seed, opts, ["pair"]),
        "checks": entries,
        "all_passed": all(e["passed"] for e in entries),
    }
    return report, 0


def _cmd_guessing(opts: dict, seed: int) -> tuple[dict, int]:
    rng = np.random.default_rng(seed)
    result = protocols.guessing_game_bound_check(int(opts["trials"]), rng)
    report = {
        "manifest": _manifest("guessing-bounds", seed, opts, ["trials"]),
        "checks": [asdict(c) for c in result.checks],
        "all_within_four_se": result.passed,
    }
    return report, 0


def _bits_sections(bits: games.PackedBits) -> dict:
    sections: dict = {}
    if bits.size:
        sections["entropy"] = asdict(analysis.entropy_report(bits))
    if bits.size >= 100:
        sections["battery"] = [asdict(r) for r in analysis.randomness_battery(bits)]
    return sections


def _cmd_run_protocol(opts: dict, seed: int) -> tuple[dict, int]:
    config = ProtocolConfig(
        protocol=opts["protocol"],
        rounds=int(opts["rounds"]),
        seed=seed,
        mode=opts["mode"],
        delta=float(opts["delta"]),
        gamma=float(opts["gamma"]),
    )
    kind = _DEVICE_NAMES[opts["device"]]
    if kind is None:
        pair = protocols.honest_devices(config.protocol)
    else:
        pair = protocols.adversarial_devices(kind, coin_per_round=not opts["coin_per_run"])
    if opts["coin_per_run"] and not pair.uses_coin:
        raise DiqrngError(f"device {opts['device']} shares no coin, so --coin-per-run does not apply to it")
    bins, verdict = protocols.run_protocol(config, pair)

    config_keys = ["protocol", "device", "rounds", "delta", "gamma", "mode"]
    if opts["coin_per_run"]:
        config_keys.append("coin_per_run")      # recorded only when set, so default reports keep their bytes
    report = {
        "manifest": _manifest("run-protocol", seed, opts, config_keys),
        "verdict": verdict.decision,
        "bins": bins.counts(),
        "conditions": [
            {
                "name": c.name,
                "estimate": c.estimate,
                "ci": [c.ci_low, c.ci_high],
                "target": c.target,
                "satisfied": c.satisfied,
                "detail": dict(c.detail),
            }
            for c in verdict.conditions
        ],
    }
    report.update(_bits_sections(verdict.bits))
    if opts.get("bits_out") and verdict.bits.size:
        write_bits(opts["bits_out"], verdict.bits)
        report["output_bits_path"] = opts["bits_out"]
    report["emitted_bits"] = verdict.bits.size
    if verdict.notes:
        report["notes"] = list(verdict.notes)
    return report, 0 if verdict.decision == "PASS" else 2


def _cmd_analyze(opts: dict, seed: int) -> tuple[dict, int]:
    if not opts.get("bits_in"):
        raise DiqrngError("analyze needs --bits-in")
    bits = read_bits(opts["bits_in"])
    report = {
        "manifest": _manifest("analyze", seed, opts, ["bits_in"]),
        "n_bits": bits.size,
    }
    report.update(_bits_sections(bits))
    return report, 0


_COMMANDS = {
    "play-game": _cmd_play_game,
    "run-protocol": _cmd_run_protocol,
    "bruteforce-classical": _cmd_bruteforce,
    "equivalence-check": _cmd_equivalence,
    "guessing-bounds": _cmd_guessing,
    "analyze": _cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merge_options(args)
        seed = _resolve_seed(opts)
        report, code = _COMMANDS[args.command](opts, seed)
    except DiqrngError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, OverflowError, MemoryError) as exc:   # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = serialize_report(report)
    if opts.get("out"):
        Path(opts["out"]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
