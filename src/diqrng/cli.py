"""Command-line front end and deterministic report serialization.

Every command emits a single JSON document whose key order and float
formatting are fixed, so identical manifests reproduce identical bytes.
Protocol conditions, bound checks, equivalence assertions, entropy and
battery results become report rows by ``dataclasses.asdict``, so their field
order is report key order.  Output bits are dumped separately as ASCII
'0'/'1' lines of 64 bits.

Each option is declared once, in the option table (``_SHARED_OPTIONS`` and
``_COMMAND_OPTIONS``): its default, type and help.  The parser, the config
file's keys, the type checks and the manifest all read that table.

A report is its manifest followed by the command's body.  The manifest's
``config`` records the command's own options in table order, leaving out
output paths (names ending in ``_out``) and recording a flag only when it is
set.  Exit codes: 2 when the body's verdict is ABORT, 1 on a usage or
runtime error, 0 otherwise.
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
from .errors import BadDistribution, DiqrngError
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


# Every option, declared once: name -> (default, type, help).  A bool option is
# a store_true flag, and an option named in _CHOICES takes only those values.
# The shared options come first in --help and last in the known-option list.
_SHARED_OPTIONS = {
    "seed": (None, int, "64-bit RNG seed"),
    "config": (None, str, "JSON file supplying any flag; flags override it"),
    "out": (None, str, "write the report here instead of stdout"),
    "deterministic": (False, bool, "require an explicit seed and omit the timestamp"),
}
_COMMAND_OPTIONS = {
    "play-game": ("exact and sampled scores of one game", {
        "game": ("chsh", str, "game to play"),
        "rounds": (100_000, int, "rounds to sample"),
    }),
    "run-protocol": ("run protocol P or Q and certify", {
        "protocol": ("P", str, "protocol to run"),
        "device": ("honest", str, "device pair to run it on"),
        "rounds": (100_000, int, "protocol rounds"),
        "delta": (1e-6, float, "abort-band confidence parameter"),
        "gamma": (0.5, float, "tested fraction of the Rand bin (protocol Q)"),
        "mode": ("test", str, "protocol mode"),
        "bits_out": (None, str, "write output bits to this path"),
        "coin_per_run": (False, bool, "draw the adversarial shared coin once per run instead of per round"),
    }),
    "bruteforce-classical": ("enumerate all deterministic strategies", {
        "game": ("chsh", str, "game to search"),
    }),
    "equivalence-check": ("probability-equivalence checks between games", {
        "pair": ("all", str, "game pair to check"),
    }),
    "guessing-bounds": ("simulated no-signaling guessing bounds", {
        "trials": (100_000, int, "Monte Carlo trials per bound"),
    }),
    "analyze": ("entropy and randomness battery of a bit dump", {
        "bits_in": (None, str, "bit dump to analyze"),
    }),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="diqrng", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (summary, own) in _COMMAND_OPTIONS.items():
        p = sub.add_parser(command, help=summary)
        for name, (default, kind, text) in {**_SHARED_OPTIONS, **own}.items():
            # every flag defaults to None, so that an absent flag leaves the config file's value
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_true", default=None, help=text)
            else:
                if default is not None:
                    text += f" (default: {default})"
                p.add_argument(flag, type=kind, choices=_CHOICES.get(name), default=None, help=text)
    return parser


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _check_type(key: str, value, option: tuple) -> None:
    default, want, _ = option
    if value is None and default is None:
        return
    # JSON has one number type, so a float option also takes an integer; a bool is never a number
    accepted = (int, float) if want is float else want
    if isinstance(value, bool) != (want is bool) or not isinstance(value, accepted):
        raise DiqrngError(f"option {key} must be {_TYPE_NAMES[want]}, got {json.dumps(value)}")


def _merge_options(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, each value checked against its option."""
    options = {**_COMMAND_OPTIONS[args.command][1], **_SHARED_OPTIONS}
    del options["config"]       # the file cannot name itself
    merged = {key: default for key, (default, _, _) in options.items()}
    if args.config is not None:
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise DiqrngError("config file must hold a JSON object")
        for key, value in loaded.items():
            key = key.replace("-", "_")
            if key not in options:
                raise DiqrngError(f"unknown option {key} for {args.command} (known: {', '.join(options)})")
            merged[key] = value
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        merged[key] = value
    for key, value in merged.items():
        _check_type(key, value, options[key])
    for key, allowed in _CHOICES.items():
        if key in options and merged[key] not in allowed:
            raise DiqrngError(f"invalid {key} {merged[key]!r} (choose from {', '.join(allowed)})")
    return merged


def _resolve_seed(opts: dict) -> int:
    """The seed from the flag or config file, else DIQRNG_SEED, else OS entropy."""
    seed = opts["seed"]
    if seed is None and SEED_ENV_VAR in os.environ:
        text = os.environ[SEED_ENV_VAR]
        try:
            seed = int(text)
        except ValueError:
            raise DiqrngError(f"{SEED_ENV_VAR} must be an integer, got {text!r}") from None
    if seed is None:
        if opts["deterministic"]:
            raise DiqrngError("--deterministic needs an explicit seed (flag, config file, or DIQRNG_SEED)")
        return secrets.randbits(63)
    if seed < 0:
        raise DiqrngError(f"seed must be nonnegative, got {seed}")
    return seed


def _manifest(command: str, seed: int, opts: dict) -> dict:
    """What produced a report; identical manifests reproduce identical bytes.

    The config holds the command's own options but its output paths, and a
    flag only when it is set.  The timestamp is the one non-reproducible
    field and is omitted under --deterministic.
    """
    own = _COMMAND_OPTIONS[command][1]
    manifest = {
        "command": command,
        "tool_version": __version__,
        "seed": seed,
        "config": {
            key: opts[key] for key, (_, kind, _) in own.items()
            if not key.endswith("_out") and (kind is not bool or opts[key])
        },
    }
    if not opts["deterministic"]:
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


def _cmd_play_game(opts: dict, seed: int) -> dict:
    game = _GAME_NAMES[opts["game"]]
    n_rounds = int(opts["rounds"])
    if n_rounds < 1:
        raise DiqrngError(f"play-game needs at least one round, got {n_rounds}")
    if n_rounds > games.MAX_ROUNDS:
        raise ValueError(f"play-game takes at most {games.MAX_ROUNDS} rounds, got {n_rounds}")
    strategy = games.paper_strategy(game)
    exact = games.exact_score(game, strategy)
    sampler = games.RoundSampler(game, strategy)
    try:
        scores = games.mass_score(game, sampler.tally(n_rounds, np.random.default_rng(seed)))
    except BadDistribution:
        raise DiqrngError(
            f"g2 scores need even- and odd-weight rounds; {n_rounds} round(s) drew only one kind"
        ) from None
    names = ("even_win", "odd_guess") if game is GameId.GAME_G2 else ("win_frequency",)
    sampled = {**dict(zip(names, scores)), "rounds": n_rounds}
    return {"game": game.value, "exact": _score_dict(exact), "sampled": sampled}


def _cmd_bruteforce(opts: dict, seed: int) -> dict:
    game = _GAME_NAMES[opts["game"]]
    max_score, argmax = games.best_classical(game)
    report = {
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
    return report


def _cmd_equivalence(opts: dict, seed: int) -> dict:
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
    return {"checks": entries, "all_passed": all(e["passed"] for e in entries)}


def _cmd_guessing(opts: dict, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    result = protocols.guessing_game_bound_check(int(opts["trials"]), rng)
    return {"checks": [asdict(c) for c in result.checks], "all_within_four_se": result.passed}


def _bits_sections(bits: games.PackedBits) -> dict:
    sections: dict = {}
    if bits.size:
        sections["entropy"] = asdict(analysis.entropy_report(bits))
    if bits.size >= 100:
        sections["battery"] = [asdict(r) for r in analysis.randomness_battery(bits)]
    return sections


def _cmd_run_protocol(opts: dict, seed: int) -> dict:
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
    report = {
        "verdict": verdict.decision,
        "bins": bins.counts(),
        "conditions": [asdict(c) for c in verdict.conditions],
        **_bits_sections(verdict.bits),
    }
    if opts["bits_out"] and verdict.bits.size:
        write_bits(opts["bits_out"], verdict.bits)
        report["output_bits_path"] = opts["bits_out"]
    report["emitted_bits"] = verdict.bits.size
    if verdict.notes:
        report["notes"] = list(verdict.notes)
    return report


def _cmd_analyze(opts: dict, seed: int) -> dict:
    if not opts["bits_in"]:
        raise DiqrngError("analyze needs --bits-in")
    bits = read_bits(opts["bits_in"])
    return {"n_bits": bits.size, **_bits_sections(bits)}


_COMMANDS = {
    "play-game": _cmd_play_game,
    "run-protocol": _cmd_run_protocol,
    "bruteforce-classical": _cmd_bruteforce,
    "equivalence-check": _cmd_equivalence,
    "guessing-bounds": _cmd_guessing,
    "analyze": _cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        opts = _merge_options(args)
        seed = _resolve_seed(opts)
        body = _COMMANDS[args.command](opts, seed)
    # a JSONDecodeError is a ValueError
    except (DiqrngError, OSError, ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = serialize_report({"manifest": _manifest(args.command, seed, opts), **body})
    if opts["out"]:
        Path(opts["out"]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 2 if body.get("verdict") == "ABORT" else 0


if __name__ == "__main__":
    raise SystemExit(main())
