"""Pinned report bytes: every command's --deterministic output against recorded sha256 digests.

Each case runs the CLI in-process from a scratch directory, so the bit-file
paths the reports name are the same relative paths on every machine.  A
case's record is its exit code, the sha256 of its stdout and stderr and,
for ``run-protocol``, the sha256 of its bit file.  A change that alters report
bytes on purpose re-records the table with

    PYTHONPATH=src python tests/test_report_bytes.py > tests/report_digests.json

and says in its change notes which reports changed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from diqrng import cli

DIGESTS = Path(__file__).with_name("report_digests.json")
ROUNDS = 20_000
# over two 65,536-round chunks: the emitted bits span packed pieces,
# protocol Q's tested prefix ends inside a later piece, and the sampled
# rounds and guessing trials span many draw pieces
LONG_ROUNDS = 140_000
SEED = 5
BITS = "bits.txt"


def _cases() -> dict[str, list[str]]:
    common = ["--seed", str(SEED), "--deterministic"]
    cases = {}
    for protocol in ("P", "Q"):
        for mode in ("test", "generate"):
            for device in sorted(cli._DEVICE_NAMES):
                cases[f"run-protocol-{protocol}-{mode}-{device}"] = [
                    "run-protocol", "--protocol", protocol, "--mode", mode, "--device", device,
                    "--rounds", str(ROUNDS), "--bits-out", BITS, *common,
                ]
    for game in sorted(cli._GAME_NAMES):
        cases[f"play-game-{game}"] = ["play-game", "--game", game, "--rounds", str(ROUNDS), *common]
        cases[f"bruteforce-classical-{game}"] = ["bruteforce-classical", "--game", game, *common]
    cases["guessing-bounds"] = ["guessing-bounds", "--trials", str(ROUNDS), *common]
    cases["equivalence-check"] = ["equivalence-check", "--pair", "all", *common]
    # analyze reads the bit file its run-protocol case wrote: a balanced stream and a constant one
    for device in ("honest", "always-zero"):
        cases[f"analyze-P-generate-{device}"] = ["analyze", "--bits-in", BITS, *common]
    for game in sorted(cli._GAME_NAMES):
        cases[f"play-game-{game}-{LONG_ROUNDS}"] = ["play-game", "--game", game, "--rounds", str(LONG_ROUNDS), *common]
    cases[f"guessing-bounds-{LONG_ROUNDS}"] = ["guessing-bounds", "--trials", str(LONG_ROUNDS), *common]
    for protocol, mode in (("P", "generate"), ("Q", "test")):
        name = f"{protocol}-{mode}-honest-{LONG_ROUNDS}"
        cases[f"run-protocol-{name}"] = [
            "run-protocol", "--protocol", protocol, "--mode", mode, "--device", "honest",
            "--rounds", str(LONG_ROUNDS), "--bits-out", BITS, *common,
        ]
        cases[f"analyze-{name}"] = ["analyze", "--bits-in", BITS, *common]
    # every option left at its default; analyze has no default bit file, so it exits 1
    for command in cli._COMMANDS:
        cases[f"{command}-defaults"] = [command, *common]
    return cases


CASES = _cases()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(name: str, workdir: Path) -> dict:
    """Run one case in ``workdir`` and return its exit code and digests."""
    argv, bits = CASES[name], workdir / BITS
    bits.unlink(missing_ok=True)
    if argv[0] == "analyze" and "--bits-in" in argv:
        assert main_quiet(CASES["run-protocol-" + name.removeprefix("analyze-")], workdir)[0] == 0
    code, out, err = main_quiet(argv, workdir)
    entry = {"exit": code, "report": _sha256(out.encode("utf-8")), "stderr": _sha256(err.encode("utf-8"))}
    if argv[0] == "run-protocol":
        entry["bits"] = _sha256(bits.read_bytes()) if bits.exists() else None
    return entry


def main_quiet(argv: list[str], workdir: Path) -> tuple[int, str, str]:
    """cli.main(argv) run in workdir, returning its exit code, stdout and stderr."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_recorded_digests(name, tmp_path):
    want = json.loads(DIGESTS.read_text())
    assert sorted(want) == sorted(CASES)
    assert record(name, tmp_path) == want[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        table = {name: record(name, Path(scratch)) for name in sorted(CASES)}
    json.dump(table, sys.stdout, indent=2)
    sys.stdout.write("\n")
