"""CLI commands, report serialization, bit dumps, exit codes, determinism."""

import inspect
import json
import math
import re

import numpy as np
import pytest

from diqrng import analysis, cli, games, protocols, qcore, stream
from diqrng.cli import main, read_bits, serialize_report, write_bits


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


class TestSerializeReport:
    def test_twelve_significant_digits(self):
        text = serialize_report({"a": 0.5 * (1 + 1 / math.sqrt(2))})
        assert '"a": 0.853553390593' in text

    def test_valid_json_with_numpy_scalars(self):
        doc = {
            "i": np.int64(3),
            "f": np.float64(0.25),
            "b": np.bool_(True),
            "nested": {"list": [1, 2.5, "x", None]},
        }
        parsed = json.loads(serialize_report(doc))
        assert parsed == {"i": 3, "f": 0.25, "b": True, "nested": {"list": [1, 2.5, "x", None]}}

    def test_key_order_is_insertion_order(self):
        text = serialize_report({"z": 1, "a": 2})
        assert text.index('"z"') < text.index('"a"')

    def test_empty_containers(self):
        assert json.loads(serialize_report({"d": {}, "l": []})) == {"d": {}, "l": []}


# Each value record the engine reports, with field values to build one from.
_SCORES = tuple(games.GameScore(0.5, games.ScoreKind[name]) for name in ("EVEN_WIN", "ODD_GUESS", "AUGMENTED"))
RECORDS = {
    analysis.Estimate: (0.5, 1, 2, 0.1, 0.9, 0.99),
    analysis.EntropyReport: (1.0, 1.0, 2, 0.5),
    analysis.BatteryResult: ("monobit", 0.0, 1.0, True),
    games.G2Score: _SCORES,
    games.RoundIO: ((0, 1), (1, 0)),
    games.EquivalenceAssertion: ("total_score", True, 0.5, 0.5),
    games.EquivalenceReport: (games.EquivalencePair.G_VS_CHSH1, ()),
    qcore.MeasurementResult: (0, 1.0, qcore.KET_ZERO),
    protocols.ConditionCheck: ("rand_nonempty", 1.0, (1.0, 1.0), 1.0, True, {"trials": 3}),
    protocols.BoundCheck: ("output_guess_rate", 0.75, 0.75, 0.01, 100, True),
    protocols.GuessingBoundsReport: ((),),
}


@pytest.mark.parametrize("kind", list(RECORDS), ids=lambda kind: kind.__name__)
def test_records_are_immutable_values_whose_rows_keep_field_order(kind):
    values = RECORDS[kind]
    fields = list(inspect.signature(kind).parameters)
    record = kind(*values)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    assert record == kind(*values) and record is not kind(*values)
    assert repr(record) == f"{kind.__name__}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    row = cli._row(record)
    assert list(row) == fields and list(row.values()) == list(values)


class TestBitDumps:
    def test_64_bit_lines(self, tmp_path):
        bits = np.arange(150) % 2
        path = tmp_path / "dump.bits"
        write_bits(path, bits)
        lines = path.read_text().splitlines()
        assert [len(l) for l in lines] == [64, 64, 22]
        assert np.array_equal(read_bits(path).unpack(), bits)

    def test_round_trip_empty_line_handling(self, tmp_path):
        path = tmp_path / "dump.bits"
        write_bits(path, np.array([1, 0, 1], dtype=np.uint8))
        assert list(read_bits(path).unpack()) == [1, 0, 1]

    def test_crlf_and_cr_line_breaks(self, tmp_path):
        bits = np.arange(150) % 3 % 2
        path = tmp_path / "dump.bits"
        write_bits(path, bits)
        lf = path.read_bytes()
        for newline in (b"\r\n", b"\r"):
            path.write_bytes(lf.replace(b"\n", newline))
            assert np.array_equal(read_bits(path).unpack(), bits)

    @pytest.mark.parametrize("junk", [b"0120\n", b"01 0\n", b"01\t\n", b"\xff01\n"])
    def test_other_bytes_rejected(self, tmp_path, junk):
        path = tmp_path / "dump.bits"
        path.write_bytes(junk)
        with pytest.raises(ValueError, match="only '0' and '1'"):
            read_bits(path)

    def test_write_memory_is_one_byte_per_bit(self, tmp_path, traced_peak):
        bits = np.random.default_rng(3).integers(0, 2, 2_000_000).astype(np.uint8)
        _, peak = traced_peak(lambda: write_bits(tmp_path / "dump.bits", bits))
        # the file's bytes, 65 per 64 bits, and nothing per bit besides
        assert peak <= 1.05 * bits.size + 2**16, f"{peak / bits.size:.2f} B/bit"

    @pytest.mark.parametrize("n,read_bytes", [(1_000, 1), (1_000, 65), (1_000, 131), (150_000, cli._READ_BYTES)])
    def test_line_breaks_across_read_blocks(self, tmp_path, monkeypatch, n, read_bytes):
        # read blocks of 65 bytes split every CRLF full line between its \r and its \n
        monkeypatch.setattr(cli, "_READ_BYTES", read_bytes)
        bits = np.random.default_rng(n + read_bytes).integers(0, 2, n).astype(np.uint8)
        path = tmp_path / "dump.bits"
        write_bits(path, bits)
        lf = path.read_bytes()
        for newline in (b"\n", b"\r\n", b"\r"):
            path.write_bytes(lf.replace(b"\n", newline))
            assert read_bits(path) == stream.PackedBits(bits)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 65_537, 150_000])
    def test_packed_bits_dump_as_their_array(self, tmp_path, n):
        bits = np.random.default_rng(n).integers(0, 2, n).astype(np.uint8)
        write_bits(tmp_path / "array.bits", bits)
        write_bits(tmp_path / "packed.bits", stream.PackedBits(bits))
        data = (tmp_path / "packed.bits").read_bytes()
        assert data == (tmp_path / "array.bits").read_bytes()
        assert [len(line) for line in data.splitlines()] == [64] * (n // 64) + [n % 64] * (n % 64 > 0)
        assert np.array_equal(read_bits(tmp_path / "packed.bits").unpack(), bits)

    @pytest.mark.parametrize(
        "bits", [np.array([0, 2, 1, 5]), [0.5, 1.0], np.zeros((2, 64), dtype=np.uint8), "0121"],
    )
    def test_write_rejects_what_read_would(self, tmp_path, bits):
        path = tmp_path / "dump.bits"
        with pytest.raises(ValueError, match="0/1 valued|one-dimensional|only .0. and .1."):
            write_bits(path, bits)
        assert not path.exists()

    def test_write_holds_one_block_of_lines(self, tmp_path, traced_peak):
        bits = np.random.default_rng(3).integers(0, 2, 2_000_000).astype(np.uint8)
        for given in (bits, stream.PackedBits(bits)):
            _, peak = traced_peak(lambda: write_bits(tmp_path / "dump.bits", given))
            # 1,024 lines of 65 bytes and one block of unpacked bits, at any length
            assert peak <= 2**18, f"{peak / bits.size:.3f} B/bit"

    def test_read_memory_is_two_bytes_per_bit(self, tmp_path, traced_peak):
        bits = np.random.default_rng(4).integers(0, 2, 2_000_000).astype(np.uint8)
        path = tmp_path / "dump.bits"
        write_bits(path, bits)
        parsed, peak = traced_peak(lambda: read_bits(path))
        assert np.array_equal(parsed.unpack(), bits)
        # the file's bytes and then the stripped copy, or the stripped copy and the bits
        assert peak <= 2.1 * bits.size + 2**16, f"{peak / bits.size:.2f} B/bit"


class TestReportMemory:
    """The report of n bits holds one float64 column of n values besides the packed bits."""

    N = 1 << 22

    def test_analyze(self, tmp_path, traced_peak):
        bits = np.random.default_rng(9).integers(0, 2, self.N).astype(np.uint8)
        path = tmp_path / "dump.bits"
        write_bits(path, bits)
        del bits
        argv = ["analyze", "--bits-in", str(path), "--seed", "1", "--deterministic", "--out", str(tmp_path / "r.json")]
        assert main(argv) == 0      # first-call allocations
        code, peak = traced_peak(lambda: main(argv))
        assert code == 0
        assert peak <= 8 * self.N + 2**20, f"{peak / self.N:.3f} B/bit"

    def test_bits_sections_of_packed_bits(self, traced_peak):
        packed = stream.PackedBits(np.random.default_rng(10).integers(0, 2, self.N).astype(np.uint8))
        sections, peak = traced_peak(lambda: cli._bits_sections(packed))
        assert sections["entropy"]["n_bits"] == self.N and len(sections["battery"]) == 3
        assert peak <= 8 * self.N + 2**20, f"{peak / self.N:.3f} B/bit"


def test_report_reads_its_bits_in_two_passes(monkeypatch):
    packed = stream.PackedBits(np.random.default_rng(11).integers(0, 2, 3 * 65_536 + 7).astype(np.uint8)).drop()
    passes = []
    blocks = stream.PackedBits.blocks

    def counted_blocks(self):
        passes.append(self.size)
        return blocks(self)

    monkeypatch.setattr(stream.PackedBits, "blocks", counted_blocks)
    sections = cli._bits_sections(packed)
    assert sections["entropy"]["n_bits"] == packed.size and len(sections["battery"]) == 3
    # one pass counts the ones and the changes for the entropy and the battery; one fills the serial column
    assert passes == [packed.size, packed.size]


class TestExitCodes:
    def test_pass_is_zero(self, capsys, tmp_path):
        code, out = run_cli(
            capsys,
            ["run-protocol", "--protocol", "P", "--rounds", "20000", "--seed", "42", "--deterministic"],
        )
        assert code == 0
        # the quantum-value target rendered at 12 significant digits
        assert '"target": 0.853553390593' in out

    def test_abort_is_two(self, capsys):
        code, report = run_json(
            capsys,
            [
                "run-protocol", "--protocol", "Q", "--device", "x1-forwarder",
                "--rounds", "10000", "--seed", "42", "--deterministic",
            ],
        )
        assert code == 2
        assert report["verdict"] == "ABORT"
        by_name = {c["name"]: c for c in report["conditions"]}
        assert by_name["odd_guess_half"]["estimate"] == 1.0

    @pytest.mark.parametrize(
        "protocol,kind",
        [
            ("P", "always-zero"),
            ("P", "x1-forwarder"),
            ("P", "input-guesser"),
            ("Q", "always-zero"),
            ("Q", "x1-forwarder"),
            ("Q", "perfect-even-a"),
            ("Q", "perfect-even-b"),
            ("Q", "input-guesser"),
        ],
    )
    def test_adversarial_aborts_exit_two(self, capsys, protocol, kind):
        code, report = run_json(
            capsys,
            ["run-protocol", "--protocol", protocol, "--device", kind,
             "--rounds", "20000", "--seed", "7", "--deterministic"],
        )
        assert code == 2
        assert report["verdict"] == "ABORT"

    @pytest.mark.parametrize(
        "protocol,device",
        [("P", "honest"), ("Q", "honest"), ("P", "always-zero"), ("P", "x1-forwarder"),
         ("Q", "perfect-even-a"), ("Q", "perfect-even-b")],
    )
    def test_coin_per_run_without_a_shared_coin_is_one(self, capsys, protocol, device):
        code = main(["run-protocol", "--protocol", protocol, "--device", device,
                     "--rounds", "2000", "--seed", "1", "--coin-per-run"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith(f"error: device {device} shares no coin")

    def test_coin_per_run_input_guesser_emits_its_coin(self, capsys):
        code, report = run_json(
            capsys,
            ["run-protocol", "--protocol", "P", "--device", "input-guesser", "--mode", "generate",
             "--rounds", "2000", "--seed", "1", "--deterministic", "--coin-per-run"],
        )
        assert code == 0
        assert report["manifest"]["config"]["coin_per_run"] is True
        assert report["entropy"]["zero_fraction"] in (0.0, 1.0)

    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run-protocol", "--protocol", "X"])
        assert err.value.code == 1

    def test_deterministic_without_seed_is_one(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        code = main(["play-game", "--game", "chsh", "--rounds", "100", "--deterministic"])
        assert code == 1

    @pytest.mark.parametrize("protocol", ["P", "Q"])
    @pytest.mark.parametrize("delta", ["1e-16", "1e-17", "5e-324"])
    def test_delta_below_float_resolution_is_one_naming_it(self, capsys, protocol, delta):
        code = main(["run-protocol", "--protocol", protocol, "--rounds", "1000", "--delta", delta, "--seed", "1"])
        assert code == 1
        message = f"delta must be at least about 1.7e-16, so that 1 - delta/2 is below 1, got {float(delta)}"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_runtime_error_is_one(self, capsys):
        code = main(["analyze", "--seed", "1"])
        assert code == 1

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_report_path_is_one(self, capsys, tmp_path, where):
        out = tmp_path / "missing" / "report.json" if where == "missing directory" else tmp_path
        code = main(["play-game", "--game", "chsh", "--rounds", "10", "--seed", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and str(out) in captured.err

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_report_path_leaves_no_bit_file(self, capsys, tmp_path, where):
        (tmp_path / "dir").mkdir()
        out = tmp_path / "missing" / "r.json" if where == "missing directory" else tmp_path / "dir"
        argv = ["run-protocol", "--protocol", "P", "--mode", "generate", "--rounds", "2000", "--seed", "1"]
        code = main(argv + ["--bits-out", str(tmp_path / "fb.bits"), "--out", str(out)])
        assert code == 1 and capsys.readouterr().err.startswith("error: ")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["dir"]
        # a bit file the run did not write stays
        (tmp_path / "fb.bits").write_text("01\n")
        assert main(argv + ["--bits-out", str(tmp_path / "fb.bits"), "--delta", "0"]) == 1
        assert (tmp_path / "fb.bits").read_text() == "01\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["play-game", "--game", "g2", "--rounds", "1"],
            ["play-game", "--rounds", "0"],
        ],
    )
    def test_play_game_too_few_rounds_is_one(self, capsys, argv):
        code = main(argv + ["--seed", "1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_config_with_unknown_choice_is_one(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"game": "nope"}))
        code = main(["play-game", "--config", str(config), "--seed", "1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: invalid game 'nope'")

    @pytest.mark.parametrize(
        "command,config,message",
        [
            ("play-game", {"rounds": [1]}, "option rounds must be an integer"),
            ("play-game", {"seed": [3]}, "option seed must be an integer"),
            ("play-game", {"rounds": "5"}, "option rounds must be an integer"),
            ("play-game", {"rounds": 2.5}, "option rounds must be an integer"),
            ("play-game", {"rounds": True}, "option rounds must be an integer"),
            ("play-game", {"game": 3}, "option game must be a string"),
            ("play-game", {"roundz": 5}, "unknown option roundz for play-game"),
            ("play-game", {"trials": 5}, "unknown option trials for play-game"),
            ("run-protocol", {"delta": "small"}, "option delta must be a number"),
            ("run-protocol", {"gamma": None}, "option gamma must be a number"),
            ("run-protocol", {"coin-per-run": 1}, "option coin_per_run must be true or false"),
            ("run-protocol", {"bits_out": 7}, "option bits_out must be a string"),
            ("analyze", {"deterministic": "yes"}, "option deterministic must be true or false"),
            ("play-game", [{"rounds": 5}], "config file must hold a JSON object"),
        ],
    )
    def test_config_with_bad_key_or_type_is_one(self, capsys, tmp_path, command, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main([command, "--config", str(path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_config_number_options_take_integers(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"gamma": 1, "rounds": 2000, "seed": None}))
        code, report = run_json(capsys, ["run-protocol", "--config", str(path), "--seed", "1", "--protocol", "Q"])
        assert code in (0, 2)
        assert report["manifest"]["config"]["gamma"] == 1


class TestDeterminism:
    def test_identical_manifests_identical_bytes(self, tmp_path, monkeypatch):
        argv = [
            "run-protocol", "--protocol", "Q", "--rounds", "30000", "--seed", "99",
            "--deterministic", "--bits-out", "run.bits", "--out", "report.json",
        ]
        outputs = []
        for sub in ("one", "two"):
            d = tmp_path / sub
            d.mkdir()
            monkeypatch.chdir(d)
            assert main(argv) == 0
            outputs.append(((d / "report.json").read_bytes(), (d / "run.bits").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_coin_per_run_recorded_in_manifest(self, capsys):
        argv = ["run-protocol", "--protocol", "Q", "--device", "mixed-perfect-even",
                "--rounds", "2000", "--seed", "5", "--deterministic"]
        code_per_round, per_round = run_json(capsys, argv)
        code_per_run, per_run = run_json(capsys, argv + ["--coin-per-run"])
        assert {code_per_round, code_per_run} == {0, 2}      # the flag changes the verdict ...
        assert "coin_per_run" not in per_round["manifest"]["config"]
        # ... so the manifest that reproduces the run records it
        assert per_run["manifest"]["config"] == {**per_round["manifest"]["config"], "coin_per_run": True}

    def test_seed_changes_bits(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["run-protocol", "--protocol", "P", "--rounds", "5000", "--seed", "1",
              "--deterministic", "--bits-out", "a.bits", "--out", "a.json"])
        main(["run-protocol", "--protocol", "P", "--rounds", "5000", "--seed", "2",
              "--deterministic", "--bits-out", "b.bits", "--out", "b.json"])
        assert (tmp_path / "a.bits").read_bytes() != (tmp_path / "b.bits").read_bytes()

    def test_timestamp_only_without_deterministic(self, capsys):
        _, report = run_json(capsys, ["bruteforce-classical", "--game", "chsh", "--seed", "1"])
        assert "timestamp" in report["manifest"]
        _, report = run_json(
            capsys, ["bruteforce-classical", "--game", "chsh", "--seed", "1", "--deterministic"]
        )
        assert "timestamp" not in report["manifest"]


class TestSeedResolution:
    def test_env_var_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "4242")
        _, report = run_json(capsys, ["play-game", "--game", "chsh", "--rounds", "100", "--deterministic"])
        assert report["manifest"]["seed"] == 4242

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "4242")
        _, report = run_json(
            capsys, ["play-game", "--game", "chsh", "--rounds", "100", "--seed", "7", "--deterministic"]
        )
        assert report["manifest"]["seed"] == 7

    def test_random_seed_recorded(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        _, report = run_json(capsys, ["play-game", "--game", "chsh", "--rounds", "100"])
        assert isinstance(report["manifest"]["seed"], int)

    @pytest.mark.parametrize("source,seed", [("flag", -1), ("config", -1), ("env", -2)])
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_negative_seed_is_one(self, capsys, monkeypatch, tmp_path, command, source, seed):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        argv = [command, "--deterministic"]
        if source == "flag":
            argv += ["--seed", str(seed)]
        elif source == "config":
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"seed": seed}))
            argv += ["--config", str(path)]
        else:
            monkeypatch.setenv(cli.SEED_ENV_VAR, str(seed))
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: seed must be nonnegative, got {seed}\n")

    @pytest.mark.parametrize("value", ["x", "1.5", ""])
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_malformed_env_seed_names_the_variable(self, capsys, monkeypatch, command, value):
        monkeypatch.setenv(cli.SEED_ENV_VAR, value)
        assert main([command, "--deterministic"]) == 1
        assert capsys.readouterr() == ("", f"error: DIQRNG_SEED must be an integer, got {value!r}\n")


class TestConfigFile:
    def test_file_supplies_flags_and_cli_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"game": "tavakoli", "rounds": 500, "seed": 3}))
        _, report = run_json(
            capsys,
            ["play-game", "--config", str(cfg), "--rounds", "1000", "--deterministic"],
        )
        assert report["manifest"]["config"]["game"] == "tavakoli"
        assert report["manifest"]["config"]["rounds"] == 1000
        assert report["manifest"]["seed"] == 3


def other_value(name, default, kind):
    """A valid value of an option that is not its default."""
    if name in cli._CHOICES:
        return next(choice for choice in cli._CHOICES[name] if choice != default)
    if default is None:
        return 7 if kind is int else "x.txt"
    return {bool: True, int: default + 1, float: default / 2}[kind]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_flag_and_config_file_merge_alike(tmp_path, command):
    parser = cli._build_parser()
    options = {**cli._COMMANDS[command][1], **cli._SHARED_OPTIONS}
    del options["config"]
    defaults = {name: default for name, (default, _, _) in options.items()}
    for name, (default, kind, _) in options.items():
        value = other_value(name, default, kind)
        flag = "--" + name.replace("_", "-")
        by_flag = cli._merge_options(parser.parse_args([command, flag] + ([] if kind is bool else [str(value)])))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({name: value}))
        by_file = cli._merge_options(parser.parse_args([command, "--config", str(path)]))
        assert by_flag == by_file == {**defaults, name: value}, name


# quick options that give each command a report
QUICK = {
    "play-game": ["--rounds", "100"],
    "run-protocol": ["--rounds", "2000", "--device", "input-guesser", "--mode", "generate"],
    "bruteforce-classical": [],
    "equivalence-check": ["--pair", "g1-vs-g2"],
    "guessing-bounds": ["--trials", "100"],
    "analyze": [],
}


@pytest.mark.parametrize("flags_set", [False, True])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_manifest_records_own_options_but_outputs_and_unset_flags(capsys, tmp_path, command, flags_set):
    bit_file = tmp_path / "in.bits"
    write_bits(bit_file, np.arange(200) % 2)
    own = cli._COMMANDS[command][1]
    argv = [command, "--seed", "5", "--deterministic", *QUICK[command]]
    for name, (_, kind, _) in own.items():
        flag = "--" + name.replace("_", "-")
        if kind is bool and flags_set:
            argv.append(flag)
        elif name.endswith("_out"):
            argv += [flag, str(tmp_path / name)]
        elif name == "bits_in":
            argv += [flag, str(bit_file)]
    code, report = run_json(capsys, argv)
    assert code == 0
    assert list(report)[0] == "manifest"
    want = [name for name, (_, kind, _) in own.items() if not name.endswith("_out") and (kind is not bool or flags_set)]
    assert list(report["manifest"]["config"]) == want


@pytest.mark.parametrize("body,code", [({"verdict": "ABORT"}, 2), ({"verdict": "PASS"}, 0), ({"n": 1}, 0)])
def test_exit_code_follows_the_verdict(capsys, monkeypatch, body, code):
    monkeypatch.setitem(cli._COMMANDS, "bruteforce-classical", (*cli._COMMANDS["bruteforce-classical"][:2], lambda opts, seed: body))
    assert run_json(capsys, ["bruteforce-classical", "--seed", "1", "--deterministic"]) == (
        code, {"manifest": {"command": "bruteforce-classical", "tool_version": cli.__version__, "seed": 1,
                            "config": {"game": "chsh"}}, **body},
    )


def test_top_level_help_is_written_for_users(capsys):
    # the description names the exit codes and none of the module's private names or reST markup
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    text = capsys.readouterr().out
    assert exit_.value.code == 0 and "Exit status" in text
    assert "``" not in text and not re.search(r"(?<!\w)_\w", text), text


class TestCommands:
    def test_play_game_exact_matches_sampled(self, capsys):
        _, report = run_json(
            capsys, ["play-game", "--game", "chsh1", "--rounds", "50000", "--seed", "5", "--deterministic"]
        )
        exact = report["exact"]["value"]
        sampled = report["sampled"]["win_frequency"]
        assert abs(exact - 0.8535533905932737) < 1e-12
        assert abs(sampled - exact) < 4 * math.sqrt(exact * (1 - exact) / 50000)

    def test_play_game_g2_reports_three_scores(self, capsys):
        _, report = run_json(
            capsys, ["play-game", "--game", "g2", "--rounds", "20000", "--seed", "5", "--deterministic"]
        )
        assert report["exact"] == {"even_win": 1.0, "odd_guess": 0.5, "augmented": 0.75}
        assert report["sampled"]["even_win"] == 1.0

    def test_bruteforce_report(self, capsys):
        code, report = run_json(
            capsys, ["bruteforce-classical", "--game", "chsh", "--seed", "1", "--deterministic"]
        )
        assert code == 0
        assert report["max_score"] == 0.75
        assert report["strategies_enumerated"] == 16
        assert report["argmax_tables"] == [[0, 0], [0, 0]]

    def test_bruteforce_g2_frontier(self, capsys):
        _, report = run_json(
            capsys, ["bruteforce-classical", "--game", "g2", "--seed", "1", "--deterministic"]
        )
        signatures = {(f["even_win"], f["odd_guess"]) for f in report["frontier"]}
        assert (1.0, 0.5) not in signatures
        assert {(1.0, 0.0), (1.0, 1.0)} <= signatures

    def test_equivalence_check_all(self, capsys):
        code, report = run_json(capsys, ["equivalence-check", "--seed", "1", "--deterministic"])
        assert code == 0
        assert report["all_passed"] is True
        assert {e["pair"] for e in report["checks"]} == {"g-vs-tavakoli", "g-vs-chsh1", "g1-vs-g2"}

    def test_guessing_bounds(self, capsys):
        code, report = run_json(
            capsys, ["guessing-bounds", "--trials", "50000", "--seed", "6", "--deterministic"]
        )
        assert code == 0
        assert report["all_within_four_se"] is True

    def test_run_protocol_report_sections(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, report = run_json(
            capsys,
            ["run-protocol", "--protocol", "Q", "--rounds", "60000", "--seed", "42",
             "--gamma", "0.5", "--deterministic", "--bits-out", "q.bits"],
        )
        assert code == 0
        assert set(report["bins"]) == {"check", "rand"}
        assert report["output_bits_path"] == "q.bits"
        assert report["emitted_bits"] > 0
        assert report["entropy"]["shannon"] > 0.99
        assert {b["name"] for b in report["battery"]} == {"monobit", "runs", "serial"}
        by_name = {c["name"]: c for c in report["conditions"]}
        assert by_name["odd_guess_half"]["detail"]["test_portion"] == math.ceil(
            0.5 * report["bins"]["rand"]
        )
        assert report["emitted_bits"] == report["bins"]["rand"] - by_name["odd_guess_half"]["detail"]["test_portion"]

    def test_run_protocol_abort_has_no_bits_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, report = run_json(
            capsys,
            ["run-protocol", "--protocol", "P", "--device", "always-zero", "--rounds", "20000",
             "--seed", "1", "--deterministic", "--bits-out", "x.bits"],
        )
        assert code == 2
        assert "output_bits_path" not in report
        assert not (tmp_path / "x.bits").exists()

    def test_mixed_device_note_in_report(self, capsys):
        _, report = run_json(
            capsys,
            ["run-protocol", "--protocol", "Q", "--device", "mixed-perfect-even",
             "--rounds", "40000", "--seed", "3", "--deterministic"],
        )
        assert any("mixed_perfect_even" in note for note in report["notes"])

    def test_analyze_round_trip(self, capsys, tmp_path):
        bits = np.random.default_rng(9).integers(0, 2, 4096)
        path = tmp_path / "bits.txt"
        write_bits(path, bits)
        code, report = run_json(
            capsys, ["analyze", "--bits-in", str(path), "--seed", "1", "--deterministic"]
        )
        assert code == 0
        assert report["n_bits"] == 4096
        assert report["entropy"]["shannon"] > 0.99
        assert len(report["battery"]) == 3

    def test_generate_mode_rate_one(self, capsys):
        _, report = run_json(
            capsys,
            ["run-protocol", "--protocol", "P", "--mode", "generate", "--rounds", "4096",
             "--seed", "11", "--deterministic"],
        )
        assert report["emitted_bits"] == 4096
