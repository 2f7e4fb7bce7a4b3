"""Property tests: generated configs and seeds never end the CLI in a traceback.

Every option in the CLI's option table, for every command, is left out,
passed as a flag or put in a ``--config`` file, with values that are valid,
out of range or of the wrong type.  Every run must either emit a report (exit
0 or 2) or exit 1 with an ``error:`` line and no file written.  Round and
trial counts stay small so that each run is quick.  Counts, delta and gamma
fall outside their ranges, analyze reads no real bit dump, and any option
takes junk, about one time in ten each, so that at least a quarter of the
run-protocol and the analyze runs reach a report.  Each run works in a
temporary directory of its own, and the output paths name a fresh file
there, a file under a missing directory or the directory itself; a report
written to a file is read from it.
"""

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diqrng import cli, stream

# values of the wrong type or form, for flags and config files alike
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(st.characters(codec="utf-8"), max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.sampled_from(["nope", math.nan, math.inf, -math.inf]),
)
SEEDS = st.integers(-3, 2**64 + 3)


def mostly(inside, outside):
    """Values from ``inside`` nine times in ten, else from ``outside``."""
    return st.integers(0, 9).flatmap(lambda k: outside if k == 9 else inside)


# each float option's range, with its edges and finite values past them now and then
FLOATS = {
    "delta": mostly(
        st.one_of(st.floats(1e-9, 0.5), st.sampled_from([1e-6, 0.05, 0.999])),
        st.sampled_from([0.0, 1.0, -0.5, 2, 1e-320]),
    ),
    "gamma": mostly(
        st.one_of(st.floats(0.5, 1.0), st.sampled_from([0.5, 0.75, 1])),
        st.sampled_from([0.0, 0.4999, 1.0001, -1, 2]),
    ),
}
# the config file is the fuzz's own
UNFUZZED = ("config",)
# output paths, relative to the run's temporary directory: half of them a fresh file there
OUTPUTS = ("out", "bits_out")
PATHS = st.one_of(st.just("report.out"), st.sampled_from(["missing/report.out", "."]))
# junk paths without a "/" stay inside that directory too
PATH_JUNK = JUNK.filter(lambda value: not isinstance(value, str) or "/" not in value)


def fuzzed_options(command):
    """name -> type of each option of the command that the fuzz sets."""
    table = {**cli._COMMANDS[command][1], **cli._SHARED_OPTIONS}
    return {name: kind for name, (_, kind, _) in table.items() if name not in UNFUZZED}


def always_given(name, kind):
    """Round and trial counts, so that no run falls back to a large default, and analyze's bit dump."""
    return kind is int and name != "seed" or name == "bits_in"


def values(name, kind, bit_files):
    """The valid and near-valid values of one option."""
    if name in cli._CHOICES:
        return st.sampled_from(cli._CHOICES[name])
    if name == "seed":
        return SEEDS
    if name == "bits_in":
        return mostly(st.sampled_from(bit_files), st.sampled_from(["missing.bits", ""]))
    if name in OUTPUTS:
        return PATHS
    if kind is float:
        return FLOATS[name]
    return {bool: st.booleans(), int: mostly(st.integers(300, 3_000), st.integers(-2, 299))}[kind]


@st.composite
def invocations(draw, command, bit_files):
    """(flags, config, DIQRNG_SEED) for one run of the command."""
    flags, config = {}, {}
    for name, kind in fuzzed_options(command).items():
        where = draw(st.sampled_from(["flag", "config"] if always_given(name, kind) else ["absent", "flag", "config"]))
        if where == "absent":
            continue
        valid = values(name, kind, bit_files)
        value = draw(mostly(valid, st.one_of(valid, PATH_JUNK if name in OUTPUTS else JUNK)))
        (flags if where == "flag" else config)[name] = value
    env_seed = draw(st.one_of(st.none(), SEEDS.map(str), st.sampled_from(["", "x", "1.5"])))
    return flags, config, env_seed


def argv_of(command, flags, config_path):
    argv = [command]
    for name, value in flags.items():
        flag = "--" + name.replace("_", "-")
        if isinstance(value, bool) and fuzzed_options(command)[name] is bool:
            argv += [flag] if value else []
        else:
            argv += [flag, value if isinstance(value, str) else json.dumps(value)]
    if config_path is not None:
        argv += ["--config", str(config_path)]
    return argv


def report_path(flags, config):
    """Where a run writes its report: ``--out`` as ``argv_of`` passes it, else the config file's text, else stdout (None)."""
    if "out" in flags:
        return flags["out"] if isinstance(flags["out"], str) else json.dumps(flags["out"])
    return config["out"] if isinstance(config.get("out"), str) else None


def assert_report_or_error(command, invocation, capsys, monkeypatch):
    flags, config, env_seed = invocation
    if env_seed is None:
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(cli.SEED_ENV_VAR, env_seed)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            config_path = None
            if config:
                config_path = Path(tmp) / "config.json"
                config_path.write_text(json.dumps(config), encoding="utf-8")
            try:
                code = cli.main(argv_of(command, flags, config_path))
            except SystemExit as exc:       # argparse's usage errors
                code = exc.code
            out, err = capsys.readouterr()
            path = report_path(flags, config)
            if code in (0, 2) and path:
                assert out == ""
                out = Path(path).read_text(encoding="utf-8")
            left = sorted(os.listdir(tmp))
        finally:
            os.chdir(cwd)
    if code in (0, 2):
        report = json.loads(out)
        assert report["manifest"]["command"] == command
    else:
        assert code == 1
        assert "error: " in err
        assert "Traceback" not in err
        # a failed run leaves no report and no bit file
        assert left == (["config.json"] if config else [])
    return code


PROPERTY = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def bit_files(tmp_path_factory):
    """Small real bit dumps for analyze: entropy only below 100 bits, the battery too from 100."""
    folder = tmp_path_factory.mktemp("bits")
    paths = []
    for n in (1, 99, 100, 300):
        paths.append(str(folder / f"bits-{n}.txt"))
        cli.write_bits(paths[-1], np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8))
    return paths


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_generated_configs_report_or_fail_cleanly(command, bit_files, capsys, monkeypatch):
    codes = []

    @PROPERTY
    @given(invocations(command, bit_files))
    def check(invocation):
        codes.append(assert_report_or_error(command, invocation, capsys, monkeypatch))

    check()
    if command in ("run-protocol", "analyze"):
        # the fuzz must reach the run or the analysis, not only the option checks
        reports = sum(code in (0, 2) for code in codes)
        assert 4 * reports >= len(codes), f"{reports} of {len(codes)} runs reported"


def test_round_count_past_the_index_range_is_an_error(capsys, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    for argv in (["run-protocol", "--rounds"], ["play-game", "--rounds"], ["guessing-bounds", "--trials"]):
        for count in (10**30, 2**63):
            assert cli.main([*argv, str(count), "--seed", "1"]) == 1
            err = capsys.readouterr().err
            # the explicit int64 limit, not an incidental overflow of a list or an array shape
            assert err.startswith("error: ") and str(stream.MAX_ROUNDS) in err, (argv, count, err)
            assert "Traceback" not in err
