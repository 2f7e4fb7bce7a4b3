"""The benchmark's traced run wraps program attributes by name; each must still exist."""

import importlib.util
from pathlib import Path

import pytest

from diqrng import cli

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()
TRACED = SPANS._TRACED


@pytest.mark.parametrize("owner, attr, span", TRACED, ids=[span + ":" + attr for _, attr, span in TRACED])
def test_traced_name_resolves(owner, attr, span):
    assert callable(getattr(owner, attr, None)), f"{span}: {getattr(owner, '__name__', owner)}.{attr} is gone"


def traced_command(argv):
    """The per-layer metrics of one CLI command run under the benchmark's tracer."""
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return tracer.layer_metrics()


# the sampled-rounds counter reads the round count as sample_many's first positional argument
@pytest.mark.parametrize("game", sorted(cli._GAME_NAMES))
def test_play_game_samples_once(game, capsys):
    metrics = traced_command(["play-game", "--game", game, "--rounds", "1234", "--seed", "5"])
    assert metrics["games.RoundSampler.sample_many.calls"] == 1
    assert metrics["games.RoundSampler.sample_many.rounds"] == 1234


def test_guessing_bounds_check_once(capsys):
    metrics = traced_command(["guessing-bounds", "--trials", "1000", "--seed", "5"])
    assert metrics["protocols.guessing_game_bound_check.calls"] == 1
