"""The benchmark's traced run wraps program attributes by name; each must still exist."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from diqrng import cli, games

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


def traced(fn):
    """fn()'s result and the per-layer metrics of the call, run under the benchmark's tracer."""
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        result = fn()
    finally:
        tracer.uninstall()
    return result, tracer.layer_metrics()


def traced_command(argv):
    """The per-layer metrics of one CLI command run under the benchmark's tracer."""
    code, metrics = traced(lambda: cli.main(argv))
    assert code == 0
    return metrics


# the sampled-rounds counter reads the round count as sample_many's first positional argument
@pytest.mark.parametrize("game", sorted(cli._GAME_NAMES))
def test_play_game_samples_once(game):
    sampler = games.RoundSampler(cli._GAME_NAMES[game], games.paper_strategy(cli._GAME_NAMES[game]))
    _, metrics = traced(lambda: sampler.sample_many(1234, np.random.default_rng(5)))
    assert metrics["games.RoundSampler.sample_many.calls"] == 1
    assert metrics["games.RoundSampler.sample_many.rounds"] == 1234


# play-game tallies its rounds by code, so it builds no sample_many columns
@pytest.mark.parametrize("game", sorted(cli._GAME_NAMES))
def test_play_game_builds_no_round_columns(game, capsys):
    metrics = traced_command(["play-game", "--game", game, "--rounds", "1234", "--seed", "5"])
    assert metrics["games.RoundSampler.init.calls"] == 1
    assert metrics["games.RoundSampler.sample_many.calls"] == 0


def test_guessing_bounds_check_once(capsys):
    metrics = traced_command(["guessing-bounds", "--trials", "1000", "--seed", "5"])
    assert metrics["protocols.guessing_game_bound_check.calls"] == 1
