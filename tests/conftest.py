"""Shared fixtures: one cached streaming run and one stage bench run, each reused
across test modules."""

import importlib.util
import json
from pathlib import Path

import pytest

from datachan import ChannelConfig, advance, build_channel
from datachan import golden, stimulus


@pytest.fixture(scope="session")
def config():
    return ChannelConfig()


@pytest.fixture(scope="session")
def stream40(config):
    """A 40-word random streaming run: (words, stim, traces)."""
    words = stimulus.random_words(40, seed=3)
    stim = stimulus.stream_stimulus(config, words)
    traces = advance(build_channel(config), stim.events, stim.until_ps)
    return words, stim, traces


@pytest.fixture(scope="session")
def stream40_bits(config, stream40):
    _, _, traces = stream40
    return golden.extract_serial(traces, config)


@pytest.fixture(scope="session")
def stage_bench(tmp_path_factory):
    """bench/stages.py run once at 12 words: (the script's module, its JSON)."""
    script = Path(__file__).resolve().parents[1] / "bench" / "stages.py"
    spec = importlib.util.spec_from_file_location("bench_stages", script)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path_factory.mktemp("stage_bench") / "bench.json"
    assert bench.main(["--out", str(out), "--words", "12"]) == 0
    return bench, json.loads(out.read_text())
