"""Shared fixtures: one cached streaming run and one stage bench run, each reused
across test modules."""

import importlib.util
import json
import os
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
    """bench/stages.py run once at 12 words, ``--ab`` against this tree named by
    a path relative to the working directory: (the script's module, its JSON,
    that path)."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("bench_stages", root / "bench" / "stages.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    work = tmp_path_factory.mktemp("stage_bench")
    other = os.path.relpath(root, work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        assert bench.main(["--out", "bench.json", "--words", "12", "--ab", other]) == 0
    finally:
        os.chdir(cwd)
    return bench, json.loads((work / "bench.json").read_text()), other
