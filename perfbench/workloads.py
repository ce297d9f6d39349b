"""Seeded workload inputs and the correctness gate each scenario must pass.

A workload is a set of generated files: one channel configuration and the
scenario (and word) files that one ``datachan run`` call receives.  The
inputs depend only on the workload name and the seed, so the same seed
always gives byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

ALL_OUTPUTS = ("vcd", "bits", "tx", "eye", "spectrum", "report")
STANDBY_OUTPUTS = ("vcd", "tx", "report")

# Parallel words per stream scenario.  stream-full is the default command,
# where the artifact writers take about half the time; stream-verify is the
# `datachan report` path, where the event kernel and the analog back end
# dominate; scenario-batch stresses per-scenario fixed costs and the CLI loop.
DEFAULT_WORDS = {"stream-full": 600, "stream-verify": 1500, "scenario-batch": 40}
WORKLOADS = tuple(DEFAULT_WORDS)

# The eye is built (and its mask checked) only when the streaming window
# holds at least 100 unit intervals, i.e. 10 ten-bit words.
EYE_MIN_WORDS = 10

# Spans every traced run must record, by workload.
_CORE_SPANS = {
    "cli.main", "scenario.run_scenario", "netlist.build_channel",
    "netlist.advance", "driver.synthesize_tx", "report.to_json",
    "report.to_text",
}
_STREAM_SPANS = {
    "stimulus.stream_stimulus", "stimulus.words", "golden.extract_serial",
    "golden.golden_serialize", "protocol.check_protocol",
    "driver.line_transition_times", "driver.supply_current",
    "spectrum.spectrum", "spectrum.low_band_ratio", "measure.measure_levels",
    "measure.measure_edge", "eye.build_eye", "eye.mask_check",
    "report.compliance_report",
}
_WRITER_SPANS = {
    "vcd.traces_to_vcd", "driver.trace_to_csv", "spectrum.to_csv",
    "eye.to_csv", "golden.format_bitstream",
}
EXPECTED_SPANS = {
    "stream-full": _CORE_SPANS | _STREAM_SPANS | _WRITER_SPANS,
    "stream-verify": _CORE_SPANS | _STREAM_SPANS,
    "scenario-batch": _CORE_SPANS | _STREAM_SPANS | _WRITER_SPANS,
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One generated scenario file and what a correct run of it produces."""

    name: str
    path: Path
    source: str
    n_words: int
    disable_at_word: int | None
    outputs: tuple[str, ...]

    @property
    def standby(self) -> bool:
        return self.source == "none"

    @property
    def eye_required(self) -> bool:
        streamed = self.n_words if self.disable_at_word is None else self.disable_at_word
        return not self.standby and streamed >= EYE_MIN_WORDS

    def required_checks(self) -> set[str]:
        if self.standby:
            return {"compliance"}
        checks = {"serial-equivalence", "protocol", "compliance"}
        if self.eye_required:
            checks.add("eye-mask")
        return checks

    def expected_artifacts(self) -> set[str]:
        files = {
            "vcd": [".vcd"],
            "tx": [".tx_plus.csv", ".tx_minus.csv"],
            "report": [".report.json", ".report.txt"],
        }
        if not self.standby:
            files["bits"] = [".bits.txt"]
            files["spectrum"] = [".spectrum.csv"]
            if self.eye_required:
                files["eye"] = [".eye.csv"]
        return {self.name + suffix for kind in self.outputs
                for suffix in files.get(kind, ())}

    def serialized_words(self) -> int:
        """Parallel words the channel serializes before any disable."""
        if self.standby:
            return 0
        return self.n_words if self.disable_at_word is None else self.disable_at_word


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path
    scenarios: tuple[ScenarioSpec, ...]

    @property
    def words(self) -> int:
        return sum(sc.serialized_words() for sc in self.scenarios)


def _binary(rng: random.Random, width: int) -> str:
    return "".join(rng.choice("01") for _ in range(width))


def _mixed_word(rng: random.Random, width: int) -> str:
    """A random word that holds both bit values."""
    while True:
        word = _binary(rng, width)
        if "0" in word and "1" in word:
            return word


def _write_scenario(root: Path, name: str, source: str, n_words: int,
                    outputs: tuple[str, ...], disable_at_word: int | None = None,
                    **extra: object) -> ScenarioSpec:
    lines = [f"name = {name}", f"source = {source}"]
    if source != "none":
        lines.append(f"n_words = {n_words}")
    lines += [f"{key} = {value}" for key, value in extra.items()]
    if disable_at_word is not None:
        lines.append(f"disable_at_word = {disable_at_word}")
    lines.append("outputs = " + ", ".join(outputs))
    path = root / f"{name}.scenario"
    path.write_text("\n".join(lines) + "\n")
    return ScenarioSpec(name, path, source, n_words if source != "none" else 0,
                        disable_at_word, outputs)


def _batch(root: Path, rng: random.Random, n: int, width: int) -> list[ScenarioSpec]:
    """Sixteen short scenarios covering every data source and protocol path."""
    specs = []
    for i in range(2):
        specs.append(_write_scenario(root, f"standby-{i}", "none", 0, STANDBY_OUTPUTS))
    for i in range(4):
        specs.append(_write_scenario(
            root, f"disable-{i}", "random", n, ALL_OUTPUTS,
            disable_at_word=rng.randint(n // 4, 3 * n // 4),
            seed=rng.randrange(1, 2**31)))
    for i in range(4):
        specs.append(_write_scenario(root, f"prbs7-{i}", "prbs7", n, ALL_OUTPUTS,
                                     seed=rng.randrange(1, 2**7)))
    for i in range(3):
        specs.append(_write_scenario(root, f"fixed-{i}", "fixed", n, ALL_OUTPUTS,
                                     fixed_word=_mixed_word(rng, width)))
    for i in range(3):
        word_file = root / f"file-{i}.words"
        word_file.write_text("".join(_binary(rng, width) + "\n" for _ in range(n)))
        specs.append(_write_scenario(root, f"file-{i}", "file", n, ALL_OUTPUTS,
                                     word_file=word_file))
    return specs


def generate(name: str, seed: int, root: Path, words: int | None = None) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``root``.

    The channel configuration is the default one, written out as a file so
    the CLI loads and validates it.  ``words`` overrides the words per stream
    scenario (the benchmark's tests use small runs).
    """
    from datachan.config import ChannelConfig, config_to_text

    if name not in DEFAULT_WORDS:
        raise ValueError(f"unknown workload {name!r}")
    n = DEFAULT_WORDS[name] if words is None else words
    channel = ChannelConfig()
    root.mkdir(parents=True, exist_ok=True)
    config = root / "channel.cfg"
    config.write_text(config_to_text(channel))
    rng = random.Random(f"{name}:{seed}")
    if name == "stream-full":
        specs = [_write_scenario(root, "full", "random", n, ALL_OUTPUTS,
                                 seed=rng.randrange(1, 2**31))]
    elif name == "stream-verify":
        specs = [_write_scenario(root, "verify", "prbs10", n, ("report",),
                                 seed=rng.randrange(1, 2**10))]
    else:
        specs = _batch(root, rng, n, channel.word_width)
    return Workload(name, config, tuple(specs))
