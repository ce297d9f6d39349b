"""The stage bench's kernel counters, read from each run's stimulus and traces."""

from datachan import build_channel, stimulus
from reference_kernel import ReferenceSimulator, net_events


def test_kernel_counters_count_the_reference_histories(stage_bench, config):
    _, doc, _ = stage_bench
    report, _ = doc["runs"]
    counters = report["counters"]
    for run in doc["runs"]:
        assert run["counters"] == run["other"]["counters"]  # one tree on both sides
    # the 12-word stream-prbs10 run, recounted from the reference kernel's histories
    words = stimulus.gen_prbs("PRBS10", 12, config.seed, config.word_width)
    stim = stimulus.stream_stimulus(config, words)
    histories = ReferenceSimulator(build_channel(config)).run(
        net_events(stim.events), stim.until_ps).events
    per_net = {net: len(hist) - (hist[0] == (0, 2)) for net, hist in histories.items()}
    assert counters["changes_per_net"] == per_net
    assert counters["changes"] == sum(per_net.values())
    assert counters["stimulus_changes"] == len(stim.events)
    dclk = histories["Dclk"]
    assert counters["dclk_falls"] == sum(a[1] == 1 and b[1] == 0 for a, b in zip(dclk, dclk[1:]))
