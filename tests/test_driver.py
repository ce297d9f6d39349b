"""Output-stage synthesis and supply-current models."""

import math
from fractions import Fraction

import numpy as np
import pytest

from datachan.config import DriverParams, SpikeModel
from datachan import driver as drv
from datachan.golden import BitStream
from datachan.logic import HIGH, LOW
from reference_analysis import naive_supply_current
from reference_kernel import traces_from_histories


def test_standby_and_sink_levels_follow_ohms_law():
    p = DriverParams()
    assert p.v_standby == pytest.approx(3.3 - 20e-6 * 50.0, abs=1e-12)
    assert p.v_standby == pytest.approx(3.299, abs=1e-9)
    # the standby path keeps sinking while the main current is on
    assert p.v_sink == pytest.approx(3.3 - (9.942e-3 + 20e-6) * 50.0, abs=1e-12)
    assert p.v_sink == pytest.approx(2.8019, abs=1e-9)


def _line_traces(events, horizon):
    base = {n: [(0, HIGH)] for n in ("Even", "Odd", "nEven", "nOdd")}
    for net, extra in events.items():
        base[net] = base[net] + extra
    return traces_from_histories(base, horizon)


def test_released_lines_sit_at_standby():
    traces = _line_traces({}, 5000)
    p = DriverParams()
    tx_plus, tx_minus = drv.synthesize_tx(traces, p, 10.0)
    assert np.allclose(tx_plus.samples, p.v_standby)
    assert np.allclose(tx_minus.samples, p.v_standby)


def test_exponential_edge_matches_closed_form():
    p = DriverParams()
    traces = _line_traces({"Odd": [(2000, LOW)]}, 8000)
    _, tx_minus = drv.synthesize_tx(traces, p, 1.0)
    t = tx_minus.times()
    tau = p.t_rf_ps / math.log(4.0)
    expect = np.where(
        t < 2000, p.v_standby,
        p.v_sink + (p.v_standby - p.v_sink) * np.exp(-(t - 2000) / tau))
    assert np.allclose(tx_minus.samples, expect, atol=1e-9)


def test_raised_cosine_edge_settles_exactly():
    p = DriverParams(edge_model="RAISED_COSINE")
    traces = _line_traces({"Odd": [(2000, LOW)]}, 8000)
    _, tx_minus = drv.synthesize_tx(traces, p, 1.0)
    v = tx_minus.samples
    assert v[1990] == pytest.approx(p.v_standby, abs=1e-9)
    # the raised-cosine step completes in finite time, unlike the exponential
    assert v[-1] == pytest.approx(p.v_sink, abs=1e-12)
    assert np.all(np.diff(v[2000:2400]) <= 1e-12)


def test_both_legs_complementary_sum(config, stream40):
    _, stim, traces = stream40
    p = config.driver
    t0, t1 = stim.timing.slot_start(2, 1), stim.timing.slot_start(38, 1)
    tx_plus, tx_minus = drv.synthesize_tx(traces, p, config.dt_ps, t0, t1)
    total = tx_plus.samples + tx_minus.samples
    # one leg sinks while the other is released: the sum stays near
    # v_standby + v_sink except inside edge crossovers
    assert np.median(total) == pytest.approx(p.v_standby + p.v_sink, abs=1e-3)


def test_line_transition_times_ignore_power_on():
    traces = traces_from_histories(
        {"Even": [(0, HIGH), (100, LOW), (200, HIGH)],
         "Odd": [(0, HIGH)],
         "nEven": [(0, HIGH)],
         "nOdd": [(50, HIGH), (150, LOW)]},  # first entry leaves UNKNOWN
        300,
    )
    assert drv.line_transition_times(traces).tolist() == [100, 150, 200]


def test_spike_conserves_charge():
    model = SpikeModel()
    samples = np.zeros(1000)
    drv._deposit_spikes(samples, 0.0, 10.0, [5000.0], model.q_c, model.w_ps)
    charge = samples.sum() * 10.0 * 1e-12
    assert charge == pytest.approx(model.q_c, rel=1e-9)


def test_spike_charge_survives_misaligned_centers():
    model = SpikeModel()
    for center in (4997.0, 5003.3, 5005.0):
        samples = np.zeros(1000)
        drv._deposit_spikes(samples, 0.0, 10.0, [center], model.q_c, model.w_ps)
        assert samples.sum() * 10.0 * 1e-12 == pytest.approx(model.q_c, rel=1e-9)


def test_supply_current_dc_plus_spikes():
    model = SpikeModel()
    trace = drv.supply_current([5000.0], model, 10.0, 0.0, 10000.0)
    extra = (trace.samples - model.i_dc_a).sum() * 10.0 * 1e-12
    assert extra == pytest.approx(model.q_c, rel=1e-9)
    assert trace.samples.min() >= model.i_dc_a


def test_naive_model_two_charges_per_data_transition():
    model = SpikeModel()
    period = Fraction(10**12, 1_650_000_000)
    stream = BitStream(bits=[0, 1, 0, 1, 0, 0, 0, 0], bit_period=period)
    trace = naive_supply_current(stream, model, 10.0)
    extra = (trace.samples - model.i_dc_a).sum() * 10.0 * 1e-12
    # four transitions, each flipping both legs of the differential pair
    assert extra == pytest.approx(4 * 2 * model.q_c, rel=1e-6)


def test_waveform_trace_holds_float64_samples():
    for samples in ([1, 2, 3], np.arange(1, 4), np.array([1.0, 2.0, 3.0], dtype=np.float32)):
        trace = drv.WaveformTrace(10.0, samples)
        assert trace.samples.dtype == np.float64
        assert trace.samples.tolist() == [1.0, 2.0, 3.0]
    # a float64 window is not copied: the analysis reads the run's own samples
    full = np.linspace(0.0, 1.0, 100)
    window = drv.WaveformTrace(10.0, full[20:80], 200.0)
    assert np.shares_memory(window.samples, full)


def test_trace_csv_shape():
    trace = drv.WaveformTrace(10.0, np.array([1.0, 2.0]), 100.0)
    lines = drv.trace_to_csv(trace).splitlines()
    assert lines[0] == "time_ps,value"
    assert lines[1].startswith("100.000,")
    assert len(lines) == 3


def test_trace_csv_timestamps_do_not_drift():
    # 0.1 ps is not exact in binary: summing it 10^5 times drifts by about
    # 2e-8 ps, which moves this t0 across a rounding boundary of "%.3f"
    n, dt, t0 = 100_000, 0.1, 0.00049999
    text = drv.trace_to_csv(drv.WaveformTrace(dt, np.zeros(n), t0))
    stamps = [line.split(",")[0] for line in text.splitlines()[1:]]
    assert len(stamps) == n
    assert stamps[-1] == f"{t0 + (n - 1) * dt:.3f}" == "9999.900"
    assert stamps == [f"{t0 + i * dt:.3f}" for i in range(n)]
