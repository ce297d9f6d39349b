"""Protocol checking: disable/enable latencies, reset completion, misuse."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ChannelConfig
from .errors import IncompleteTraceError
from .logic import HIGH, LOW, Level, SignalTraces
from .stimulus import Action, ProtocolSchedule


@dataclass
class LatencyRecord:
    action: Action
    time_ps: int
    latency_ps: int | None
    passed: bool


@dataclass
class ProtocolVerdict:
    bound_ps: int
    records: list[LatencyRecord]
    reset_complete_ps: int | None
    warnings: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)


def _quiet_since(traces: SignalTraces, net: str, t_from: int, t_to: int,
                 quiet: Level) -> int | None:
    """Earliest t >= t_from such that ``net`` holds ``quiet`` on [t, t_to).

    ``quiet`` is LOW or HIGH and ``t_from < t_to``.
    """
    last = traces.last_change(net, t_to)
    if last is None or last[1] != quiet:
        return None
    return max(last[0], t_from)


def latency_bound_ps(config: ChannelConfig) -> int:
    """Two parallel-word periods on the serial grid."""
    return round(2 * config.word_width * config.bit_period)


def check_protocol(traces: SignalTraces, schedule: ProtocolSchedule,
                   config: ChannelConfig) -> ProtocolVerdict:
    """Verify the enable/disable contract against simulated traces.

    For every disable assert: all selects low and all lines back at their
    pulled-up standby level within the latency bound.  For every enable
    pulse: the first select rises within the same bound.  Also locates the
    time every net has left the indeterminate power-on state.
    """
    bound = latency_bound_ps(config)
    horizon = traces.horizon_ps
    if horizon < max((t for t, _ in schedule.actions), default=0):
        raise IncompleteTraceError("traces do not cover the schedule horizon")

    sel_nets = [f"Sel{k}" for k in range(1, config.word_width + 1)] + ["iSel1", "Start"]
    line_nets = ["Even", "Odd", "nEven", "nOdd"]
    enable_times = schedule.times_of(Action.ENABLE_PULSE)

    records: list[LatencyRecord] = []
    for t_d in schedule.times_of(Action.DISABLE_ASSERT):
        wend = min([t for t in enable_times if t > t_d] + [horizon])
        quiet_times = []
        pending = False
        for net, quiet in [(n, LOW) for n in sel_nets] + [(n, HIGH) for n in line_nets]:
            t_q = _quiet_since(traces, net, t_d, wend, quiet)
            if t_q is None:
                pending = True
            else:
                quiet_times.append(t_q)
        if pending:
            if wend == horizon:
                raise IncompleteTraceError(
                    f"horizon ends while the channel is still draining after the "
                    f"disable at {t_d} ps"
                )
            records.append(LatencyRecord(Action.DISABLE_ASSERT, t_d, None, False))
            continue
        latency = max(quiet_times) - t_d
        records.append(LatencyRecord(Action.DISABLE_ASSERT, t_d, latency,
                                     latency <= bound))

    sel1_rises = traces.edges("Sel1", "rise")
    for t_e, i in zip(enable_times, sel1_rises.searchsorted(enable_times, side="right")):
        if i == len(sel1_rises):
            if horizon < t_e + bound:
                raise IncompleteTraceError(
                    f"horizon ends before the enable at {t_e} ps could take effect"
                )
            records.append(LatencyRecord(Action.ENABLE_PULSE, t_e, None, False))
            continue
        latency = int(sel1_rises[i]) - t_e
        records.append(LatencyRecord(Action.ENABLE_PULSE, t_e, latency,
                                     latency <= bound))

    # reset completion: when every net has left UNKNOWN for good
    known = [traces.known_from(net) for net in traces.nets()]
    reset_complete = None if None in known else max(known, default=0)

    warnings = []
    if enable_times:
        deadline = enable_times[0] + bound
        if reset_complete is None:
            warnings.append("some nets never left the indeterminate state")
        elif reset_complete > deadline:
            warnings.append(
                f"indeterminate levels persisted until {reset_complete} ps, "
                f"past the reset deadline {deadline} ps"
            )

    # enable pulses spanning two sampling edges re-inject the token
    dclk_rises = traces.edges("Dclk", "rise")
    en_high = traces.levels_at("Enable", dclk_rises - 1) == HIGH
    doubled = np.flatnonzero(en_high[1:] & en_high[:-1])
    if len(doubled):
        warnings.append(
            f"Enable held high across consecutive sampling edges near "
            f"{dclk_rises[doubled[0] + 1]} ps; a doubled token will corrupt the "
            f"one-hot sequence"
        )

    return ProtocolVerdict(bound_ps=bound, records=records,
                           reset_complete_ps=reset_complete, warnings=warnings)
