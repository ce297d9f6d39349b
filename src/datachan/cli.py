"""Command-line front end for the channel simulator and analysis toolkit."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__
from .config import ChannelConfig, load_config
from .errors import ConfigError, DataChanError
from .scenario import PRESETS, Scenario, load_scenario, run_scenario, validate_scenario

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="datachan",
        description="Serializer data-channel simulator: run scenarios, export "
                    "waveforms, eyes, spectra and compliance reports.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", metavar="PATH", help="configuration file")
        sp.add_argument("--scenario", metavar="NAME|PATH", action="append",
                        help=f"preset ({', '.join(PRESETS)}) or scenario file; "
                             "may be repeated")
        sp.add_argument("--words", type=int, metavar="N", help="number of parallel words")
        sp.add_argument("--seed", type=int, metavar="N", help="stimulus seed")
        sp.add_argument("--out", metavar="DIR", default="out", help="output directory")

    for name, help_text in [
        ("run", "full pipeline with all requested artifacts"),
        ("eye", "eye-diagram histogram CSV only"),
        ("spectrum", "supply-current spectrum CSV only"),
        ("report", "compliance report only"),
        ("vcd", "waveform dump only"),
    ]:
        common(sub.add_parser(name, help=help_text))

    sub.add_parser("selftest", help="run the built-in cross-check examples")
    return p


def _scenarios_from_args(args) -> list[Scenario]:
    specs = args.scenario or ["stream-random"]
    out = []
    for spec in specs:
        sc = load_scenario(spec)
        if args.words is not None:
            sc = replace(sc, n_words=args.words)
        if args.seed is not None:
            sc = replace(sc, seed=args.seed)
        if args.command != "run":
            # each stage command writes only its own artifact
            sc = replace(sc, outputs=(args.command,))
        out.append(sc)
    return out


def _run_command(args) -> int:
    config = load_config(args.config) if args.config else ChannelConfig()
    scenarios = _scenarios_from_args(args)
    for i, sc in enumerate(scenarios):
        validate_scenario(config, sc)
        if sc.name in (other.name for other in scenarios[:i]):  # same artifact paths
            raise ConfigError(f"scenario name {sc.name!r} is given more than once")

    results = [run_scenario(config, sc, args.out) for sc in scenarios]

    code = EXIT_OK
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}")
        for check, ok in res.checks.items():
            print(f"  {check}: {'pass' if ok else 'fail'}")
        for check, reason in res.skipped.items():
            print(f"  {check}: skipped ({reason})")
        for msg in res.messages:
            print(f"  {msg}")
        for kind, path in res.artifacts.items():
            print(f"  wrote {kind}: {path}")
        if not res.passed:
            code = EXIT_CHECK_FAILED
    return code


def _selftest() -> int:
    """Cross-check the simulator against its independent references."""
    from fractions import Fraction

    import numpy as np

    from . import driver as drv, golden, measure, spectrum as specmod, stimulus
    from .netlist import advance, build_channel

    config = ChannelConfig()
    failures = 0

    def check(name: str, ok: bool):
        nonlocal failures
        print(f"  {name}: {'pass' if ok else 'FAIL'}")
        failures += 0 if ok else 1

    print("selftest:")

    words = stimulus.random_words(40, seed=7)
    stim = stimulus.stream_stimulus(config, words)
    traces = advance(build_channel(config), stim.events, stim.until_ps)
    got = golden.extract_serial(traces, config)
    want = golden.golden_serialize(words)
    check("serializer matches functional model", got.bits == want.bits)

    tau = 104.0 / np.log(4.0)
    t = np.arange(0, 5000, 10.0)
    v = 3.299 - 0.4971 * np.clip(1 - np.exp(-(t - 500) / tau), 0, None) * (t > 500)
    trace = drv.WaveformTrace(10.0, v)
    fall = measure.measure_edge(trace, "fall", measure.measure_levels(trace))
    check("20-80 edge on exponential step is 104 ps", abs(fall - 104.0) <= 10.0)

    period = Fraction(10**12, config.serial_rate_hz)
    centers = [float(k * period) for k in range(1, 1024)]
    cur = drv.supply_current(centers, config.spike, 10.0, 0.0, float(1024 * period))
    ratio = specmod.low_band_ratio(specmod.spectrum(cur))
    check("bit-rate spike train keeps the low band clean", ratio < 0.06)

    print("selftest:", "PASS" if failures == 0 else f"{failures} FAILURES")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            return _selftest()
        return _run_command(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataChanError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
