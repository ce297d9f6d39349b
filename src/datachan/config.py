"""Channel configuration: operating point, delays, driver and noise models.

The defaults reproduce the 1.65 Gbps operating point of the modeled
transmitter channel (3.3 V receiver pull-up, 50 ohm remote termination,
10-bit parallel words).  Configurations round-trip losslessly through a
flat ``key = value`` text file.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import TypeVar

from .errors import ConfigError, MaskError

T = TypeVar("T")

EDGE_MODELS = ("EXPONENTIAL", "RAISED_COSINE")


@dataclass
class DriverParams:
    """Electrical parameters of the current-mode open-drain output stage."""

    avcc_v: float = 3.3               # receiver pull-up supply
    r_term_ohm: float = 50.0          # termination resistance per line
    i_sink_a: float = 9.942e-3        # extra sink current while driving LOW
    i_standby_a: float = 20e-6        # leakage/bias sink in standby
    t_rf_ps: float = 104.0            # 20%-80% transition time
    edge_model: str = "EXPONENTIAL"

    @property
    def v_standby(self) -> float:
        return self.avcc_v - self.i_standby_a * self.r_term_ohm

    @property
    def v_sink(self) -> float:
        # standby/leakage path stays on while the main sink is active
        return self.avcc_v - (self.i_standby_a + self.i_sink_a) * self.r_term_ohm

    def validate(self) -> None:
        if self.edge_model not in EDGE_MODELS:
            raise ConfigError(f"unknown edge model {self.edge_model!r}")
        if self.r_term_ohm <= 0 or self.avcc_v <= 0:
            raise ConfigError("avcc_v and r_term_ohm must be positive")
        if self.t_rf_ps < 0:
            raise ConfigError("t_rf_ps must be >= 0")
        if self.i_standby_a * self.r_term_ohm > 10e-3:
            raise ConfigError("standby drop exceeds the 10 mV budget")


@dataclass
class SpikeModel:
    """Supply-current disturbance model: triangular spike per line transition."""

    q_c: float = 50e-15       # charge per pre-driver transition
    w_ps: float = 60.0        # triangular spike base width
    i_dc_a: float = 1.005e-3  # quiescent core current

    def validate(self) -> None:
        if self.q_c < 0 or self.w_ps <= 0 or self.i_dc_a < 0:
            raise ConfigError("spike model parameters out of range")


# default keep-out hexagon, (UI offset from eye center, differential volts);
# a documented stand-in, not a normative mask
DEFAULT_MASK = (
    (-0.25, 0.0),
    (-0.15, 0.2),
    (0.15, 0.2),
    (0.25, 0.0),
    (0.15, -0.2),
    (-0.15, -0.2),
)


def check_mask(vertices: tuple[tuple[float, float], ...]) -> None:
    """Raise ``MaskError`` unless ``vertices`` is a convex polygon that is
    symmetric about the eye center (x = 0)."""
    if len(vertices) < 3 or any(len(v) != 2 for v in vertices):
        raise MaskError("mask_vertices needs at least three x:y pairs")
    pts = vertices
    turns = [(bx - ax) * (cy - ay) - (by - ay) * (cx - ax) for (ax, ay), (bx, by), (cx, cy)
             in zip(pts, pts[1:] + pts[:1], pts[2:] + pts[:2])]
    if min(turns) < 0 < max(turns):  # convex: every corner turns the same way
        raise MaskError("mask polygon must be convex")
    xs = sorted(round(x, 12) for x, _ in pts)
    if any(abs(a + b) > 1e-9 for a, b in zip(xs, reversed(xs))):
        raise MaskError("mask polygon must be symmetric about the eye center")


@dataclass
class ChannelConfig:
    serial_rate_hz: int = 1_650_000_000
    word_width: int = 10              # 8, 10 or 16 supported
    dt_ps: float = 10.0               # analog sample interval
    ff_delay_ps: int = 30             # flip-flop clock-to-output delay
    buffer_delay_ps: int = 15         # single buffer / gate stage delay
    skew_ps: int = 20                 # Nclk delay relative to inverted Dclk
    eye_bins_t: int = 128
    eye_bins_v: int = 128
    horizon_words: int = 100
    seed: int = 1
    driver: DriverParams = field(default_factory=DriverParams)
    spike: SpikeModel = field(default_factory=SpikeModel)
    mask_vertices: tuple[tuple[float, float], ...] = DEFAULT_MASK

    @property
    def bit_period(self) -> Fraction:
        """Exact serial bit period in picoseconds (rational, drift-free)."""
        return Fraction(10**12, self.serial_rate_hz)

    @property
    def ui_ps(self) -> float:
        return float(self.bit_period)

    @property
    def fo4_delay_ps(self) -> int:
        # FO4 buffer modeled as four cascaded buffer stages
        return 4 * self.buffer_delay_ps

    def validate(self) -> None:
        for key, v in _flatten(self).items():
            numbers = [x for pair in v for x in pair] if isinstance(v, tuple) else [v]
            bad = [x for x in numbers if isinstance(x, float) and not math.isfinite(x)]
            if bad:
                raise ConfigError(f"{key} must be finite, got {bad[0]!r}")
        if self.serial_rate_hz <= 0:
            raise ConfigError("serial_rate_hz must be positive")
        if self.word_width not in (8, 10, 16):
            raise ConfigError("word_width must be one of 8, 10, 16")
        if self.ff_delay_ps <= 0 or self.buffer_delay_ps <= 0:
            raise ConfigError("gate delays must be positive")
        # the last select must re-arm Start before the next falling clock edge; the
        # rounded falls are floor(period) apart at least, or one ps less when every
        # edge is a tie rounded to even (an odd whole period: period -/+ 1 apart)
        period = self.bit_period
        shortest = math.floor(period) - (period.denominator == 1 and period.numerator % 2)
        recirculation = self.ff_delay_ps + self.fo4_delay_ps + self.buffer_delay_ps
        if recirculation >= shortest:
            raise ConfigError(
                f"ff_delay_ps + 5 * buffer_delay_ps = {recirculation} ps must be "
                f"shorter than the shortest serial period ({shortest} ps)"
            )
        if self.skew_ps < 0 or self.skew_ps >= self.bit_period / 2:
            raise ConfigError("skew_ps must satisfy 0 <= skew < half serial period")
        if self.dt_ps <= 0:
            raise ConfigError("dt_ps must be positive")
        if self.dt_ps * 32 > self.ui_ps:
            raise ConfigError(
                f"dt_ps = {self.dt_ps} gives fewer than 32 samples per {self.ui_ps} ps interval"
            )
        if self.horizon_words < 1:
            raise ConfigError(f"horizon_words must be at least 1, got {self.horizon_words}")
        if self.eye_bins_t < 64 or self.eye_bins_v < 64:
            raise ConfigError("eye histogram needs at least 64x64 bins")
        check_mask(self.mask_vertices)
        self.driver.validate()
        self.spike.validate()


def _flatten(obj, prefix: str = "") -> dict[str, object]:
    """Every leaf field of ``obj`` by dotted key (``driver.t_rf_ps``)."""
    out: dict[str, object] = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        if is_dataclass(v):
            out.update(_flatten(v, f"{prefix}{f.name}."))
        else:
            out[prefix + f.name] = v
    return out


def _unflatten(template, flat: dict[str, object], prefix: str = ""):
    """A ``template`` of the same shape whose leaves are read from ``flat``."""
    kwargs = {}
    for f in fields(template):
        v = getattr(template, f.name)
        kwargs[f.name] = (_unflatten(v, flat, f"{prefix}{f.name}.") if is_dataclass(v)
                          else flat[prefix + f.name])
    return type(template)(**kwargs)


def config_to_text(cfg: ChannelConfig) -> str:
    lines = []
    for key, v in _flatten(cfg).items():
        if isinstance(v, tuple):  # mask_vertices
            v = ";".join(f"{x!r}:{y!r}" for x, y in v)
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"


def _read_input(path: str | Path, what: str) -> str:
    """The text of an input file; a file that cannot be read is a ``ConfigError``."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read {what} {path}: not a text file") from None


def _parse_input(path: str | Path, what: str, parse: Callable[[str], T]) -> T:
    """``parse`` of an input file's text; its ``ConfigError`` names the file."""
    text = _read_input(path, what)
    try:
        return parse(text)
    except ConfigError as exc:
        raise ConfigError(f"{what} {path}: {exc}") from None


def read_settings(text: str, parse: Callable[[str, str], object]) -> dict[str, object]:
    """``{key: parse(key, value)}`` for each ``key = value`` line of ``text``.

    ``#`` starts a comment and blank lines are skipped.  A line without ``=``
    or a ``ConfigError`` from ``parse`` ends in a ``ConfigError`` naming the
    line; a key given twice keeps its last value.
    """
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "=" not in line:
                raise ConfigError("expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = parse(key, val)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return out


def parse_config(text: str) -> ChannelConfig:
    """Read a config file; every key and its type come from the defaults."""
    defaults = _flatten(ChannelConfig())

    def parse(key: str, val: str) -> object:
        if key not in defaults:
            raise ConfigError(f"unknown key {key!r}")
        kind = type(defaults[key])
        try:
            if kind is tuple:  # mask_vertices: x:y pairs separated by ';'
                return tuple(tuple(float(c) for c in pair.split(":"))
                             for pair in val.split(";") if pair)
            return kind(val)
        except ValueError:
            raise ConfigError("bad mask vertex list" if kind is tuple
                              else f"bad numeric value {val!r}") from None

    cfg = _unflatten(ChannelConfig(), {**defaults, **read_settings(text, parse)})
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> ChannelConfig:
    return _parse_input(path, "config file", parse_config)
