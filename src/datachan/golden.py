"""Functional golden model of the N:1 serializer and serial-stream recovery.

``golden_serialize`` defines the reference bit order (D0 first, matching
the Sel1..SelN to D0..D{N-1} pairing); ``extract_serial`` recovers the
transmitted stream from simulated traces so the two routes can be compared
bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .config import ChannelConfig, _read_input
from .errors import FramingError
from .logic import HIGH, LOW, SignalTraces
from .stimulus import Word


def check_word(word: Word, width: int = 10) -> Word:
    if len(word) != width or any(b not in (0, 1) for b in word):
        raise ValueError(f"expected a {width}-bit word of 0/1, got {word!r}")
    return word


@dataclass
class BitStream:
    """Serial bits on the exact rational bit-period grid."""

    bits: list[int]
    start_time_ps: int = 0
    bit_period: Fraction = Fraction(10**12, 1_650_000_000)

    def __len__(self):
        return len(self.bits)

    def __eq__(self, other):
        if isinstance(other, BitStream):
            return self.bits == other.bits
        return NotImplemented


def golden_serialize(words: list[Word], width: int = 10,
                     bit_period: Fraction | None = None) -> BitStream:
    """Reference serialization: D0..D{width-1} of each word in order."""
    if not words:
        raise ValueError("need at least one word")
    bits = []
    for w in words:
        bits.extend(check_word(w, width))
    period = bit_period if bit_period is not None else Fraction(10**12, 1_650_000_000)
    return BitStream(bits=bits, bit_period=period)


def extract_serial(traces: SignalTraces, config: ChannelConfig) -> BitStream:
    """Recover the serial stream from select framing and line states.

    Each slot is framed by the rise of its select; the bit is read at
    mid-slot from the slot's group line (Odd for odd selects, Even for
    even) and cross-checked against the complement line.
    """
    width = config.word_width
    half = round(config.bit_period / 2)

    slots: list[tuple[int, int]] = []
    for k in range(1, width + 1):
        slots.extend((t, k) for t in traces.edges(f"Sel{k}", "rise"))
    slots.sort()
    # frame from the first Sel1 rise onward
    while slots and slots[0][1] != 1:
        slots.pop(0)
    if not slots:
        return BitStream(bits=[], bit_period=config.bit_period)

    n_complete = (len(slots) // width) * width
    expected = 1
    bits = []
    for t, k in slots[:n_complete]:
        if k != expected:
            raise FramingError(f"select order broken at {t} ps: Sel{k}, "
                               f"expected Sel{expected}")
        expected = expected % width + 1
        group, comp = ("Odd", "nOdd") if k % 2 == 1 else ("Even", "nEven")
        mid = t + half
        g, c = traces.level_at(group, mid), traces.level_at(comp, mid)
        if g is LOW and c is HIGH:
            bits.append(1)
        elif g is HIGH and c is LOW:
            bits.append(0)
        else:
            raise FramingError(
                f"slot Sel{k} at {t} ps: {group}={g.name}, {comp}={c.name}"
            )
    return BitStream(bits=bits, start_time_ps=slots[0][0], bit_period=config.bit_period)


# --------------------------------------------------------------------------
# word-file and bitstream text formats

def parse_word_text(text: str, width: int = 10) -> list[Word]:
    """One binary string per line, leftmost character = highest bit index; at least one."""
    words = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if len(line) != width or any(c not in "01" for c in line):
            raise ValueError(f"line {lineno}: expected {width} binary digits")
        words.append(tuple(int(c) for c in reversed(line)))
    if not words:
        raise ValueError("holds no words")
    return words


def load_words(path: str | Path, width: int = 10) -> list[Word]:
    return parse_word_text(_read_input(path, "word file"), width)


def format_bitstream(stream: BitStream) -> str:
    """The bits as ``0``/``1`` text, 80 to a line."""
    text = "".join(str(b) for b in stream.bits)
    lines = [text[i:i + 80] for i in range(0, len(text), 80)] or [""]
    return "\n".join(lines) + "\n"
