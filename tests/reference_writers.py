"""String-built writer tables: the oracle for the array-built ones in ``src/``.

``ref_g6_tables`` is ``driver._g6_tables`` as it was when its head and tail
forms were written as Python strings, one ``%`` and one ``rstrip`` each.  The
array-built tables must equal it, table by table, dtype included.
"""

import numpy as np

from datachan.driver import _G6_WIDTH


def ascii4(strings):
    """Up to four ASCII characters each, as the bytes of one uint32 (NUL-padded)."""
    strings = list(strings)
    assert all(len(s) <= 4 for s in strings), "a table form is longer than four bytes"
    return np.array([s.encode() for s in strings], dtype="S4").view(np.uint32)


def ref_g6_tables():
    cell = np.dtype({"names": ["sign", "prefix", "head", "tail", "exp"],
                     "formats": ["u1", "u4", "u4", "u4", "u4"],
                     "offsets": [0, 1, 5, 9, 13], "itemsize": _G6_WIDTH})
    digits = [tuple("%03d" % i) for i in range(1000)]

    def texts(form, strip, end=""):
        for d in digits:
            text = form % d
            yield (text.rstrip("0").rstrip(".") if strip else text) + end

    head = ascii4(text for form, fraction in (("%s.%s%s", True), ("%s%s.%s", True),
                                              ("%s%s%s", False), ("%s%s%s", True),
                                              ("0%s%s%s", True))
                  for strip in (False, fraction) for text in texts(form, strip))
    tail = ascii4(text for args in (("%s%s%s", True, "e"), ("%s%s%s", True), (".%s%s%s", True),
                                    ("%s.%s%s", True), ("%s%s.%s", True), ("%s%s%s", False))
                  for text in texts(*args))
    # the forms of the exponents -4 to 5; every other one takes form 0 and no prefix
    head_form = dict(zip(range(-4, 6), (4, 3, 3, 3, 0, 1, 2, 2, 2, 2)))
    tail_form = dict(zip(range(-4, 6), (1, 1, 1, 1, 1, 1, 2, 3, 4, 5)))
    prefixes = dict(zip(range(-4, 0), ("0.00", "0.00", "0.0", "0.")))
    xs = range(-300, 302)
    head_row = np.array([2000 * head_form.get(x, 0) for x in xs])
    tail_row = np.array([1000 * tail_form.get(x, 0) for x in xs])
    prefix = ascii4(prefixes.get(x, "") for x in xs)
    exp = ascii4("" if -4 <= x <= 5 else "%+03d" % x for x in xs)
    scale = np.fromiter((float("1e%d" % (305 - k)) for k in range(601)), dtype=float)
    return cell, prefix, head, head_row, tail, tail_row, exp, scale
