"""The text of ``"%.17g,%.17g\\n"`` CSV rows, built in numpy from integer digits.

``csv_text(header, x, y)`` is the one entry point. A finite value is scaled to
about 1e16 by a power of ten 10**p, p = 16 - X for its decimal exponent X in
-324..308, and the nearest integer of the product holds its 17 digits. 10**p
is a double-double (Dekker 1971), exact for p in 0..22 (X in -6..16), where
the two-product is exact and its rint is dtoa's rounding, ties to even
included. Elsewhere an error bound certifies the rounding of every product
but one that lies next to a half-integer; a row with such a value, an inf or
a nan is formatted by % itself.

Each value's text goes into a field of 48 bytes, NUL where unused: its sign
(byte 0), the "0." and zeros of a fixed value below 1 (1-5), digit j of its
17 (6 + 2j) followed by a slot for the point (7 + 2j), an exponent (40-44)
and the separator (47). A field is six uint64 words, so each part is ORed
in whole words from tables of bytes; no table depends on the byte order.
"""

from __future__ import annotations

import math

import numpy as np

# one rule for every value written: 17 significant digits round-trip a float
_NUMBER = "%.17g"


def _split(a):
    # Veltkamp: a == hi + lo, each half with at most 26 significant bits
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _powers_of_ten():
    # By p + 292 for p in -292..340: 10**p == (hi + lo) * 2**E with hi in
    # [1, 2), as the rows hi, its two Veltkamp halves, lo and 2**E, where an
    # E past 1023 stays 1023 and its rest scales hi and lo (hi < 2**107 at
    # p = 340), and where p in 0..22 has hi the exact double 10**p and E 0.
    # They come from the top 110 bits of 2**1200 // 10**-p for p < 0 and of
    # 2**110 * 10**p for p >= 0, each longer than that: hi + lo is within a
    # relative 2**-106.8 of 10**p / 2**E, and lo == 0 exactly for p in 0..22.
    # Built from Python integers and exact scalings of floats
    q, t = 2**1200, 2**110
    powers = [q := q // 10 for _ in range(292)][::-1] + [t] + [t := t * 10 for _ in range(340)]
    shifts = [m.bit_length() - 110 for m in powers]
    tops = [m >> shift for m, shift in zip(powers, shifts)]
    nearest = [float(top) for top in tops]
    # 10**p is top * 2**shift over 2**1200 or 2**110, and top is hi * 2**109;
    # E is past 1023 only from p = 308 on
    exponents = [s - 1091 for s in shifts[:292]] + [s - 1 for s in shifts[292:]]
    rest = np.full(633, 2.0**-109)
    rest[600:] = [math.ldexp(2.0**-109, e - 1023) for e in exponents[600:]]
    hi = np.array(nearest) * rest
    lo = np.array([top - int(x) for top, x in zip(tops, nearest)], float) * rest
    power = np.array([math.ldexp(1.0, min(e, 1023)) for e in exponents])
    hi[292:315], power[292:315] = [float(10**p) for p in range(23)], 1.0
    return np.array([hi, *_split(hi), lo, power])


_TENS = _powers_of_ten()
# a bound on the error of lo in a double-double scaling; see _scaled
_LO_ERROR = 1e-12


def _words(text) -> np.ndarray:
    # rows of 8k bytes as rows of k uint64 words
    return np.ascontiguousarray(text, np.uint8).view(np.uint64)


def _field_tables():
    # By F * 17 + L, for the form F, X + 5 for a fixed value of exponent X in
    # -4..16 and 0 for an exponent form, and the index L of the last nonzero
    # digit: a mask of the bytes kept and the constant text, but for the last
    # word. Both are built by slicing alone, so that no ufunc runs at import
    shown = np.zeros((22, 17, 48), np.uint8)
    shown[..., 0] = 255
    text = np.zeros(shown.shape, np.uint8)
    # %g drops trailing zeros, but not from the integer part of a fixed value
    digits = shown[..., 6:40:2]
    for last in range(17):
        digits[:, last, :last + 1] = 255
    lead = np.frombuffer(b"0.000", np.uint8)
    for x in range(17):
        digits[x + 5, :x + 1, :x + 1] = 255
        # the point follows the integer part when a nonzero digit follows it
        text[x + 5, x + 1:, 7 + 2 * x] = ord(".")
    # a fixed value below 1 has its point in its lead
    for x in range(-4, 0):
        text[x + 5, :, 1:2 - x] = lead[:1 - x]
    # an exponent form has its point after digit 0, when a nonzero digit follows
    text[0, 1:, 7] = ord(".")
    return _words(shown).reshape(-1, 6), _words(text).reshape(-1, 6)


def _group_tables():
    # By g in 0..9999 with digits d0 d1 d2 d3: the digits in the digit columns
    # of one word, and for j = 0..3 the index among the 16 digits after the
    # first of the last nonzero digit of g as their group j (0 when g is 0),
    # which is 4 j + k + 1 for the last k with d_k > 0
    spread = np.zeros((10, 10, 10, 10, 8), np.uint8)
    last = np.zeros((4, 10, 10, 10, 10), np.uint8)
    digits = np.frombuffer(b"0123456789", np.uint8)
    for k in range(4):
        spread[..., 2 * k] = digits[(slice(None),) + (None,) * (3 - k)]
        for j in range(4):
            last[(j,) + (slice(None),) * k + (slice(1, None),)] = 4 * j + k + 1
    return _words(spread).ravel(), last.reshape(4, -1)


_SHOWN, _TEXT = _field_tables()
_SPREAD, _LAST = _group_tables()


def _byte_words(column: int, values: bytes) -> np.ndarray:
    # a word per value, with the value in that byte column and NUL elsewhere
    words = np.zeros((len(values), 8), np.uint8)
    words[:, column] = np.frombuffer(values, np.uint8)
    return _words(words).ravel()


_FIRST = _byte_words(6, b"0123456789")
_SIGN = _byte_words(0, b"\0-")


def _end_words():
    # By X + 324 for X in -324..308, then again plus 633: the last word of a
    # field, its bytes 40-47: the exponent as %g writes it, none for a fixed
    # value, NUL-padded, then the separator, "," and then "\n"
    words = [(b"" if -5 < X < 17 else b"e%+03d" % X).ljust(7, b"\0") for X in range(-324, 309)]
    return np.frombuffer(b"".join(sep.join(words) + sep for sep in (b",", b"\n")), np.uint64)


_ENDS = _end_words()
# by X + 324: the form of the field tables times 17
_FORMS = np.zeros(633, np.intp)
_FORMS[320:341] = range(17, 374, 17)
# rows per kernel block: the block's arrays bound the memory a CSV takes
_ROWS = 2048


def _product(a, b, b_hi, b_lo):
    # Dekker's two-product: hi + lo == a * b exactly, for a, b > 0 here and
    # b_hi + b_lo the split of b
    hi = a * b
    a_hi, a_lo = _split(a)
    lo = a_hi * b_hi - hi
    lo += a_hi * b_lo
    lo += a_lo * b_hi
    lo += a_lo * b_lo
    return hi, lo


def _scaled(a, p):
    # hi + lo close to a * 10**p, for p in -292..340 and a finite a > 0 whose
    # product is near 1e16: b == a * 2**E exactly, a subnormal a included,
    # and b * (hi_p + lo_p) is a * 10**p within the table's error, exactly
    # for p in 0..22, where lo_p is 0 and the two-product is exact. Where
    # _digits has settled a decade, hi + lo < 1e17 and hi < 2**57, so the
    # two-product's part of lo is at most half an ulp of hi, 8, and
    # |b * lo_p| <= b * hi_p * 2**-53 < 16. Against a * 10**p, lo then errs
    # by at most
    #   1e17 * 2**-106 from the table (1.3e-15),
    #   2**-50 in rounding b * lo_p, below 16 (8.9e-16),
    #   2**-49 in rounding the sum into lo, below 24 (1.8e-15),
    # less than 4e-15 in all. _LO_ERROR allows 1e-12
    p = p + 292
    b = a * _TENS[4].take(p)
    hi, lo = _product(b, _TENS[0].take(p), _TENS[1].take(p), _TENS[2].take(p))
    lo += b * _TENS[3].take(p)
    return hi, lo


def _divmod(a, b: int):
    # a // b and a % b; numpy's own divmod is twice as slow on a constant
    q = a // b
    return q, a - q * b


def _rounded(hi, lo, X):
    # hi + lo in [1e16, 1e17) as its nearest integer n, ties to even as dtoa
    # rounds, and the exponent X of the value it scales: hi is an even integer
    # above 2**53 and |lo| below 32. An n of 10**17 is 10**16 of the next
    # decade. No double in 1e-6..1e16 rounds up that far: its 17 digits read
    # back as itself, and no fl(10**k) there is below 10**k. Past that range
    # some do: fl(10**-305) and fl(10**98), among others, lie below 10**k by
    # less than half a unit of their 17th digit. No subnormal one does: each
    # fl(10**k) for k in -323..-308 lies further than that from 10**k
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = n == 10**17
    n -= carry * (9 * 10**16)
    return n, X + carry


def _digits(a):
    """For finite floats a > 0: hi, lo and exponents X with hi + lo in
    [1e16, 1e17) the value of a * 10**(16 - X), exactly for X in -6..16 and
    elsewhere with lo erring by less than _LO_ERROR."""
    # log10 of a finite a floors into -324..308, the rows of the table
    x = np.log10(a)
    X = np.floor(x, out=x).astype(np.intp)
    hi, lo = _scaled(a, 16 - X)
    # log10 can miss by one next to a power of ten: X is the decade of hi + lo,
    # whose signs against 1e17 and 1e16 the differences below get exactly.
    # Where an inexact hi + lo errs across 1e17 or 1e16, its value is within
    # the error of 10**17 or 10**16, so both decades round to the same digits:
    # the carry of _rounded takes 10**17 to 10**16 of the next decade
    up = (hi - 1e17) + lo >= 0.0
    down = (hi - 1e16) + lo < 0.0
    X += up
    X -= down
    fix = np.flatnonzero(up | down)
    if fix.size:
        hi[fix], lo[fix] = _scaled(a[fix], 16 - X[fix])
    return hi, lo, X


def _row_bytes(xy) -> np.ndarray:
    """The rows of an (n, 2) float block as an (n, 96) uint8 matrix; without
    its NULs it is the text of ``"%.17g,%.17g\\n"`` for each row."""
    v = xy.ravel()
    zero = v == 0.0
    # a zero goes through as 1.0, so no operation sees it, and so does an inf
    # or a nan, whose row goes to %
    a = np.abs(v)
    a[zero] = 1.0
    special = np.flatnonzero(~(a < math.inf))
    a[special] = 1.0
    hi, lo, X = _digits(a)
    # and so does the row of an inexact product that lies within the error of
    # a half-integer, whose rounding is left unproven; a product by an exact
    # power of ten (lo_p == 0, in the table at p + 292 == 308 - X) is exact,
    # so its rint rounds it right, a tie to even too
    unsure = np.flatnonzero(np.abs(lo - np.rint(lo)) >= 0.5 - _LO_ERROR)
    unsure = unsure[_TENS[3].take(308 - X.take(unsure)) != 0.0]
    n, X = _rounded(hi, lo, X)
    first, n = _divmod(n, 10**16)
    upper, lower = _divmod(n, 10**8)
    groups = (*_divmod(upper.astype(np.int32), 10**4), *_divmod(lower.astype(np.int32), 10**4))
    last = np.maximum(np.maximum(_LAST[0].take(groups[0]), _LAST[1].take(groups[1])),
                      np.maximum(_LAST[2].take(groups[2]), _LAST[3].take(groups[3])))
    X += 324
    key = _FORMS.take(X)
    key += last
    # the second value of a row ends its line
    X[1::2] += 633
    words = np.empty((v.size, 6), np.uint64)
    # a zero has the one digit 1 of 1.0, made 0
    first -= zero
    words[:, 0] = _FIRST.take(first) | _SIGN.take(np.signbit(v))
    for j, group in enumerate(groups, 1):
        words[:, j] = _SPREAD.take(group)
    words &= _SHOWN.take(key, axis=0)
    words |= _TEXT.take(key, axis=0)
    words[:, 5] = _ENDS.take(X)
    rows = words.view(np.uint8).reshape(-1, 96)
    for row in set((np.concatenate([special, unsure]) // 2).tolist()):
        line = (f"{_NUMBER},{_NUMBER}\n" % tuple(xy[row].tolist())).encode()
        rows[row] = 0
        rows[row, :len(line)] = np.frombuffer(line, np.uint8)
    return rows


def csv_text(header: str, x, y) -> str:
    """The header line, then ``"%.17g,%.17g\\n" % (x[i], y[i])`` for each row.

    Dekker's two-product scales each value to hi + lo within a certified
    error of |x| * 10**p in [1e16, 1e17), and its nearest integer, ties to
    even, is the 17-digit rounding that dtoa's correctly rounded %.17g
    prints; %.17g writes an integer code column's 5.0 as 5, as it writes 5.
    """
    xy = np.empty((len(x), 2))
    xy[:, 0] = x
    xy[:, 1] = y
    # in equal blocks of at most _ROWS rows
    blocks = np.array_split(xy, -(-len(xy) // _ROWS) or 1)
    text = b"".join(_row_bytes(block).tobytes().translate(None, b"\0") for block in blocks)
    return f"{header}\n" + text.decode("ascii")
