"""The bytes of key.csv rows, each float as ``repr(float(x))``, in numpy.

A finite non-zero normal double v = c * 2**q has a shortest decimal: the
decimal with the fewest digits inside v's rounding interval, and of those
the one closest to v (ties to an even last digit). Python's ``repr``
prints it. Giulietti's Schubfach method ("The Schubfach way to render
doubles", 2020) finds it with no digit loop: one product of c with a
126-bit approximation g of 10**-k, rounded to odd at three points (v and
the two ends of its interval), then a few comparisons against the
nearest multiples of 10**k and 10**(k+1). Each step is a whole-array
numpy operation, so a block of values costs a fixed number of calls.

The layout is ``repr``'s: fixed notation for 1e-4 <= |x| < 1e16, with
``.0`` on integral values, otherwise ``d[.ddd]e+XX``. Zeros, subnormals
and non-finite values, which are rare in a transcript, go through
``repr`` itself. The module's one entry point, :func:`key_rows`, lays
out whole key.csv rows, so the byte layout of a row is known here only.
"""

from __future__ import annotations

import numpy as np

_K_MIN, _K_MAX = -324, 292  # floor(log10(2**q)) over the normal exponents
_MASK32 = 0xFFFFFFFF
_MASK63 = (1 << 63) - 1
_COLUMN = np.arange(18).reshape(18, 1)
_POW10 = 10 ** np.arange(19, dtype=np.uint64)


# '00'..'99' as little-endian byte pairs: the tens digit first
_PAIRS = np.array([(48 + i // 10) | (48 + i % 10) << 8 for i in range(100)], dtype="<u2")

# The label fields and the matched field of a key.csv row, indexed by the
# basis-pair code 2 * alice + bob, with the offsets they are written at.
_ROW_MID = np.frombuffer(b",q,q,,q,p,,p,q,,p,p,", dtype=np.uint8).reshape(4, 5).T.copy()
_ROW_END = np.frombuffer(b",1\r\n,0\r\n,0\r\n,1\r\n", dtype=np.uint8).reshape(4, 4).T.copy()
_MID_COLUMNS = np.arange(-5, 0).reshape(5, 1)
_END_COLUMNS = np.arange(-4, 0).reshape(4, 1)


def _g_table() -> np.ndarray:
    """g(k) = g1 * 2**63 + g0 for k = _K_MIN .. _K_MAX (617 entries), as rows g1, g0.

    10**-k = beta * 2**r with 2**125 <= beta < 2**126, r = floor(log2(10**-k)) - 125,
    and g = floor(beta) + 1.
    """
    table = np.empty((2, _K_MAX - _K_MIN + 1), dtype=np.uint64)
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        if k <= 0:
            p = 10**-k
            r = p.bit_length() - 126
            g = (p >> r if r >= 0 else p << -r) + 1
        else:
            p = 10**k  # not a power of 2, so floor(log2(10**-k)) = -bit_length
            r = -p.bit_length() - 125
            g = (1 << -r) // p + 1
        table[:, i] = [g >> 63, g & _MASK63]
    table.flags.writeable = False
    return table


# Built at import, about 1 ms: key.csv is written in a forked child, so a
# table built on first use would be built anew in every child.
_G = _g_table()


def _shortest(bits: np.ndarray):
    """Shortest digits d and exponent k (value d * 10**k) of normal doubles.

    `bits` are the raw bits of positive normal doubles. Names follow the
    paper: v = c * 2**q, and vb, vbl, vbr are 4 v 10**-k and the ends of
    v's rounding interval, scaled alike and rounded to odd.
    """
    biased = (bits >> 52).view(np.int64)
    t = bits & ((1 << 52) - 1)
    c = t | (1 << 52)
    q = biased - 1075
    irregular = (t == 0) & (biased > 1)  # c = 2**52: the lower gap is half
    k = (q * 661971961083 - np.where(irregular, 274743187321, 0)) >> 41
    vb, vbr, vbl = _scaled(c, q, k, irregular)

    out = (c & 1).view(np.int64)  # an odd c excludes the interval's ends
    vbl += out
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    wpin = (sp10 + 10 << 2) + out <= vbr
    uin = vbl <= s << 2
    win = (s + 1 << 2) + out <= vbr
    # both candidates inside: the closer one, or the even one at a tie
    closer = vb - (4 * s + 2)
    d = s + ((closer > 0) | ((closer == 0) & (s & 1 == 1)))
    d = np.where(uin != win, s + win, d)
    d = np.where(upin != wpin, sp10 + 10 * wpin, d)
    return d, k


def _scaled(c, q, k, irregular) -> np.ndarray:
    """vb, vbr and vbl: rop(g cp 2**-127) for cp = cb << h, cbr << h, cbl << h.

    As in the paper's reference code, g cp is formed from the 64-bit
    halves of g, g1 cp 2**63 + g0 cp, and rop rounds its bits from 2**127
    up to odd when those from 2**64 to 2**127 are not all zero. The
    product is formed once, for cb = 4c; cbr and cbl add g << (h + 1) and
    subtract it (g << h where the lower gap is half) in 128 bits.
    """
    g = np.take(_G, k - _K_MIN, axis=1)
    h = (q + (-k * 913124641741 >> 38) + 2).view(np.uint64)  # 2..5; floor(log2(10**-k))
    cp = c << (h + 2)
    # rows 0, 1, 2: cb, cbr, cbl; columns 0, 1: g1 cp and g0 cp
    high = np.empty((3, 2, c.size), dtype=np.uint64)
    low = np.empty_like(high)
    high[0] = _high_product(g, cp)
    low[0] = g * cp
    step = h + 1
    np.add(low[0], g << step, out=low[1])
    high[1] = high[0] + (g >> (64 - step)) + (low[1] < low[0])
    step -= irregular
    np.subtract(low[0], g << step, out=low[2])
    high[2] = high[0] - (g >> (64 - step)) - (low[2] > low[0])
    z = (low[:, 0] >> 1) + high[:, 1]
    return (high[:, 0] + (z >> 63) | ((z & _MASK63) != 0)).view(np.int64)


def _high_product(a, b) -> np.ndarray:
    """The high 64 bits of each 128-bit product a * b, from 32-bit halves."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    cross_a = a_hi * b_lo
    cross_b = a_lo * b_hi
    mid = (a_lo * b_lo >> 32) + (cross_a & _MASK32) + (cross_b & _MASK32)
    return a_hi * b_hi + (cross_a >> 32) + (cross_b >> 32) + (mid >> 32)


def _digit_chars(d: np.ndarray) -> np.ndarray:
    """The last 18 decimal digits of each d < 10**18 as chars, shaped (18, n).

    Row 17 holds the units. Two digits per pass: 8-digit halves split into
    fours, fours into pairs, and each pair indexes ``_PAIRS``.
    """
    d = d.view(np.uint64)
    groups = np.empty((9, d.size), dtype=np.uint64)
    high = d // 10**8
    groups[0] = high // 10**8
    eights = np.stack([high - groups[0] * 10**8, d - high * 10**8])
    fours = np.empty((4, d.size), dtype=np.uint64)
    fours[::2] = eights // 10**4
    fours[1::2] = eights - fours[::2] * 10**4
    groups[1::2] = fours // 100
    groups[2::2] = fours - groups[1::2] * 100
    pairs = _PAIRS.take(groups.view(np.int64)).view(np.uint8)
    chars = np.empty((9, 2, d.size), dtype=np.uint8)
    np.copyto(chars, pairs.reshape(9, d.size, 2).transpose(0, 2, 1))
    return chars.reshape(18, d.size)


def _put_digits(buf, chars, at, first, dot, stop) -> None:
    """Write digit rows of `chars` to `buf`: row `first` of each value at
    `at`, the next rows after it, with a one-byte gap after `dot` of them.

    `chars` holds the last rows of :func:`_digit_chars`. Rows before
    `first` are written to at - 1 and rows past `stop` to `stop`; those
    are '0' chars, which the byte's own content overwrites later.
    """
    column = _COLUMN[-len(chars):]
    place = (at - first) + column
    place += column >= first + dot
    np.clip(place, at - 1, stop, out=place)
    buf[place] = chars


class _Reprs:
    """The repr of each value of a float64 block, placed on demand.

    ``lengths`` holds the byte length of each repr; ``place(buf, starts)``
    writes repr i to ``buf[starts[i]:starts[i] + lengths[i]]``. The buffer
    must be prefilled with ``'0'`` (repr's padding zeros are not written);
    the byte before and the byte after each repr may be written too (see
    :func:`key_rows`).
    """

    def __init__(self, x: np.ndarray) -> None:
        bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
        self.negative = (bits >> 63).astype(bool)
        bits = bits & _MASK63
        biased = bits >> 52
        self.special = np.flatnonzero((biased == 0) | (biased == 0x7FF))
        self.special_bytes = [repr(float(x[i])).encode() for i in self.special]
        bits[self.special] = 0x3FF0000000000000  # 1.0, overwritten in place()
        d, k = _shortest(bits)
        # d has 16 or 17 digits: 2**52 <= c * 2**q / 10**k < 10 * 2**53
        self.chars = _digit_chars(d)[1:]
        self.first = (2 - (d >= 10**16)).astype(np.int16)
        last = np.max(_COLUMN[1:].astype(np.int16) * (self.chars != 48), axis=0)
        count = last - self.first + 1
        point = (k + 18).astype(np.int16) - self.first  # value = 0.DIGITS * 10**point
        self.fixed = (point > -4) & (point <= 16)
        self.exponent = point - 1
        # exponent notation lays out its digits as fixed notation at point 1
        self.point = np.where(self.fixed, point, np.int16(1))
        self.dotted = self.fixed | (count > 1)
        self.units = np.maximum(self.point, 1)
        self.mantissa = self.units + self.dotted + np.where(
            self.fixed, np.maximum(count - self.point, 1), count - 1
        )
        lengths = self.negative + self.mantissa
        lengths += np.where(self.fixed, 0, np.where(np.abs(self.exponent) >= 100, 5, 4))
        lengths[self.special] = [len(b) for b in self.special_bytes]
        self.lengths = lengths

    def place(self, buf: np.ndarray, starts: np.ndarray) -> None:
        body = starts + self.negative
        # "0." and the zeros of fixed notation below 1 come before the digits
        at = body + np.maximum(1 - self.point, 0)
        _put_digits(buf, self.chars, at, self.first, self.point, starts + self.lengths)
        buf[np.where(self.dotted, body + self.units, starts - 1)] = ord(".")
        buf[starts[self.negative]] = ord("-")
        sci = np.flatnonzero(~self.fixed)
        if sci.size:
            at = body[sci] + self.mantissa[sci]
            e = self.exponent[sci]
            buf[at] = ord("e")
            buf[at + 1] = np.where(e < 0, ord("-"), ord("+"))
            e = np.abs(e)
            wide = e >= 100
            buf[at[wide] + 2] = 48 + e[wide] // 100
            chars = _PAIRS.take(e % 100).view(np.uint8).reshape(-1, 2)
            buf[at + 2 + wide] = chars[:, 0]
            buf[at + 3 + wide] = chars[:, 1]
        for i, text in zip(self.special, self.special_bytes):
            buf[starts[i] : starts[i] + len(text)] = np.frombuffer(text, dtype=np.uint8)


def key_rows(start: int, pair: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The key.csv bytes of rows ``i,A,B,alpha,beta,M\\r\\n``, i = start, start + 1, ...

    The labels A, B and the matched flag M come from the basis-pair code
    ``pair = 2 * alice + bob``, and each float is written as
    ``repr(float(x))``. The rows are laid out in one buffer prefilled with
    ``'0'``, each at its offset from a cumulative sum of the row lengths.
    Placing a field may also write the byte before it and the byte after
    it; those are separators, or the spare byte in front of the first
    row, so the fields go in first and the separators last.
    """
    index = np.arange(start, start + pair.size)
    index_width = np.maximum(np.searchsorted(_POW10, index.view(np.uint64), side="right"), 1)
    alpha = _Reprs(alpha)
    beta = _Reprs(beta)
    # index, ",q,p,", alpha, ",", beta and ",0\r\n", after the spare byte
    widths = index_width + alpha.lengths + beta.lengths + 10
    ends = np.cumsum(widths) + 1
    starts = ends - widths
    alpha_at = starts + index_width + 5
    beta_at = alpha_at + alpha.lengths + 1
    buf = np.full(ends[-1], ord("0"), dtype=np.uint8)
    alpha.place(buf, alpha_at)
    beta.place(buf, beta_at)
    chars = _digit_chars(index)[18 - index_width.max() :]
    _put_digits(buf, chars, starts, 18 - index_width, index_width, starts + index_width)
    buf[_MID_COLUMNS + alpha_at] = _ROW_MID.take(pair, axis=1)
    buf[beta_at - 1] = ord(",")
    buf[_END_COLUMNS + ends] = _ROW_END.take(pair, axis=1)
    return buf[1:]
