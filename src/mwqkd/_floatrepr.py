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

The kernel takes the doubles that ``repr`` writes in fixed notation,
1e-4 <= |x| < 1e16 (so 2**-14 <= |x| < 2**54), bar exact powers of two,
whose rounding interval is irregular; it lays them out with ``.0`` on
integral values. Every other float (zeros, subnormals, non-finite
values, exact powers of two, exponent notation), of which a transcript
of the presets holds at most a few, goes through ``repr`` itself.

The module's two entry points write in blocks of ``BLOCK_CELLS`` floats,
so the byte layout of a row is known here only: :func:`write_key_csv`
writes key.csv whole, header and basis labels included, and
:func:`write_table` the lines of a float table, such as the CSV of the
``sweep`` command. Each block places the fields at offsets from a
cumulative sum of their lengths in one buffer, then the separators.
"""

from __future__ import annotations

import numpy as np

_K_MIN = -20  # floor(log10(2**q)) for 2**-14 <= 2**q < 2**54 is _K_MIN .. 0
_MASK32 = 0xFFFFFFFF
_MASK52 = (1 << 52) - 1
_MASK63 = (1 << 63) - 1
_COLUMN = np.arange(18).reshape(18, 1)
_POW10 = 10 ** np.arange(19, dtype=np.uint64)

# Floats per block of either writer: one block's work arrays take about
# 0.9 MB (key.csv rows) to 1.3 MB (table cells).
BLOCK_CELLS = 1 << 12

# The key.csv columns, and the labels of basis codes 0 and 1.
KEY_CSV_COLUMNS = ("index", "alice_basis", "bob_basis", "alpha", "beta", "matched")
BASIS_LABELS = ("q", "p")


# '00'..'99' as little-endian byte pairs: the tens digit first
_PAIRS = np.array([(48 + i // 10) | (48 + i % 10) << 8 for i in range(100)], dtype="<u2")

# The label fields and the matched field of a key.csv row, indexed by the
# basis-pair code 2 * alice + bob, with the offsets they are written at.
_MIDS = "".join(f",{a},{b}," for a in BASIS_LABELS for b in BASIS_LABELS).encode()
_ROW_MID = np.frombuffer(_MIDS, dtype=np.uint8).reshape(4, 5).T.copy()
_ROW_END = np.frombuffer(b",1\r\n,0\r\n,0\r\n,1\r\n", dtype=np.uint8).reshape(4, 4).T.copy()
_MID_COLUMNS = np.arange(-5, 0).reshape(5, 1)
_END_COLUMNS = np.arange(-4, 0).reshape(4, 1)

# g(k) for k = _K_MIN .. 0, 10**-k shifted to 2**125 <= beta < 2**126 plus 1,
# as rows g1, g0 of g = g1 * 2**63 + g0
_G_INTS = [(10**-k << 126 - (10**-k).bit_length()) + 1 for k in range(_K_MIN, 1)]
_G = np.array([[g >> 63 for g in _G_INTS], [g & _MASK63 for g in _G_INTS]], dtype=np.uint64)
_G.flags.writeable = False


def _shortest(bits: np.ndarray):
    """Shortest digits d and exponent k (value d * 10**k) of doubles.

    `bits` are the raw bits of positive doubles in the kernel's domain:
    each has a regular rounding interval, and k is _K_MIN .. 0. Names
    follow the paper: v = c * 2**q, and vb, vbl, vbr are 4 v 10**-k and
    the ends of v's rounding interval, scaled alike and rounded to odd.
    """
    c = bits & _MASK52 | (1 << 52)
    q = (bits >> 52).view(np.int64) - 1075
    k = q * 661971961083 >> 41
    vb, vbr, vbl = _scaled(c, q, k)

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


def _scaled(c, q, k) -> np.ndarray:
    """vb, vbr and vbl: rop(g cp 2**-127) for cp = cb << h, cbr << h, cbl << h.

    As in the paper's reference code, g cp is formed from the 64-bit
    halves of g, g1 cp 2**63 + g0 cp, and rop rounds its bits from 2**127
    up to odd when those from 2**64 to 2**127 are not all zero. The
    product is formed once, for cb = 4c; cbr and cbl add g << (h + 1) and
    subtract it in 128 bits.
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
        x = np.ascontiguousarray(x, dtype=np.float64)
        bits = x.view(np.uint64)
        self.negative = (bits >> 63).astype(bool)
        bits = bits & _MASK63
        magnitude = bits.view(np.float64)
        kernel = (magnitude >= 1e-4) & (magnitude < 1e16) & (bits & _MASK52 != 0)
        self.other = np.flatnonzero(~kernel)
        texts = [repr(v) for v in x[self.other].tolist()]
        self.other_bytes = np.frombuffer("".join(texts).encode(), dtype=np.uint8)
        self.other_lengths = np.array([len(text) for text in texts], dtype=np.int64)
        bits[self.other] = 0x3FF8000000000000  # 1.5, overwritten in place()
        d, k = _shortest(bits)
        # d has 16 or 17 digits: 2**52 <= c * 2**q / 10**k < 10 * 2**53
        self.chars = _digit_chars(d)[1:]
        self.first = (2 - (d >= 10**16)).astype(np.int16)
        last = np.max(_COLUMN[1:].astype(np.int16) * (self.chars != 48), axis=0)
        count = last - self.first + 1
        # value = 0.DIGITS * 10**point, and -4 < point <= 16 in fixed notation
        self.point = (k + 18).astype(np.int16) - self.first
        self.units = np.maximum(self.point, 1)
        # sign, the units, the point and at least one digit after it
        self.lengths = self.negative + self.units + 1 + np.maximum(count - self.point, 1)
        self.lengths[self.other] = self.other_lengths

    def place(self, buf: np.ndarray, starts: np.ndarray) -> None:
        body = starts + self.negative
        # "0." and the zeros of fixed notation below 1 come before the digits
        at = body + np.maximum(1 - self.point, 0)
        _put_digits(buf, self.chars, at, self.first, self.point, starts + self.lengths)
        buf[body + self.units] = ord(".")
        buf[starts[self.negative]] = ord("-")
        # the repr bytes, joined, each shifted from its place in the join to its start
        shift = starts[self.other] - np.cumsum(self.other_lengths) + self.other_lengths
        buf[np.repeat(shift, self.other_lengths) + np.arange(self.other_bytes.size)] = (
            self.other_bytes
        )


def _laid_out(widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A buffer prefilled with ``'0'`` for fields of `widths` laid end to
    end after one spare byte, and the offset of each field in it."""
    ends = np.cumsum(widths) + 1
    buf = np.full(ends[-1] if ends.size else 1, ord("0"), dtype=np.uint8)
    return buf, ends - widths


def key_rows(start: int, alice, bob, alpha, beta) -> np.ndarray:
    """The key.csv bytes of rows ``i,A,B,alpha,beta,M\\r\\n``, i = start, start + 1, ...

    The labels A, B and the matched flag M come from the basis-pair code
    ``2 * alice + bob``, and each float is written as ``repr(float(x))``.
    The rows are laid out in one buffer prefilled with ``'0'``, each at
    its offset from a cumulative sum of the row lengths. Placing a field
    may also write the byte before it and the byte after it; those are
    separators, or the spare byte in front of the first row, so the
    fields go in first and the separators last.
    """
    pair = 2 * alice + bob
    index = np.arange(start, start + pair.size)
    index_width = np.maximum(np.searchsorted(_POW10, index.view(np.uint64), side="right"), 1)
    alpha = _Reprs(alpha)
    beta = _Reprs(beta)
    # index, ",q,p,", alpha, ",", beta and ",0\r\n"
    widths = index_width + alpha.lengths + beta.lengths + 10
    buf, starts = _laid_out(widths)
    ends = starts + widths
    alpha_at = starts + index_width + 5
    beta_at = alpha_at + alpha.lengths + 1
    alpha.place(buf, alpha_at)
    beta.place(buf, beta_at)
    chars = _digit_chars(index)[18 - index_width.max() :]
    _put_digits(buf, chars, starts, 18 - index_width, index_width, starts + index_width)
    buf[_MID_COLUMNS + alpha_at] = _ROW_MID.take(pair, axis=1)
    buf[beta_at - 1] = ord(",")
    buf[_END_COLUMNS + ends] = _ROW_END.take(pair, axis=1)
    return buf[1:]


def write_key_csv(path, alice, bob, alpha, beta) -> None:
    """Write key.csv: the header, then row i of the basis codes `alice`,
    `bob` (0 for ``q``, 1 for ``p``) and the floats `alpha`, `beta`, in
    blocks of ``BLOCK_CELLS`` floats (2 048 rows), so memory stays flat.

    The bytes are those of ``csv.writer`` in its default dialect: comma
    separated, ``\\r\\n`` line ends, and nothing quoted, since no field
    can hold a comma, quote or line break.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(KEY_CSV_COLUMNS) + "\r\n").encode())
        for start in range(0, alpha.size, BLOCK_CELLS // 2):
            rows = slice(start, start + BLOCK_CELLS // 2)
            fh.write(key_rows(start, alice[rows], bob[rows], alpha[rows], beta[rows]))


def table_rows(table: np.ndarray) -> np.ndarray:
    """The bytes of the lines of a 2-D float64 table of one or more
    columns: ``,``-separated cells each written as ``repr(float(x))``,
    every line ended by ``\\n``.

    Each cell is laid out as in :func:`key_rows`, followed by its
    separator or line end, and the separators go in last.
    """
    cells = _Reprs(table.ravel())
    buf, starts = _laid_out(cells.lengths + 1)
    cells.place(buf, starts)
    stops = (starts + cells.lengths).reshape(table.shape)
    buf[stops[:, :-1]] = ord(",")
    buf[stops[:, -1]] = ord("\n")
    return buf[1:]


def write_table(fh, columns) -> None:
    """Write the lines of :func:`table_rows` for equal-length float
    `columns` to the text file `fh`, in blocks of ``BLOCK_CELLS`` cells,
    so memory stays flat."""
    step = max(1, BLOCK_CELLS // len(columns))
    for start in range(0, len(columns[0]), step):
        block = np.column_stack([column[start : start + step] for column in columns])
        fh.write(table_rows(block).tobytes().decode())
