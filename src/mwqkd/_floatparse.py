"""key.csv read back, in numpy: the inverse of ``_floatrepr.write_key_csv``.

:func:`read_key_csv` reads the file in blocks of ``READ_BLOCK`` bytes,
and :func:`key_columns` parses the whole rows of each block in one byte
buffer. It finds the separators with one ``flatnonzero`` and checks the
row shape, the index, the labels and the matched flag with whole-array
compares. A float ``[-]I.F`` of fewer than 20 significant digits is read
as 8-byte words of digits, each checked and turned into its value with
three multiplies, and its value w * 10**-f rounds to the nearest double
by one Eisel-Lemire step, a 64 x 64-bit product with the top 64 bits of
10**-f (Lemire, "Number parsing at a gigabyte per second", Software:
Practice and Experience 51(8), 2021). As the writer leaves the floats
outside its domain to ``repr``, the reader leaves to ``float`` every
other float text, zeros, and the about 1 in 256 values whose rounding
that product cannot tell.

The reader is a module of its own, apart from the writer's, because a
process that imports a module compiles it when no bytecode cache is
written: the ``sweep`` command, which writes through ``_floatrepr`` and
never reads key.csv, would pay for compiling the reader too. For the
same reason ``protocol.read_key_records`` imports it when called, so the
``protocol`` command, which writes key.csv but does not read it back,
does not compile it either.
"""

from __future__ import annotations

import numpy as np

from ._floatrepr import _MASK52, _POW10, BASIS_LABELS, KEY_CSV_COLUMNS, _high_product

# Bytes per block of the reader: about 1 300 of the presets' 51-byte rows.
# With its work arrays the reader peaks about 0.55 MB above the columns
# it returns, at any N (np.loadtxt: 0.70 MB at N = 16 665).
READ_BLOCK = 1 << 16
# Bytes in front of a block's first row, which the words of its index
# may read; a word's bytes before its digit run are masked out.
_PAD = 16
_Q, _P = (ord(label) for label in BASIS_LABELS)
_ZEROS = np.uint64(0x3030303030303030)
_HIGH_BITS = np.uint64(0x8080808080808080)
# a word's bytes below byte k, k = 0..8; its last n bytes, n = 0..8, and
# '0' in its other bytes
_BELOW = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_KEEP = ~_BELOW[::-1]
_FILL = _ZEROS & _BELOW[::-1]
# the separators of a row: five commas, then its line end
_ROW_SEPARATORS = np.frombuffer(b",,,,,\n", dtype=np.uint8)

# The floats the kernel reads: w * 10**-f, w < 10**19 and f = 1 .. _PLACES.
# _M_HIGH holds the top 64 bits of 10**-f, floor(2**(63 + L) / 10**f) with
# L the bit length of 10**f, and _EXP2 the biased exponent of w * m /
# 2**127 for w in [2**63, 2**64) (-217706 f >> 16 is floor(-f log2(10))).
# Entry 0 is unused.
_PLACES = 24
_M_HIGH = np.array(
    [0] + [(1 << 63 + (10**f).bit_length()) // 10**f for f in range(1, _PLACES + 1)],
    dtype=np.uint64,
)
_EXP2 = np.array([(-217706 * f >> 16) + 64 + 1023 for f in range(_PLACES + 1)])
# A run of digits ends a field: the index, or a float's last digits. It is
# read as two words from its end, so up to 16 digits. The digits of a
# float before its last 16 stay below _HIGH_LIMIT[k], k the digits after
# them, so that w < 10**19.
_RUN = 16
_HIGH_LIMIT = np.array([10 ** (19 - k) for k in range(_RUN + 1)], dtype=np.uint64)


def _words(buf: np.ndarray, at: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``buf[at:at + 8]`` for each offset `at`, as little-endian words.

    Each word is funnel-shifted from the two aligned words it spans, so
    `buf` must start 8-byte aligned and hold whole words.
    """
    aligned = buf.view(np.uint64)
    q = at >> 3
    aligned.take(q, out=out)
    q += 1
    high = aligned.take(q, mode="clip")
    shift = (at & 7).view(np.uint64)
    shift <<= 3
    out >>= shift
    np.subtract(64, shift, out=shift)
    high <<= shift  # a shift of 64 gives 0
    out |= high
    return out


def _eight_digits(w: np.ndarray):
    """The value of each word of 8 ASCII digits, the first in its low
    byte, and whether it is 8 digits. `w` is overwritten.

    A byte is a digit where its high bit stays clear in itself, in itself
    plus 0x46 (bytes from ':' up) and in itself less 0x30 (bytes below
    '0'); a carry or borrow out of a byte sets that byte's bit first. The
    value takes three multiplies (Lemire, as in the module docstring).
    """
    check = w + 0x4646464646464646
    check |= w
    w -= _ZEROS
    check |= w
    ok = (check & _HIGH_BITS) == 0
    del check
    w &= 0x0F0F0F0F0F0F0F0F
    w *= 2561
    w >>= 8
    w &= 0x00FF00FF00FF00FF
    w *= 6553601
    w >>= 16
    w &= 0x0000FFFF0000FFFF
    w *= 42949672960001
    w >>= 32
    return w, ok


def _first_point(w: np.ndarray) -> np.ndarray:
    """The offset of the first ``'.'`` in each word, 0 where there is none."""
    x = w ^ 0x2E2E2E2E2E2E2E2E
    z = x - 0x0101010101010101
    z &= ~x
    z &= _HIGH_BITS  # 0x80 in the first '.' byte, and maybe in bytes after it
    z &= ~z + 1  # the first alone: 0x80 << 8 j
    z >>= 7
    z *= 0x0001020304050607  # brings byte 7 - j of the constant, j, to the top
    z >>= 56
    return z.view(np.int64)


def _nearest(w: np.ndarray, f: np.ndarray):
    """Bits of the double nearest w * 10**-f for 0 < w < 10**19 and
    f = 1 .. 24, and whether they are certain.

    One Eisel-Lemire step: w, shifted to 64 bits, times the top 64 bits
    of 10**-f; the top 54 bits of the product's high word round to the
    double's mantissa. Where its next 9 bits are all ones, the rest of
    10**-f may carry into them, and where they are all zeros the product
    may be a halfway case; there, about 1 in 256 values, the bits are
    not certain, and the caller parses the text.
    """
    # the double nearest w has w's exponent, or one more where it rounds up
    shift = 1086 - (w.astype(np.float64).view(np.uint64) >> 52)
    man = w << shift
    up = ~man >> 63
    man <<= up
    shift += up
    product = _high_product(man, _M_HIGH.take(f))
    certain = (product + 1 & 0x1FF) > 1
    top = product >> 63
    mantissa = product >> top + 9
    mantissa += mantissa & 1
    mantissa >>= 1
    top += mantissa >> 53
    mantissa >>= mantissa >> 53
    exp2 = _EXP2.take(f) - shift.view(np.int64) + top.view(np.int64) - 1
    return exp2.view(np.uint64) << 52 | mantissa & _MASK52, certain


def _as_float(text: bytes) -> float:
    """A float field as ``np.loadtxt`` reads it: ``float`` of the text less
    its surrounding whitespace, which must be ASCII with no ``_``; a ``\\r``
    is a line break to ``np.loadtxt``."""
    core = text.decode().strip()
    if not core.isascii() or "_" in core or b"\r" in text:
        raise ValueError(f"could not convert {text!r} to float")
    return float(core)


def _as_floats(text: bytes, starts: list, ends: list) -> list:
    """:func:`_as_float` of each field ``text[start:end]``, in one pass over
    them joined where they are ASCII with no ``_`` or ``\\r``. Fields with
    other bytes go one by one: ``np.loadtxt`` reads a float padded with
    Unicode whitespace, such as U+00A0, as its ASCII core."""
    fields = [text[a:b] for a, b in zip(starts, ends)]
    joined = b",".join(fields)
    if joined.isascii() and b"_" not in joined and b"\r" not in joined:
        return list(map(float, map(str.strip, joined.decode().split(","))))
    return list(map(_as_float, fields))


def _row_separators(buf: np.ndarray, end: int, start: int):
    """The five commas and the line end of each whole row in
    ``buf[_PAD:end]``, as a (6, n) array, and the offset after the last
    row; n is 0 where there is no line end. A row without five commas
    before its line end raises ValueError naming it."""
    data = buf[:end]
    separators = np.equal(data, 44)
    separators |= data == 10
    separators = np.flatnonzero(separators)
    kinds = buf[separators]
    last = kinds.size - np.argmax(kinds[::-1] == 10) if kinds.size else 0
    if not last or kinds[last - 1] != 10:
        return np.empty((6, 0), dtype=np.int64), _PAD
    n = last // 6
    stop = separators[last - 1] + 1
    if last != 6 * n or not (kinds[:last].reshape(n, 6) == _ROW_SEPARATORS).all():
        rows = data[:stop]
        counts = np.searchsorted(np.flatnonzero(rows == 44), np.flatnonzero(rows == 10))
        bad = np.argmax(np.diff(counts, prepend=0) != 5)
        raise ValueError(f"key CSV row {start + bad} does not have 6 fields")
    return separators[:last].reshape(n, 6).T.copy(), stop


def key_columns(buf: np.ndarray, end: int, start: int):
    """The inverse of ``_floatrepr.key_rows``: ``(codes, floats, stop)``
    of the whole rows in ``buf[_PAD:stop]``, numbered from `start`, where
    `stop` follows the last line end before `end` (_PAD, and no rows,
    where there is none). ``codes`` holds the alice and bob basis codes,
    True for ``p``, and ``floats`` alpha and beta, each shaped (2, rows).

    A row is ``i,A,B,alpha,beta,M`` ended by ``\\n`` or ``\\r\\n``. `buf`
    starts 8-byte aligned, holds whole words, and has at least 8 bytes
    after `end`. A row has six fields: i in 1 to 16 decimal digits, the
    labels A and B one byte ``q`` or ``p`` each, and M one byte, ``1``
    where A == B and ``0`` elsewhere.

    A float written ``[-]I.F`` is read by the kernel where I has 1 to 7
    digits, F has 1 to 24, and I and F less F's last 16 digits come to at
    most 7 digits. Those are one word from I's start with the point taken
    out, F's last digits two words from its end, and their value
    w < 10**19 rounds in :func:`_nearest`. Any other float text, a zero,
    or a rounding the kernel cannot certify goes through
    :func:`_as_floats`. Anything else raises ValueError naming the row.
    """
    c, stop = _row_separators(buf, end, start)
    n = c.shape[1]
    labels = buf[c[:2] + 1]
    codes = labels == _P
    bad = (c[1:3] - c[:2] != 2) | ~codes & (labels != _Q)
    for column, wrong in zip(KEY_CSV_COLUMNS[1:3], bad):
        if wrong.any():
            raise ValueError(
                f"key CSV {column} must be one of {BASIS_LABELS} (row {start + np.argmax(wrong)})"
            )
    row_end = c[5] - (buf[c[5] - 1] == 13)
    if not ((row_end - c[4] == 2) & (buf[c[4] + 1] == (codes[0] == codes[1]) + ord("0"))).all():
        raise ValueError("key CSV matched column disagrees with the basis columns")

    # The floats, alpha then beta, are [-]I.F; the word at I's start finds
    # the point. A digit run ends the index and each float: its last 8
    # digits and the 8 before them are two words from its end. The digits
    # of a float before its run, less the point, are a third word.
    field_start = c[2:4].ravel() + 1
    negative = buf[field_start] == ord("-")
    body = field_start + negative
    words = np.empty(8 * n, dtype=np.uint64)
    head = _words(buf, body, out=words[6 * n :])
    point = _first_point(head)
    runs_end = c[[0, 3, 4]].ravel()
    field_end = runs_end[n:]
    places = field_end - body
    places -= point
    places -= 1
    lengths = np.empty(3 * n, dtype=np.int64)
    lengths[:1] = c[0, :1] - _PAD
    np.subtract(c[0, 1:], c[5, :-1] + 1, out=lengths[1:n])
    np.minimum(np.maximum(places, 0), _RUN, out=lengths[n:])
    # the work arrays below peak the reader's memory: free what is done
    del c, body
    _words(buf, runs_end - 8, out=words[: 3 * n])
    _words(buf, runs_end - 16, out=words[3 * n : 6 * n])
    for k, run in enumerate((words[: 3 * n], words[3 * n : 6 * n])):
        taken = np.minimum(np.maximum(lengths - 8 * k, 0), 8)
        run &= _KEEP.take(taken)
        run |= _FILL.take(taken)
    high = point + places
    high -= lengths[n:]
    moved = head & _BELOW.take(point)
    moved <<= 8
    head &= ~_BELOW.take(point + 1)
    head |= moved
    del moved
    # a shift of 64 or more gives 0, which is not digits: more than 7 of
    # them do not fit
    head <<= (56 - 8 * high).view(np.uint64)
    head |= _FILL.take(np.minimum(np.maximum(high, 0), 8))
    values, ok = _eight_digits(words)
    run = values[3 * n : 6 * n] * 10**8
    run += values[: 3 * n]
    run_ok = ok[: 3 * n] & ok[3 * n : 6 * n]
    run_ok &= lengths >= 1
    index_ok = run_ok[:n].all() and (lengths[:n] <= _RUN).all()
    if not (index_ok and (run[:n] == np.arange(start, start + n)).all()):
        raise ValueError("key CSV index column must run 0..n-1")
    low = lengths[n:]
    kernel = run_ok[n:] & ok[6 * n :]
    kernel &= (point > 0) & (places >= 1) & (places <= _PLACES)
    head = values[6 * n :]
    kernel &= head < _HIGH_LIMIT.take(low)
    w = head * _POW10.take(low)
    w += run[n:]
    del words, values, ok, run, run_ok, head, lengths, low, high, point
    kernel &= w != 0
    bits, certain = _nearest(w, np.minimum(np.maximum(places, 0), _PLACES))
    kernel &= certain
    bits |= negative.astype(np.uint64) << 63
    floats = bits.view(np.float64)
    other = np.flatnonzero(~kernel)
    if other.size:
        starts, ends = field_start[other].tolist(), field_end[other].tolist()
        try:
            floats[other] = _as_floats(buf[:stop].tobytes(), starts, ends)
        except ValueError:
            for i, a, b in zip(other.tolist(), starts, ends):
                try:
                    _as_float(buf[a:b].tobytes())
                except ValueError:
                    raise ValueError(
                        f"key CSV {KEY_CSV_COLUMNS[3 + i // n]} is not a float: "
                        f"{buf[a:b].tobytes()!r} (row {start + i % n})"
                    ) from None
            raise
    return codes, floats.reshape(2, n), stop


def read_key_csv(path):
    """The columns ``(alice, bob, alpha, beta)`` of a key.csv written by
    ``_floatrepr.write_key_csv``: the basis codes as int8, 0 for ``q``
    and 1 for ``p``, and the floats, each bit-exact as ``float`` rounds
    its text.

    The header must be ``KEY_CSV_COLUMNS``. One pass counts the rows. The
    second reads the file into one buffer, ``READ_BLOCK`` bytes at a
    time, and :func:`key_columns` parses the whole rows of each block;
    the partial row after them moves to the front of the next. Both
    ``\\r\\n`` and ``\\n`` line ends are read, and the last row may have
    none. A row longer than a block, a row without six fields, an index
    other than 0..n-1 in up to 16 digits, a basis label other than
    ``q``/``p``, a matched flag other than the ``0``/``1`` the basis
    columns give, or a float that ``np.loadtxt`` would not read raises
    ValueError. Memory beyond the columns is the buffer and one block's
    arrays, whatever N.
    """
    with open(path, "rb") as fh:
        header = fh.readline().removesuffix(b"\n").removesuffix(b"\r")
        if header != ",".join(KEY_CSV_COLUMNS).encode():
            raise ValueError(f"unexpected key CSV header: {header!r}")
        data_start = fh.tell()
        # whole aligned words, with room after the block for the kernel's
        # last word and for a line end after a last row that has none
        buf = np.zeros((_PAD + READ_BLOCK) // 8 + 1, dtype=np.uint64).view(np.uint8)
        view = memoryview(buf)[_PAD : _PAD + READ_BLOCK]
        # one numpy compare per block: bytes.count of a 64 KB block is a
        # byte loop, 3-4x slower over a file
        n, last = 0, ord("\n")
        while got := fh.readinto(view):
            n += np.count_nonzero(buf[_PAD : _PAD + got] == ord("\n"))
            last = buf[_PAD + got - 1]
        n += last != ord("\n")
        codes, floats = np.empty((2, n), dtype=np.int8), np.empty((2, n))
        fh.seek(data_start)
        row = tail = 0
        while row < n:
            got = fh.readinto(view[tail:])
            end = _PAD + tail + got
            if not got:  # the last row has no line end
                buf[end] = ord("\n")
                end += 1
            block_codes, block_floats, stop = key_columns(buf, end, row)
            if end == _PAD + READ_BLOCK and stop == _PAD:
                raise ValueError(f"key CSV row {row} is longer than {READ_BLOCK} bytes")
            rows = slice(row, row + block_floats.shape[1])
            codes[:, rows], floats[:, rows] = block_codes, block_floats
            row, tail = rows.stop, end - stop
            buf[_PAD : _PAD + tail] = buf[stop:end]
    return (*codes, *floats)
