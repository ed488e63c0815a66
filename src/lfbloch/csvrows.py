"""CSV rows of ``%.12g`` numbers, formatted by numpy a block at a time.

``format_rows(cols, end)`` yields the bytes that one ``%``-format per row,
``",".join(["%.12g"] * len(cols)) + end``, would write, byte for byte.

Each value is laid out in five uint64 lanes (40 bytes; every table is
built as bytes, so the host's byte order does not matter), and zero
bytes mark what is left out:

- lane 0: the sign at byte 0 and the ``0.`` prefix with up to three more
  zeros (for decimal exponents -4 to -1) at bytes 1-5;
- lanes 1-3: the 12 mantissa digits at the even bytes, each followed by
  a byte that holds the decimal point when it comes after that digit;
- lane 4: the exponent ``e-05`` ... ``e-11`` at bytes 0-3 and the field
  separator (``,``, or the row end on the last column) at bytes 4-7.

Every lane is an OR of table entries, so a block is built 8 bytes per
numpy operation and then compacted with one ``bytes.translate`` that
drops the zero bytes.

The digits are exact for ``1e-11 <= |x| < 1e12`` and for zeros: there
10**(11 - E) is an exact double, so ``|x| * 10**(11 - E)`` is split into
its rounded product and exact residual (a Veltkamp-Dekker two-product;
numpy has no fused multiply-add), and rounding it to an integer is
exact.  E comes from ``log10`` and is checked by the product landing in
[1e11, 1e12).  A row holding any other value (non-finite, out of that
range, within 2**-30 of a rounding tie, or rounding up to 1e12) is
written by the ``%``-format itself.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

__all__ = ["BLOCK_ROWS", "format_rows"]

# Rows per numpy block.  Larger blocks spend less per value on numpy's
# per-call overhead, smaller ones keep peak memory down: at 512 rows of
# 6 columns the 40-byte slots (120 KiB) stay under glibc's default 128
# KiB mmap threshold, and past it peak RSS grew with the block.  On the
# seed-1 simulate_cli job 512 rows wrote the CSVs in 0.28 s at +2% peak
# RSS over one %-format per row, 1024 rows in 0.26 s at +4.5%
# (BENCH_14.json has the table).
BLOCK_ROWS = 512

_LANE = np.dtype(np.uint64)
_TIE = 2.0 ** -30

# 10**k for k = 0..22 (exact doubles) and their Veltkamp halves
_POW = 10.0 ** np.arange(23)
_SPLIT = _POW * 134217729.0  # 2**27 + 1
_POW_HI = _SPLIT - (_SPLIT - _POW)
_POW_LO = _POW - _POW_HI
# decimal exponent X = 11 - k; a point after digit j = max(X, 0) (digit
# 0 in exponent form) is written when m % 10**(11 - j) != 0
_X = 11 - np.arange(23)
_POINT_DIV = 10.0 ** (11 - np.maximum(_X, 0))


def _words() -> np.ndarray:
    """Four digits of each word 0..9999 at bytes 0, 2, 4, 6 of a lane: in
    full at 0..9999, then with the trailing zeros cut at 10000..19999."""
    place = np.array([1000, 100, 10, 1], np.uint16)
    digits = (np.arange(10000, dtype=np.uint16)[:, None] // place % 10
              ).astype(np.uint8)
    kept = np.flip(np.logical_or.accumulate(np.flip(digits != 0, 1), 1), 1)
    word_bytes = np.zeros((2, 10000, 8), np.uint8)
    word_bytes[:, :, 0::2] = digits + 48
    word_bytes[1, :, 0::2] *= kept
    return word_bytes.reshape(20000, 8).view(_LANE)[:, 0]


WORDS = _words()


def _template() -> np.ndarray:
    """Lanes 0-4 of every (k, point, sign), digits and separator left
    out, as rows (k * 2 + point) * 2 + sign of a (92, 5) table."""
    x = _X[:, None]
    pos = np.arange(40)
    # "0." and up to three zeros for -4 <= X <= -1, at bytes 1-5
    prefix = np.frombuffer(b"0.000", np.uint8)[np.clip(pos - 1, 0, 4)]
    below_one = (x >= -4) & (x <= -1) & (pos >= 1) & (pos < 2 - x)
    # a "0" at each integer digit (X >= 0): ORed onto a digit it changes
    # nothing, onto a trailing zero that the word lookup cut it writes
    # the zero back
    integer = (pos >= 8) & (pos <= 8 + 2 * x) & (pos % 2 == 0)
    # "e-05" ... "e-11" at bytes 32-35
    exponent = np.select([pos == 32, pos == 33, pos == 34, pos == 35],
                         [ord("e"), ord("-"), 48 + -x // 10, 48 + -x % 10])
    by_x = np.where(below_one, prefix, 0) + integer * ord("0") \
        + np.where(x < -4, exponent, 0)
    # the point after digit max(X, 0), for X >= 0 and the exponent form
    point = ((x >= 0) | (x < -4)) & (pos == 9 + 2 * np.maximum(x, 0))
    on = np.arange(2)
    table = by_x[:, None, None] + on[:, None, None] * point[:, None, None] \
        * ord(".") + on[:, None] * (pos == 0) * ord("-")
    return table.astype(np.uint8).reshape(-1, 40).view(_LANE)


TEMPLATE = _template()


def _separators(ncols: int, end: str) -> np.ndarray:
    """Lane 4 of each column: "," or, on the last column, the row end."""
    lanes = b"\0\0\0\0,\0\0\0" * (ncols - 1) \
        + b"\0\0\0\0" + end.encode("ascii").ljust(4, b"\0")
    return np.frombuffer(lanes, _LANE)


def _mantissa(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k, m, ok): |v| rounds to m * 10**-k with m a 12-digit integer (0
    for a zero), exactly where ok."""
    ax = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(ax))
    zero = ax == 0.0
    ok = (e >= -11.0) & (e <= 11.0)
    k = np.where(ok, 11.0 - e, 11.0).astype(np.intp)
    ok |= zero
    ax = np.where(ok, ax, 0.0)
    # ax * 10**k = p + err exactly (Dekker's two-product)
    p = ax * _POW.take(k)
    hi = ax * 134217729.0
    hi -= hi - ax
    lo = ax - hi
    s_hi, s_lo = _POW_HI.take(k), _POW_LO.take(k)
    err = ((hi * s_hi - p) + hi * s_lo + lo * s_hi) + lo * s_lo
    r = np.rint(p)
    frac = (p - r) + err
    m = r + np.rint(frac)
    ok &= (np.abs(np.abs(frac) - 0.5) > _TIE) & ((p >= 1e11) | zero) \
        & (m < 1e12)
    return k, m, ok


def _block(v: np.ndarray, seps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lanes of a (rows, cols) block and which rows they hold exactly."""
    k, m, ok = _mantissa(v)
    div = _POINT_DIV.take(k)
    point = np.rint(m / div) * div != m
    out = TEMPLATE.take((k * 2 + point) * 2 + np.signbit(v), axis=0)
    # the words a, b, c of m = a * 10**8 + b * 10**4 + c; a reaches 10**5
    # on rows that the % format writes, so its lookup clips
    mi = m.astype(np.int64)
    a = mi // 100000000
    c = mi - a * 100000000
    b = c // 10000
    c -= b * 10000
    out[..., 3] |= WORDS.take(c + 10000)
    out[..., 2] |= WORDS.take(b + (c == 0) * 10000)
    out[..., 1] |= WORDS.take(a + ((b | c) == 0) * 10000, mode="clip")
    out[..., 4] |= seps
    return out, ok.all(axis=1)


def format_rows(cols: Sequence[np.ndarray], end: str = "\n") -> Iterator[bytes]:
    """Yield the ASCII bytes of the rows of ``cols``, one chunk per block.

    ``cols`` are equal-length float64 arrays; each row is their values as
    ``%.12g`` fields joined by ``,`` and followed by ``end`` (at most 4
    characters).
    """
    seps = _separators(len(cols), end)
    row = ",".join(["%.12g"] * len(cols)) + end
    n = len(cols[0])
    for start in range(0, n, BLOCK_ROWS):
        v = np.stack([col[start:start + BLOCK_ROWS] for col in cols], axis=1)
        lanes, ok = _block(v, seps)
        done = 0
        for i in np.flatnonzero(~ok):
            yield lanes[done:i].tobytes().translate(None, b"\0")
            yield (row % tuple(v[i].tolist())).encode("ascii")
            done = i + 1
        yield lanes[done:].tobytes().translate(None, b"\0")
