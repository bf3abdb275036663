"""Shortest round-trip decimals for float64 arrays, byte for byte as ``repr``.

``repr(float)`` prints the shortest decimal that reads back as the same
double, and of those the one nearest to it (Steele & White 1990).  Calling
it once per value dominates the cost of a large trajectory file, so
``repr_fields`` prints whole arrays with numpy instead, by an exactness
argument in the spirit of Ryu (Adams, PLDI 2018):

1. |v| in [1e-6, 1e38) is scaled by an exact power of ten 10^j, |j| <= 22,
   into s in [1e16, 1e17).  Dekker's error-free product keeps s exact as a
   hi + lo pair (for j < 0 the quotient's exact remainder does, up to one
   rounding far below the tolerances below).
2. The rounding interval of v has half-width H = ulp(v)/2 (scaled by the
   same 10^j) and, unless v is a power of two, is symmetric.  So whenever
   some k-digit decimal lies inside it, the correctly rounded k-digit one
   does too.  Every decimal of at most DBL_DIG = 15 digits inside the
   interval rounds to v and back to itself, so the 15-digit rounding of s,
   if it lies inside, is ``repr``'s digit string padded with zeros.
   Otherwise the 16-digit rounding is, if it lies inside, and otherwise the
   17-digit one.
3. Sign, digits, point and exponent are laid out through a small table
   keyed by (decimal point position, digit count), filled lazily, and each
   value becomes a NUL-padded field of ``WIDTH`` bytes.  The digits are
   gathered four at a time into rows of ``WIDTH`` bytes, in the bytes they
   take in a field, so the masks apply to them row for row.

Files are printed in blocks of ``_BLOCK`` rows, one ``repr_fields`` call per
block and one ``join_rows`` call per file and block, and the arithmetic
runs in place where it can: a call's temporaries stay a few hundred kB
however long the file.  ``join_rows`` writes every byte of a block's lines,
fields and all, and ``bytes.translate`` drops the NUL bytes in one pass.

Values the argument does not decide are printed by ``repr`` one at a time:
zeros, non-finite values, powers of two (asymmetric interval), |v| outside
[1e-6, 1e38), decade misses (a few ulps below a power of ten, where
floor(log10|v|) rounds up and s falls outside [1e16, 1e17)), and
candidates within ``_TOL`` of a rounding tie or of the interval's edge
(where ``repr`` breaks ties by rules not reproduced here).
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

__all__ = ["repr_fields", "join_rows"]

# rows per block of a printed file: a block of phi and psi is 5 x 2,048
# values, whose temporaries reuse heap pages instead of faulting in new ones
_BLOCK = 2048

_LO, _HI = 1e-6, 1e38
_TOL = 1e-9  # in units of the 17th digit; arithmetic errors are below 1e-14
_POW10 = np.array([float(10 ** k) for k in range(23)])  # all exact
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


# A field is the sign in byte 0; then "0." and up to three zeros ending at
# byte _BODY - 1, the digits after them, or the digits with the point among
# them from byte _BODY - 1 on; and the exponent in the last four bytes.  Its
# bytes are literal bytes from a table row OR'ed with the digits under two
# masks from the same table: in place from byte _BODY, or shifted left by
# one before the point.  Unused bytes are NUL, and NUL bytes are dropped.
_BODY, _EXP = 7, 24
WIDTH = 28
_DECPT_MIN, _DECPT_MAX = -5, 39  # decimal point positions on [1e-6, 1e38]
_NKEYS = (_DECPT_MAX - _DECPT_MIN + 1) * 17
_literal = np.zeros((_NKEYS, WIDTH), dtype=np.uint8)
_in_place = np.zeros((_NKEYS, WIDTH), dtype=np.uint8)
_shifted = np.zeros((_NKEYS, WIDTH), dtype=np.uint8)
_filled = np.zeros(_NKEYS, dtype=bool)


def _two_prod(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p + e == a * b exactly (Dekker 1971), barring overflow/underflow."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _scale(a: np.ndarray, e10: np.ndarray, e2: np.ndarray):
    """s = a * 10^(16 - e10) as hi + lo, and ulp(a)/2 in the same units,
    where a = m * 2^e2 with m in [1/2, 1).  Requires |16 - e10| <= 22."""
    j = 16 - e10
    down = np.flatnonzero(j < 0)
    p = _POW10[np.abs(j, out=j)]
    hi, lo = _two_prod(a, p)
    half = np.ldexp(p, e2 - 54)
    if down.size:
        ad, pd = a[down], p[down]
        q = ad / pd
        ph, pl = _two_prod(q, pd)
        hi[down] = q
        lo[down] = ((ad - ph) - pl) / pd  # the remainder is exact
        half[down] = np.ldexp(1.0, e2[down] - 54) / pd
    return hi, lo, half


@functools.cache
def _quads() -> tuple[np.ndarray, np.ndarray]:
    """For 0..9999: the four ASCII digits packed into one little-endian
    uint32; and at 10000 (i - 1) + r, the digits up to limb i = 1..4 of a
    17-digit number without the trailing zeros when that limb is r, 1 when
    r is 0 (the leading digit is limb 0)."""
    r = np.arange(10000, dtype=np.uint32)
    quads = sum((r // 10 ** p % 10 + ord("0")) << 8 * (3 - p)
                for p in range(4))
    significant = 4 - sum(r % 10 ** p == 0 for p in range(1, 5))
    ends = np.where(significant > 0,
                    np.arange(1, 14, 4)[:, None] + significant, 1)
    return quads.astype("<u4"), ends.astype(np.uint8).ravel()


def _digits(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 decimal digits of each n in [1e16, 1e17) as ASCII bytes
    _BODY to _BODY + 16 of a row of WIDTH bytes, whose other bytes are
    undefined, and how many of them remain without the trailing zeros."""
    # limbs: the leading digit, then four groups of four
    limbs = np.empty((5, n.size), dtype=np.intp)
    np.floor_divide(n, 10 ** 16, out=limbs[0])
    rest = n - limbs[0] * 10 ** 16
    for i, p in enumerate((10 ** 12, 10 ** 8, 10 ** 4), start=1):
        np.floor_divide(rest, p, out=limbs[i])
        rest -= limbs[i] * p
    limbs[4] = rest
    quads, ends = _quads()
    # the digits end in the last limb that is not 0
    k = np.take(ends, limbs[1:] + np.arange(0, 40000, 10000)[:, None])
    k = k.max(axis=0)
    # the leading digit's quad "000d" fills bytes _BODY - 3 to _BODY
    plane = np.empty((n.size, WIDTH // 4), dtype="<u4")
    for i in range(5):
        np.take(quads, limbs[i], out=plane[:, (_BODY - 3) // 4 + i])
    return plane.view(np.uint8), k


def _put(row: np.ndarray, col: int, text: str) -> None:
    row[col:col + len(text)] = np.frombuffer(text.encode(), dtype=np.uint8)


def _fill(key: int) -> None:
    """The table rows of key (decpt - _DECPT_MIN) * 17 + k - 1: repr of the
    k digits d_0 d_1 ... with value 0.d_0d_1... * 10^decpt."""
    decpt, k = divmod(key, 17)
    decpt, k = decpt + _DECPT_MIN, k + 1
    literal, in_place, shifted = _literal[key], _in_place[key], _shifted[key]
    exponent = decpt <= -4 or decpt > 16
    if exponent:
        _put(literal, _EXP, f"e{decpt - 1:+03d}")
    if -4 < decpt <= 0:
        _put(literal, _BODY - 2 + decpt, "0." + "0" * -decpt)
        in_place[_BODY:_BODY + k] = 0xFF
    else:
        # the p digits before the point move one byte left, to bytes
        # _BODY - 1 to _BODY + p - 2, and the point takes byte _BODY + p - 1
        p = 1 if exponent else decpt
        shifted[_BODY - 1:_BODY - 1 + p] = 0xFF
        if p < k:
            _put(literal, _BODY - 1 + p, ".")
            in_place[_BODY + p:_BODY + k] = 0xFF
        elif not exponent:  # the zeros up to the point are digits of n
            _put(literal, _BODY - 1 + p, ".0")
    _filled[key] = True


def _layout(digits: np.ndarray, decpt: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Fields of k significant digits with the decimal point at decpt."""
    keys = (np.clip(decpt, _DECPT_MIN, _DECPT_MAX) - _DECPT_MIN) * 17 + k - 1
    for key in set(keys[~_filled[keys]].tolist()):
        _fill(key)
    fields = np.take(_literal, keys, axis=0)
    mask = np.take(_in_place, keys, axis=0)
    mask &= digits
    fields |= mask
    # the digits shifted left by one byte; the mask of a row's last byte is
    # NUL, so no byte of the next row comes in
    np.take(_shifted, keys, axis=0, out=mask)
    mask.ravel()[:-1] &= digits.ravel()[1:]
    fields |= mask
    return fields


def repr_fields(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``repr(float(v))`` of every value as NUL-padded ASCII, shape
    (n, WIDTH), and the indices that went through ``repr`` itself."""
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = (a >= _LO) & (a < _HI)
    a[~fast] = 1.5  # keep the arithmetic quiet off the fast path
    m, e2 = np.frexp(a)
    fast &= m != 0.5
    e10 = np.floor(np.log10(a, out=m), out=m).astype(np.int64)
    del m
    np.clip(e10, -6, 37, out=e10)
    hi, lo, half = _scale(a, e10, e2)
    # a few ulps below a power of ten, log10 can round up to the next
    # decade, leaving s outside [1e16, 1e17): repr prints those values
    fast &= (hi > 1e16) | ((hi == 1e16) & (lo >= 0))
    fast &= (hi < 1e17) | ((hi == 1e17) & (lo < 0))

    # s = n17 + f17 exactly, |f17| <= 1/2; the 16- and 15-digit roundings
    # are n17 rounded to tens and hundreds, at distance d16 and d15
    r = np.rint(lo)
    n17 = hi.astype(np.int64) + r.astype(np.int64)
    del hi
    f17 = np.subtract(lo, r, out=lo)
    del r
    n16 = n17 // 10 * 10
    n15 = n17 // 100 * 100
    d16 = (n17 - n16) + f17  # t16 until up16 is known
    d15 = (n17 - n15) + f17
    up16 = d16 > 5
    up15 = d15 > 50
    np.abs(np.subtract(d16, 10 * up16, out=d16), out=d16)
    np.abs(np.subtract(d15, 100 * up15, out=d15), out=d15)
    d17 = np.abs(f17, out=f17)
    # half = 2^(e2-54) 10^j > s 2^-54 >= 1e16 2^-54 > 0.555 >= d17 + 0.055:
    # the 17-digit rounding is inside, far from the edge, and its tie
    # always matters, so d17 needs only the tie test
    fast &= np.abs(d17 - 0.5) > _TOL
    for dist, tie in ((d16, 5.0), (d15, 50.0)):
        # a tie decides nothing when both neighbours lie outside
        fast &= (np.abs(dist - tie) > _TOL) | (tie > half + _TOL)
        fast &= np.abs(dist - half) > _TOL
    n = n17
    np.copyto(n, n16 + 10 * up16, where=d16 < half)
    np.copyto(n, n15 + 100 * up15, where=d15 < half)
    del n16, n15, d16, d15, d17
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    decpt = e10 + 1 + carry

    digits, k = _digits(n)
    fields = _layout(digits, decpt, k)
    fields[:, 0] = np.signbit(v) * ord("-")

    slow = np.flatnonzero(~fast)
    for i in slow.tolist():
        text = repr(float(v[i])).encode()
        fields[i] = 0
        fields[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return fields, slow


def join_rows(columns: Sequence[np.ndarray], tails: Sequence[bytes],
              tail_of_row: np.ndarray | None) -> bytes:
    """One line per row of the field arrays ``columns`` (each of shape
    (n, WIDTH), as ``repr_fields`` returns them, or a slice of that): the
    row's fields joined by commas, then ``tails[tail_of_row[row]]``, which
    ends the line.  With one tail every row ends in it and ``tail_of_row``
    is not read.  Every byte of the rows is written, then ``translate``
    drops the NUL bytes in one pass."""
    # the tails as NUL-padded rows, one per tail
    tails = np.array(tails, dtype=bytes).view(np.uint8).reshape(len(tails), -1)
    field = WIDTH + 1
    width = len(columns) * field - 1
    rows = np.empty((len(columns[0]), width + tails.shape[1]), dtype=np.uint8)
    for j, col in enumerate(columns):
        rows[:, j * field:j * field + WIDTH] = col
        if j:
            rows[:, j * field - 1] = ord(",")
    if len(tails) == 1:
        rows[:, width:] = tails[0]
    else:
        rows[:, width:] = np.take(tails, tail_of_row, axis=0)
    return rows.tobytes().translate(None, b"\0")
