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
   value becomes a NUL-padded field of ``WIDTH`` bytes.

Files are printed in blocks of ``_BLOCK`` rows, one ``repr_fields`` call and
one ``join_rows`` call per block, and the arithmetic runs in place where it
can: a call's temporaries stay a few hundred kB however long the file.

Values the argument does not decide are printed by ``repr`` one at a time:
zeros, non-finite values, powers of two (asymmetric interval), |v| outside
[1e-6, 1e38), and candidates within ``_TOL`` of a rounding tie or of the
interval's edge (where ``repr`` breaks ties by rules not reproduced here).
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


# A field is one byte for the sign, five for "0." and up to three zeros,
# eighteen for the digits with the point among them, and four for the
# exponent.  Its bytes are literal bytes from a table row OR'ed with the
# digits under two masks from the same table: in place, or shifted right by
# one past the point.  Unused bytes are NUL, and NUL bytes are dropped.
_BODY, _EXP = 6, 24
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
    uint32, and how many of them remain without the trailing zeros."""
    r = np.arange(10000, dtype=np.uint32)
    quads = sum((r // 10 ** p % 10 + ord("0")) << 8 * (3 - p)
                for p in range(4))
    significant = 4 - sum(r % 10 ** p == 0 for p in range(1, 5))
    return quads.astype("<u4"), significant.astype(np.intp)


def _digits(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 decimal digits of each n in [1e16, 1e17) as ASCII bytes, and
    how many of them remain without the trailing zeros."""
    # limbs: the leading digit, then four groups of four
    limbs = np.empty((5, n.size), dtype=np.intp)
    np.floor_divide(n, 10 ** 16, out=limbs[0])
    rest = n - limbs[0] * 10 ** 16
    for i, p in enumerate((10 ** 12, 10 ** 8, 10 ** 4), start=1):
        np.floor_divide(rest, p, out=limbs[i])
        rest -= limbs[i] * p
    limbs[4] = rest
    quads, significant = _quads()
    last = np.take(significant, limbs[1:])
    k = np.ones(n.size, dtype=np.intp)
    for i in range(4):
        k = np.where(last[i] > 0, 4 * i + 1 + last[i], k)
    return np.take(quads, limbs.T).view(np.uint8)[:, 3:], k


def _put(row: np.ndarray, col: int, text: str) -> None:
    row[col:col + len(text)] = np.frombuffer(text.encode(), dtype=np.uint8)


def _fill(key: int) -> None:
    """The table rows of key (decpt - _DECPT_MIN) * 17 + k - 1: repr of the
    k digits d_0 d_1 ... with value 0.d_0d_1... * 10^decpt."""
    decpt, k = divmod(key, 17)
    decpt, k = decpt + _DECPT_MIN, k + 1
    literal, in_place, shifted = _literal[key], _in_place[key], _shifted[key]
    if decpt <= -4 or decpt > 16:
        in_place[_BODY] = 0xFF
        if k > 1:
            _put(literal, _BODY + 1, ".")
            shifted[_BODY + 2:_BODY + k + 1] = 0xFF
        _put(literal, _EXP, f"e{decpt - 1:+03d}")
    elif decpt <= 0:
        _put(literal, 1, "0." + "0" * -decpt)
        in_place[_BODY:_BODY + k] = 0xFF
    elif decpt < k:
        in_place[_BODY:_BODY + decpt] = 0xFF
        _put(literal, _BODY + decpt, ".")
        shifted[_BODY + decpt + 1:_BODY + k + 1] = 0xFF
    else:  # the zeros up to the point are digits of the 17-digit n
        in_place[_BODY:_BODY + decpt] = 0xFF
        _put(literal, _BODY + decpt, ".0")
    _filled[key] = True


def _layout(digits: np.ndarray, decpt: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Fields of k significant digits with the decimal point at decpt."""
    keys = (np.clip(decpt, _DECPT_MIN, _DECPT_MAX) - _DECPT_MIN) * 17 + k - 1
    for key in set(keys[~_filled[keys]].tolist()):
        _fill(key)
    plane = np.zeros((digits.shape[0], WIDTH), dtype=np.uint8)
    plane[:, _BODY:_BODY + 17] = digits
    fields = np.take(_literal, keys, axis=0)
    mask = np.take(_in_place, keys, axis=0)
    mask &= plane
    fields |= mask
    # the digits shifted right by one byte, NUL shifted into the first
    np.take(_shifted, keys, axis=0, out=mask)
    mask.ravel()[1:] &= plane.ravel()[:-1]
    mask.ravel()[:1] = 0
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
    # log10 can miss the decade by one next to a power of ten
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    miss = np.flatnonzero(below | above)
    if miss.size:
        e = e10[miss] + above[miss] - below[miss]
        fast[miss[np.abs(16 - e) > 22]] = False
        e10[miss] = e = np.clip(e, -6, 38)
        h, l, half[miss] = _scale(a[miss], e, e2[miss])
        hi[miss], lo[miss] = h, l
        fast[miss] &= (h > 1e16) | ((h == 1e16) & (l >= 0))
        fast[miss] &= (h < 1e17) | ((h == 1e17) & (l < 0))

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
    for dist, tie in ((d17, 0.5), (d16, 5.0), (d15, 50.0)):
        # a tie decides nothing when both neighbours lie outside
        fast &= (np.abs(dist - tie) > _TOL) | (tie > half + _TOL)
        fast &= np.abs(dist - half) > _TOL
    # half >= 2^-54 * 1e16 > 0.55, so the 17-digit rounding is inside
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
              tail_of_row: np.ndarray) -> bytes:
    """One line per row of the field arrays ``columns`` (each of shape
    (n, WIDTH), as ``repr_fields`` returns them): the row's fields joined by
    commas, then ``tails[tail_of_row[row]]``, which ends the line.  Every
    byte of the rows is written before the NUL bytes are dropped."""
    # the tails as NUL-padded rows, one per tail
    tails = np.array(tails, dtype=bytes).view(np.uint8).reshape(len(tails), -1)
    field = WIDTH + 1
    width = len(columns) * field - 1
    rows = np.empty((len(tail_of_row), width + tails.shape[1]),
                    dtype=np.uint8)
    for j, col in enumerate(columns):
        rows[:, j * field:j * field + WIDTH] = col
        if j:
            rows[:, j * field - 1] = ord(",")
    rows[:, width:] = np.take(tails, tail_of_row, axis=0)
    flat = rows.ravel()
    return flat[flat != 0].tobytes()
