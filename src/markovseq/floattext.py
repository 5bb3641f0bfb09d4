"""Exact ``'%.17g' % v`` text for whole float64 arrays.

CPython formats each value on its own, and 17 digits are beyond dtoa's
fast path, so every value takes the bignum route at about 1 us.  Here the
digits come from numpy arithmetic on the whole array: a double-double
product (Dekker 1971) behind a verified fast path with a fallback, as in
Grisu (Loitsch 2010).  The fallback is ``'%.17g'`` itself, so the text is
the same bytes for every double.
"""

from __future__ import annotations

import functools

import numpy as np

# A field is a row of WIDTH bytes: the widest text, '-0.0000' + 17 digits
# or '-d.' + 16 digits + 'e-324', is 24 bytes, then the separator, then 0xFF
# padding.  0xFF never occurs in UTF-8, so deleting it leaves the text.
WIDTH = 25
# How near y may come to a rounding tie or a decade edge before the value is
# left to '%.17g' itself; the error of y is below 2**-46.
_MARGIN = 2.0**-40
# Bytes of a value's 28-byte source row: the exponent's 3 digits at 0-2, the
# 17 significant digits at 3-19, then '-', '.', '0', 'e', '+', the value's
# separator and 0xFF.
_MINUS, _POINT, _ZERO, _E, _PLUS, _SEP, _PAD = range(20, 27)


@functools.lru_cache(maxsize=None)
def _pow10(k: int) -> tuple[float, float, int]:
    """(hi, lo, s) with hi + lo = 10**k / 2**s in [1, 2) to 2**-106, each
    part rounded correctly from exact integers."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    s = num.bit_length() - den.bit_length()
    if num << max(-s, 0) < den << max(s, 0):
        s -= 1
    num, den = num << max(-s, 0), den << max(s, 0)
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b), s


@functools.lru_cache(maxsize=None)
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source bytes of every field layout, indexed by
    (sign * 26 + notation) * 17 + digits - 1; 0000-9999 as 4 ASCII bytes
    in a uint32; and the digits of each up to its last nonzero one (-12
    for 0000).

    Notation 0-20 is fixed with exponent notation - 4; 21-24 are 'e+XX',
    'e+XXX', 'e-XX' and 'e-XXX'; 25 is zero.  Digits counts the significant
    digits kept."""
    cols = np.full((2, 26, 17, WIDTH), _PAD, np.intp)
    for sign in (0, 1):
        for notation in range(26):
            for nd in range(1, 18):
                X, digits = notation - 4, list(range(3, 3 + nd))
                if notation == 25:
                    body = [3]
                elif X < 0:
                    body = [_ZERO, _POINT] + [_ZERO] * (-X - 1) + digits
                elif X < 17:
                    body = list(range(3, 4 + max(X, nd - 1)))
                    body[X + 1 : X + 1] = [_POINT] if nd > X + 1 else []
                else:
                    body = digits[:1] + ([_POINT] + digits[1:] if nd > 1 else [])
                    body += [_E, _MINUS if notation > 22 else _PLUS]
                    body += [1, 2] if notation % 2 else [0, 1, 2]
                body = [_MINUS] * sign + body + [_SEP]
                cols[sign, notation, nd - 1, : len(body)] = body
    d = np.arange(10000)
    four = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1) + 48
    kept = np.where(d > 0, 4 - (d % 10 == 0) - (d % 100 == 0) - (d % 1000 == 0), -12)
    four = four.astype(np.uint8).view(np.uint32).reshape(-1)
    return cols.reshape(-1, WIDTH), four, kept


def _scaled(m, e, k):
    """y = m * 2**e * 10**k as p + q with |error| < 2**-46 where y < 2**57:
    Dekker's two-product of m and hi (Veltkamp splits, no FMA) plus m * lo,
    scaled by 2**(e + s)."""
    k = k + 400  # table rows for the powers present, |k| < 400
    present = np.zeros(800, bool)
    present[k] = True
    hi_t, lo_t, s_t = np.zeros(800), np.zeros(800), np.zeros(800, np.int32)
    for i in np.flatnonzero(present).tolist():
        hi_t[i], lo_t[i], s_t[i] = _pow10(i - 400)
    hi, lo, j = hi_t[k], lo_t[k], e + s_t[k]
    p = m * hi
    mh = 134217729.0 * m
    mh -= mh - m
    hh = 134217729.0 * hi
    hh -= hh - hi
    ml, hl = m - mh, hi - hh
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl
    return np.ldexp(p, j), np.ldexp(err + m * lo, j)


def g17_fields(values, sep):
    """Each value's ``'%.17g' % v`` and separator as a row of WIDTH bytes,
    padded with 0xFF.

    A finite nonzero |v| = m * 2**e (``np.frexp``) with decimal exponent
    X = floor(log10 |v|), corrected by one where needed, is scaled to
    y = |v| * 10**(16 - X) in [1e16, 1e17) by ``_scaled``, whose error is
    below 2**-46, so D = round(y) is the correctly rounded 17-digit
    significand.  Values whose y lies within ``_MARGIN`` of a rounding
    tie or of 1e16 or 1e17 are formatted by ``'%.17g'`` itself, as are
    inf and nan.  The layout follows Python's 'g': fixed for -4 <= X < 17,
    else 'd.ddde+XX'; trailing zeros and a bare '.' dropped; '-0' kept.
    ``sep`` holds separator bytes and broadcasts against ``values``.
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    cols, four, kept = _tables()
    a = np.abs(v)
    regular = np.isfinite(a) & (a > 0)
    a[~regular] = 1.0
    m, e = np.frexp(a)
    X = np.floor(np.log10(a)).astype(np.int32)
    p, q = _scaled(m, e, 16 - X)
    # near a power of ten log10 may miss the decade by one
    low, high = (p - 1e16) + q < 0, (p - 1e17) + q >= 0
    redo = np.flatnonzero(low | high)
    X[redo] += high[redo].astype(np.int32) - low[redo]
    p[redo], q[redo] = _scaled(m[redo], e[redo], 16 - X[redo])
    r = np.rint(q)  # p is an integer: y >= 1e16 > 2**53
    near = (np.abs(np.abs(q - r) - 0.5) < _MARGIN) | (np.abs((p - 1e16) + q) < _MARGIN)
    near |= np.abs((p - 1e17) + q) < _MARGIN
    D = np.where(regular, p.astype(np.int64) + r.astype(np.int64), 0)
    carry = D == 10**17  # y rounded up into the next decade
    D[carry], X[carry] = 10**16, X[carry] + 1
    # the source rows, 4 bytes at a time: exponent digits and the leading
    # digit, then the other 16 digits in groups of 4; D < 10**17 splits into
    # halves below 10**9, whose divmods run in int32, about twice as fast
    upper, lower = (half.astype(np.int32) for half in np.divmod(D, 10**8))
    lead, upper = np.divmod(upper, 10**8)
    groups = [*np.divmod(upper, 10**4), *np.divmod(lower, 10**4)]
    src = np.empty((v.size, 7), np.uint32)
    src[:, 0] = four[np.abs(X) % 1000 * 10 + lead]
    for g, group in enumerate(groups, 1):
        src[:, g] = four[group]
    src = src.view(np.uint8)
    src[:, _MINUS:_SEP] = np.frombuffer(b"-.0e+", np.uint8)
    src[:, _SEP] = np.broadcast_to(sep, np.shape(values)).reshape(-1)
    src[:, _PAD] = 0xFF
    # significant digits kept: up to the last nonzero one, at least one
    nd = 1 + np.maximum(
        np.maximum(kept[groups[0]], kept[groups[1]] + 4),
        np.maximum(kept[groups[2]] + 8, kept[groups[3]] + 12),
    )
    notation = np.where((X >= -4) & (X <= 16), X + 4, 21 + 2 * (X < 0) + (np.abs(X) >= 100))
    notation[~regular] = 25
    layout = (np.signbit(v) * 26 + notation) * 17 + nd - 1
    at = cols[layout]  # gather each field from its source row
    at += np.arange(0, src.size, 28)[:, None]
    out = src.reshape(-1).take(at)
    for i in np.flatnonzero(~np.isfinite(v) | regular & near).tolist():
        text = ("%.17g" % v[i]).encode() + bytes(src[i, _SEP : _SEP + 1])
        out[i] = np.frombuffer(text.ljust(WIDTH, b"\xff"), np.uint8)
    return out.reshape(*np.shape(values), WIDTH)
