"""Block formatter for trajectory CSVs: the bytes of ``"%.17g" % v``, built with numpy.

``format_rows(block)`` returns the CSV text of a 2-D float block, ``,``
between values and ``\\n`` after each row, byte for byte what
``np.savetxt(fmt="%.17g", delimiter=",")`` writes. Formatting one float at a
time with 17 digits takes about 1 us in CPython, because its dtoa takes the
bignum path; here each block is formatted in a few dozen array operations.

Exact digits. With P = 17 significant digits, a finite v with
1e-10 <= |v| < 1e15 is M*2**e with M a 53-bit integer (``np.frexp``). Its P
digits are

    D = round_half_even(M * 5**p * 2**(e + p)),   p = P - 1 - k,

with k the decimal exponent of the rounded value. In that range p >= 0 and
e + p < 0: the product M*5**p (5**p < 2**63 for p <= 27) is formed exactly
in 128 bits from 32-bit limbs and shifted right with a round bit and a sticky
bit. k starts at floor(log10|v|),
which can be one off next to powers of ten: k moves up when D >= 10**P, and
when D <= 10**(P-1) the next lower k is taken if it still gives P digits.
This is the fixed-precision conversion of Adams, "Ryu revisited: printf
floating point conversion", OOPSLA 2019, restricted to the range of the logs.

Layout, one exponent group at a time. The values of a block are ordered by
k (a stable radix sort on int8). Within a group every value prints the same
way: fixed notation for -4 <= k < P ("ddd.ddd" or "0.000ddd"), otherwise
"d.ddde+XX" with the group's exponent. The P digits come from a table of
4-digit ASCII chunks and are copied into fixed-width byte rows behind a sign
column. Every byte that does not print is NUL: the sign slot of a positive
value, the digits after the point that follow the last significant one (a
chunk with only zeros after it is read from a second table, whose trailing
zeros are NUL) and a "." with no digit after it. The rows go back to the
order of the values, and one ``bytes.translate`` deletes the NULs; every
printed byte is non-NUL ASCII.

Zeros are formatted in the same arrays. Every other value (non-finite or out
of the exact range) is formatted with ``%`` and placed in its row.
"""

import numpy as np

P = 17  # significant digits of every value
# The exact range: below EXACT_MAX, k <= P - 1 and v < 2**50, so that p >= 0
# and e + p < 0 in the digit step.
EXACT_MIN, EXACT_MAX = 1e-10, 1e15
# A row per value: up to P + 8 characters of %g (sign, P digits, ".",
# "e-308"), then the separator.
WIDTH = P + 9


_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_POW5_LO = np.array([5 ** i & 0xFFFFFFFF for i in range(28)], dtype=_U)
_POW5_HI = np.array([5 ** i >> 32 for i in range(28)], dtype=_U)
# 4-digit ASCII chunks as uint32, so that one take fetches four bytes: entry
# c is chunk c, entry 10000 + c the same chunk with its trailing zeros NUL
# (all four for 0000). Built in uint16 and uint8 so that no temporary reaches
# glibc's mmap threshold at import.
_CHUNK = np.arange(10000, dtype=np.uint16)[:, None]
_PLACE = np.array([1000, 100, 10, 1], np.uint16)
_DIGITS4 = (_CHUNK // _PLACE % 10 + ord("0")).astype(np.uint8)
_DIGITS4 = np.concatenate([_DIGITS4, _DIGITS4 * (_CHUNK % (10 * _PLACE) != 0)])
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()


def _scaled(M, e, p):
    """round_half_even(M * 5**p * 2**(e+p)) for 0 <= p <= 27 and e + p < 0."""
    one = _U(1)
    ml, mh, fl, fh = M & _LOW32, M >> _U(32), _POW5_LO[p], _POW5_HI[p]
    ll = ml * fl
    mid = ml * fh + mh * fl
    lo = ll + (mid << _U(32))
    hi = mh * fh + (mid >> _U(32)) + (lo < ll)
    # N = hi*2**64 + lo = M*5**p. Take q1 = N >> t, t = -(e+p) - 1: one bit
    # more than the result, and the bits below it.
    t = -(e + p) - 1
    s = (t & 63).astype(_U)
    mask = (one << s) - one
    wide = t >= 64
    q1 = np.where(wide, hi >> s, (lo >> s) | ((hi << one) << (_U(63) - s)))
    below = np.where(wide, lo | (hi & mask), lo & mask)
    q = q1 >> one
    return q + (q1 & (np.minimum(below, one) | q) & one)


def _digits(a):
    """P significant digits D (10**(P-1) <= D < 10**P) and decimal exponent k
    of each a in [EXACT_MIN, EXACT_MAX)."""
    m, ex = np.frexp(a)
    M = (m * 2.0 ** 53).astype(_U)
    e = ex.astype(np.int64) - 53
    k = np.floor(np.log10(a)).astype(np.int64)
    D = _scaled(M, e, P - 1 - k)
    top, bottom = _U(10 ** P), _U(10 ** (P - 1))
    up = np.flatnonzero(D >= top)
    if up.size:
        k[up] += 1
        D[up] = _scaled(M[up], e[up], P - 1 - k[up])
    low = np.flatnonzero(D <= bottom)
    if low.size:
        D2 = _scaled(M[low], e[low], P - k[low])
        ok = D2 < top
        k[low[ok]] -= 1
        D[low[ok]] = D2[ok]
    return D, k


def _chunks(y, n):
    """y < 10**(4n) as n 4-digit chunks, least significant first."""
    chunks = []
    for _ in range(n):
        q = y // _U(10000)
        chunks.append((y - q * _U(10000)).view(np.int64))
        y = q
    return chunks


def _layout(D, k, neg):
    """Byte rows of WIDTH for digits D, exponents k and signs neg, sorted by
    k, with NUL in every byte that does not print; returns (rows, order of
    the sort)."""
    order = np.argsort(k.astype(np.int8), kind="stable")
    ks = k[order]
    # A chunk with only zeros after it is read from the table's second half,
    # so the digits after the last significant one are NUL; D = 0 is all NUL.
    bare = np.full(D.size, 10000)
    quads = []
    for c in _chunks(D[order], (P + 3) // 4):
        quads.append(_DIGITS4[c + bare])
        bare *= c == 0
    digits = np.stack(quads[::-1], axis=1).view(np.uint8)
    digits = digits[:, digits.shape[1] - P:]

    rows = np.zeros((D.size, WIDTH), np.uint8)
    rows[:, 0] = neg[order] * np.uint8(ord("-"))
    cuts = [0, *(np.flatnonzero(np.diff(ks)) + 1).tolist(), D.size]
    for s0, s1 in zip(cuts[:-1], cuts[1:]):
        x = int(ks[s0])
        r = slice(s0, s1)
        # %g: fixed notation for -4 <= x < P, else d.ddde+XX. "head" and the
        # first b digits always print (a NUL among these is a 0); the rest,
        # and the point before them, only up to the last significant digit.
        if -4 <= x < P:
            head, b, tail = ("0." + "0" * (-x - 1), 0, "") if x < 0 else ("", x + 1, "")
        else:
            head, b, tail = "", 1, f"e{x:+03d}"
        c = 1 + len(head)
        rows[r, 1:c] = np.frombuffer(head.encode(), np.uint8)
        np.bitwise_or(digits[r, :b], ord("0"), out=rows[r, c:c + b])
        c += b
        if b:
            if b < P:
                rows[r, c] = np.minimum(digits[r, b], ord("."))
            c += 1
        rows[r, c:c + P - b] = digits[r, b:]
        c += P - b
        rows[r, c:c + len(tail)] = np.frombuffer(tail.encode(), np.uint8)
    return rows, order


def block_rows(ncols):
    """Rows per format_rows call that keep its largest temporaries, the byte
    rows of WIDTH bytes a value and their bytes copy, within 120 KiB: under
    glibc's 128 KiB mmap threshold with room for allocator headers. A larger
    temporary is mapped and faulted in afresh on every call, unless an
    earlier free of a larger block raised the threshold."""
    return max(1, 120 * 1024 // (ncols * WIDTH))


def format_rows(block):
    """CSV text of a 2-D float block, each value formatted as "%.17g"."""
    block = np.asarray(block, dtype=float)
    if block.size == 0:
        return b""
    ncols = block.shape[1]
    v = block.ravel()
    out = np.empty((v.size, WIDTH), np.uint8)
    a = np.abs(v)
    inside = (a >= EXACT_MIN) & (a < EXACT_MAX)
    # 2.0 stands in for the values printed by % below.
    D, k = _digits(np.where(inside, a, 2.0))
    zero = a == 0.0
    D[zero] = 0
    k[zero] = 0
    rows, order = _layout(D, k, np.signbit(v))
    # Back to the order of the values, a row at a time.
    out.view(f"V{WIDTH}")[order] = rows.view(f"V{WIDTH}")
    rest = np.flatnonzero(~(inside | zero))
    if rest.size:  # NUL-padded, like the rows
        text = np.array(["%.17g" % x for x in v[rest].tolist()], dtype=f"S{WIDTH - 1}")
        out[rest, :-1] = text.view(np.uint8).reshape(rest.size, WIDTH - 1)
    out[:, -1] = ord(",")
    out[ncols - 1::ncols, -1] = ord("\n")
    return out.tobytes().translate(None, b"\0")
