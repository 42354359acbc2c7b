"""Rows of float64 as text, byte for byte what ``repr`` writes for each value.

``float_text(X, start, sep, row_sep, end)`` writes the ``repr`` of every
entry of a 2-d float array after ``start``, with ``sep`` after each entry
inside a row, ``row_sep`` after each row and ``end`` after the last row, with
no Python loop per value.

Each value's shortest, correctly rounded decimal digits come from Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020), vectorized over
the bit patterns.  Two steps differ from Java's ``DoubleToDecimal`` so that
the digits are those of Python's ``repr``: the one-digit-shorter candidate is
tried whenever there are at least two digits, and the tiniest subnormals are
not scaled by ten first.  The 64x64-bit products are built from 32-bit limbs
in ``uint64``, with every operand ``uint64``: numpy 1.x would turn a mix of
signed and unsigned integers into float64.

The text is then laid out in a fixed template of ``_WORDS`` 4-byte words per
value, in which a byte not written stays NUL: 4-digit ASCII words from tables
that turn leading or trailing zeros into NUL, the sign, the point, the
exponent and the separator after the value.  Dropping every NUL (which never
occurs in the text) leaves the text.
"""

from __future__ import annotations

import numpy as np

# Values encoded per chunk: smaller chunks pay more numpy calls per value,
# larger ones more memory traffic (for 1000 x 20 rows on a 2-vCPU x86-64 VM,
# chunks of 20000 or 1250 took 20% or 57% longer).
_CHUNK_VALUES = 5000

_U = np.uint64
_MASK32 = _U(0xFFFFFFFF)
_MASK63 = _U((1 << 63) - 1)
_K_MIN, _K_MAX = -324, 292      # floor(log10(2**q)) over every double


def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """For k in [_K_MIN, _K_MAX], write 10**-k = beta * 2**r with 2**125 <=
    beta < 2**126 and let g = floor(beta) + 1: return, in row k - _K_MIN,
    g's top 63 bits g1 = g >> 63 and the 32-bit limbs of g1 and of g's
    low 63 bits g0.  Only 5**|k| sets beta's bits; the values are exact."""
    fives = [1]
    for _ in range(-_K_MIN):
        fives.append(fives[-1] * 5)
    g = []
    for p in reversed(fives):                 # k = _K_MIN .. 0
        r = p.bit_length() - 126
        g.append((p >> r if r >= 0 else p << -r) + 1)
    top = 125 + fives[_K_MAX].bit_length()
    quotient = 1 << top                       # floor(2**top / 5**k), k = 1 .. _K_MAX
    for p in fives[1:_K_MAX + 1]:
        quotient //= 5
        g.append((quotient >> (top - 125 - p.bit_length())) + 1)
    g1 = np.array([v >> 63 for v in g], dtype=_U)
    g0 = np.array([v & ((1 << 63) - 1) for v in g], dtype=_U)
    return g1, g1 & _MASK32, g1 >> _U(32), g0 & _MASK32, g0 >> _U(32)


def _scalings() -> tuple[np.ndarray, np.ndarray]:
    """k and the shift h for a double with biased exponent b, in row b, and
    in row b + 2048 for a significand of exactly 2**52 (b > 1), below which
    the doubles are spaced twice as closely: k = floor(log10(2**q)), or
    floor(log10(3/4 * 2**q)) there, with q the exponent of the significand's
    last bit, and h = q + floor(log2(10**-k)) + 2."""
    q = np.maximum(np.arange(4096) & 2047, 1) - 1075
    k = (q * 661_971_961_083 - (np.arange(4096) >> 11) * 274_743_187_321) >> 41
    return k, (q + ((-k * 913_124_641_741) >> 38) + 2).astype(_U)


_G = _powers_of_ten()
_K, _H = _scalings()
_POW10 = np.array([10 ** i for i in range(18)], dtype=_U)


def _word(text: bytes) -> np.uint32:
    """Four bytes as the uint32 word that holds them in memory order."""
    return np.frombuffer(text.ljust(4, b"\0"), dtype=np.uint32)[0]


def _digit_words() -> np.ndarray:
    """Every 4-digit group as an ASCII word, in three tables laid end to
    end (all digits; leading zeros NUL; trailing zeros NUL), then the group
    0 as ``"\\0\\0\\00"`` and as ``"0\\0\\0\\0"``."""
    text = np.empty((3, 10, 10, 10, 10, 4), dtype=np.uint8)
    for j in range(4):   # digit j of the group in axis j, as byte j of its word
        text[..., j] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape(
            (10,) + (1,) * (3 - j))
    _, lead, trail = text
    for j in range(4):
        lead[(0,) * (j + 1) + (..., j)] = 0        # digits 0..j all zero
        trail[(...,) + (0,) * (4 - j) + (j,)] = 0  # digits j..3 all zero
    words = text.reshape(-1, 4).view(np.uint32).ravel()
    return np.append(words, [_word(b"\0\0\0" + b"0"), _word(b"0")])


_DIGITS = _digit_words()
_LEAD, _TRAIL, _ZERO_LAST, _ZERO_FIRST = 10000, 20000, 30000, 30001


def _exponent_words() -> np.ndarray:
    """``e+XX`` or ``e-XXX`` (at least two digits) for each exponent from
    -324 to 308, as two words: row ``e + 324`` of a (633, 2) table."""
    e = np.arange(-324, 309)
    mag = np.abs(e)
    text = np.zeros((e.size, 8), dtype=np.uint8)
    text[:, 0] = ord("e")
    text[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    wide = mag >= 100
    text[:, 2] = np.where(wide, mag // 100 + ord("0"), mag // 10 % 10 + ord("0"))
    text[:, 3] = np.where(wide, mag // 10 % 10, mag % 10) + ord("0")
    text[:, 4] = np.where(wide, mag % 10 + ord("0"), 0)
    return text.view(np.uint32)


_EXPONENT = _exponent_words()

# Template, in 4-byte words: sign | 4 integer-part groups | point and up to
# three zeros | leading digit | 4 fraction groups | 2 exponent words | separator.
_WORDS = 14
_SIGN_BYTE, _INT, _POINT_BYTE, _LEAD_BYTE, _FRAC, _EXP, _SEP = 3, 1, 20, 24, 7, 11, 13


def _mulhi(a_lo, a_hi, b_lo, b_hi):
    """The high 64 bits of the 128-bit product of a and b, given as 32-bit
    limbs in uint64."""
    lo_lo = a_lo * b_lo
    lo_hi = a_lo * b_hi
    mid = a_hi * b_lo + (lo_lo >> _U(32)) + (lo_hi & _MASK32)
    return a_hi * b_hi + (lo_hi >> _U(32)) + (mid >> _U(32))


def _round_to_odd(g, cp):
    """floor(cp * g / 2**127) for g = (g1, its limbs, g0's limbs), its last
    bit set if that drops a nonzero remainder (as far as the 126-bit g
    resolves it)."""
    g1, g1_lo, g1_hi, g0_lo, g0_hi = g
    cp_lo, cp_hi = cp & _MASK32, cp >> _U(32)
    x1 = _mulhi(g0_lo, g0_hi, cp_lo, cp_hi)
    y1 = _mulhi(g1_lo, g1_hi, cp_lo, cp_hi)
    z = ((g1 * cp) >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _MASK63) + _MASK63) >> _U(63))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits and exponent ``(s, k)`` of each nonzero finite double, given
    as its bit pattern with the sign cleared: the shortest decimal s * 10**k
    that reads back as the double, the closest one if there are several (an
    even s on a tie)."""
    biased = bits >> _U(52)
    c = bits & _U((1 << 52) - 1)
    irregular = (c == 0) & (biased > _U(1))
    c |= (biased != 0).astype(_U) << _U(52)
    row = (biased + (irregular.astype(_U) << _U(11))).astype(np.intp)
    k, h = _K[row], _H[row]
    g = tuple(table[k - _K_MIN] for table in _G)
    odd = c & _U(1)
    cb = c << _U(2)
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - _U(2) + irregular.astype(_U)) << h) + odd
    vbr = _round_to_odd(g, (cb + _U(2)) << h) - odd
    s = vb >> _U(2)
    # One digit shorter: s' = 10 floor(s / 10) or s' + 10, if one of them is in range.
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    shorter = (s >= _U(10)) & (upin != wpin)
    # Otherwise s or s + 1: the one in range, or the closer one to v.
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    mid = (s << _U(2)) + _U(2)
    closer = (vb < mid) | ((vb == mid) & ((s & _U(1)) == 0))
    up = np.where(uin != win, win, ~closer)
    digits = np.where(shorter, np.where(upin, sp10, sp10 + _U(10)), s + up)
    return digits, k


def _groups(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four 4-digit groups of each number below 10**16, most
    significant first."""
    high = x // _U(10 ** 8)
    low = x - high * _U(10 ** 8)
    first, third = high // _U(10000), low // _U(10000)
    return first, high - first * _U(10000), third, low - third * _U(10000)


def _encode(X: np.ndarray, sep: np.uint32, row_sep: np.uint32, last: np.uint32) -> bytes:
    """The text of X's rows: each value followed by the word ``sep``, the
    last of a row by ``row_sep`` and the last of all by ``last``."""
    values = np.ascontiguousarray(X, dtype=np.float64).ravel()
    bits = values.view(_U)
    negative = bits >> _U(63)
    bits = bits & _MASK63
    zero = bits == 0
    s, k = _shortest(np.where(zero, _U(1), bits))
    # M: the digits scaled to 17 places; decpt: the place of the point
    # before M's first digit.  Zero is M = 0 with the point after one digit.
    places = np.searchsorted(_POW10, s, side="right")
    m = s * _POW10[17 - places]
    m[zero] = 0
    decpt = places + k
    decpt[zero] = 1
    scientific = (decpt > 16) | (decpt < -3)
    small = (decpt < 1) & (decpt >= -3)
    # Split M after ``split`` digits: into the integer part and the
    # fraction, or (scientific, small) into the first digit and the rest.
    split = np.where(scientific | small, 1, decpt)
    scale = _POW10[17 - split]
    head = m // scale
    tail = (m - head * scale) * _POW10[split - 1]

    out = np.zeros((values.size, _WORDS), dtype=np.uint32)
    out8 = out.view(np.uint8)
    out8[:, _SIGN_BYTE] = negative.astype(np.uint8) * ord("-")
    # Integer part, right-aligned: zeros before its first digit are NUL, and
    # so are whole groups above the largest integer part.
    integer = np.where(small, _U(0), head)
    for j in range(3):
        out8[:, _POINT_BYTE + 1 + j] = (small & (decpt < -j)) * ord("0")
    out8[:, _LEAD_BYTE] = small * (head.astype(np.uint8) + ord("0"))
    top = integer.max()
    for j, group in enumerate(_groups(integer)):
        if j < 3 and top < _POW10[12 - 4 * j]:
            continue   # NUL in every value
        index = group.astype(np.intp)
        index += (integer < _POW10[16 - 4 * j]) * _LEAD
        if j == 3:
            index[integer == 0] = _ZERO_LAST
        out[:, _INT + j] = _DIGITS[index]
    out8[:, _POINT_BYTE] = ord(".")
    # Fraction, left-aligned: zeros after its last digit are NUL; a fixed
    # number with a zero fraction shows one zero.
    later = np.zeros(values.size, dtype=bool)
    for j, group in reversed(list(enumerate(_groups(tail)))):
        index = group.astype(np.intp)
        index += ~later * _TRAIL
        out[:, _FRAC + j] = _DIGITS[index]
        later |= group != 0
    out[(tail == 0) & ~(scientific | small), _FRAC] = _DIGITS[_ZERO_FIRST]
    out8[scientific & (tail == 0), _POINT_BYTE] = 0
    out[scientific, _EXP:_EXP + 2] = _EXPONENT[decpt[scientific] - 1 + 324]
    out[:, _SEP] = sep
    out[X.shape[1] - 1::X.shape[1], _SEP] = row_sep
    out[-1, _SEP] = last
    flat = out8.ravel()
    return flat[flat != 0].tobytes()


def float_text(X: np.ndarray, start: bytes, sep: bytes, row_sep: bytes, end: bytes) -> bytes:
    """``start``, then the ``repr`` of every entry of the finite 2-d float
    array ``X``, each followed by ``sep`` within a row, ``row_sep`` at the
    end of a row and ``end`` at the end of the last one.  Each separator
    holds one to four bytes, none of them NUL."""
    rows, width = X.shape
    step = max(1, _CHUNK_VALUES // width)
    sep_w, row_w = _word(sep), _word(row_sep)
    return b"".join([start] + [
        _encode(X[lo:lo + step], sep_w, row_w, row_w if lo + step < rows else _word(end))
        for lo in range(0, rows, step)])
