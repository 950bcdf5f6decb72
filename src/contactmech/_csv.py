"""CSV rows of floats with the bytes of ``"%.17g"``, formatted by numpy a block at a time.

For |x| in [1e-280, 1e280] the 17 significant digits D and the decimal
exponent E come from y = |x| * 10**(16 - E), with E = floor(log10|x|).
y is a double-double p + t: Dekker's exact product of |x| and the double
nearest 10**k (Veltkamp splits, each step its own ufunc, so nothing is
fused into an FMA), plus |x| times the double nearest the rest of 10**k.
Its error is below 2**-47, so D = p + floor(t) + (frac(t) > 0.5) is y
rounded to the nearest integer, as ``"%.17g"`` rounds, wherever frac(t) is
at least 2**-36 away from 0.5.  Every other cell is Python's own
``"%.17g" % x``: zero, NaN, +-inf, |x| outside the range, a fraction within
2**-36 of a tie, and y outside [1e16, 1e17), as where log10 rounds across
a power of ten.  So no cell's bytes rest on the error bound being tight.
The digits, the point and the exponent are laid out by ``%g``'s rule:
fixed notation for -4 <= E < 17, else d.ddde+XX, without trailing zeros or
a bare point.
"""

import numpy as np

CHUNK_ROWS = 512  # rows formatted at a time, so the text is never held whole

_K = 300  # the tables hold 10**k for k in -_K.._K; 16 - E stays within -265..297
_LOW, _HIGH = 1e-280, 1e280  # where the products and splits of |x| and 10**(16 - E) stay normal
_TIE = 2.0**-36


def _powers():
    """10**k as hi + lo: hi the double nearest it, lo the double nearest 10**k - hi."""
    hi, lo = [], []
    for k in range(-_K, _K + 1):
        if k >= 0:
            h = float(10**k)
            rest = float(10**k - int(h))
        else:
            d = 10**-k
            h = 1 / d
            num, den = h.as_integer_ratio()
            rest = (den - num * d) / (den * d)  # 1/d - num/den, exact until the one rounding
        hi.append(h)
        lo.append(rest)
    return np.array(hi), np.array(lo)


def _split(v):
    """Veltkamp's split of v into halves of 26 and 27 bits, v = high + low exactly."""
    c = v * 134217729.0  # 2**27 + 1
    high = c - (c - v)
    return high, v - high


_POW_HI, _POW_LO = _powers()
_POW_HH, _POW_HL = _split(_POW_HI)

# Each cell is first a row of 48 bytes, six native words: "-0.000" and D's
# first digit with a point; D's other 16 digits, each with a point after it;
# "e", the exponent's sign and 3 digits, the separator and 2 bytes of padding.
# The cell's text is the bytes its layout keeps, in order.
_WIDTH, _SEP = 48, 45
_LEAD = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), dtype=np.uint64)
_EXPONENTS = np.frombuffer(b"".join(b"e%+04d,\0\0" % e if e < 0 else b"e+%03d,\0\0" % e for e in range(-_K, _K + 1)),
                           dtype=np.uint64)
_DIGITS = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10  # the 4 digits of each group
_QUADS = np.full((10000, 8), ord("."), dtype=np.uint8)
_QUADS[:, ::2] = _DIGITS + ord("0")
_QUADS = _QUADS.view(np.uint64).ravel()  # "0.0.0.0." .. "9.9.9.9."
_TRAILING = np.cumprod(_DIGITS[:, ::-1] == 0, axis=1).sum(axis=1)  # each group's trailing zeros
_MODES = np.array([e + 4 if -4 <= e < 17 else 21 if abs(e) < 100 else 22 for e in range(-_K, _K + 1)])


def _kept(mode, ndig):
    """The bytes of its row a cell of E's ``mode`` keeps, but for a sign: ``mode``
    is E + 4 in fixed notation, 21 or 22 for scientific with 2 or 3 exponent
    digits; D has ``ndig`` significant digits."""
    digit = [6 + 2 * i for i in range(17)]
    if mode >= 21:
        return digit[:ndig] + [7] * (ndig > 1) + [40, 41] + [42, 43, 44][22 - mode :] + [_SEP]
    if mode >= 4:  # E >= 0: the integer part is D's first E + 1 digits
        e = mode - 4
        return digit[: max(ndig, e + 1)] + [7 + 2 * e] * (ndig > e + 1) + [_SEP]
    return [1, 2, 3, 4, 5][: 5 - mode] + digit[:ndig] + [_SEP]  # 0.000ddd


_KEEP = np.zeros((2, 23 * 17 * _WIDTH), dtype=bool)  # by sign, then mode and ndig - 1
_KEEP[:, [(17 * mode + ndig - 1) * _WIDTH + byte for mode in range(23) for ndig in range(1, 18)
          for byte in _kept(mode, ndig)]] = True
_KEEP = _KEEP.reshape(-1, _WIDTH)
_KEEP[23 * 17 :, 0] = True  # a negative cell keeps its sign
_KEEP = _KEEP.view(np.uint64)


def _scaled(a, k):
    """``(p, t)``: a * 10**k as a double-double, p the double nearest it."""
    ah, al = _split(a)
    bh, bl = _POW_HH[k + _K], _POW_HL[k + _K]
    head = a * _POW_HI[k + _K]
    tail = ((ah * bh - head) + ah * bl + al * bh) + al * bl  # Dekker: head + tail = a * hi, exactly
    tail += a * _POW_LO[k + _K]
    p = head + tail
    return p, tail - (p - head)


def _in_range(p, t):
    """Where 1e16 <= p + t < 1e17."""
    low = (p < 1e16) | ((p == 1e16) & (t < 0))
    high = (p > 1e17) | ((p == 1e17) & (t >= 0))
    return ~(low | high)


def format_rows(block: np.ndarray) -> bytes:
    """The rows of an (N, C) float array as ``"%.17g"`` cells joined by commas,
    each row ending in a newline."""
    x = np.ascontiguousarray(block, dtype=float).ravel()
    a = np.abs(x)
    fast = (a >= _LOW) & (a <= _HIGH)  # NaN is neither
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    p, t = _scaled(a, 16 - e)
    fast &= _in_range(p, t)
    whole = np.floor(t)
    frac = t - whole
    fast &= np.abs(frac - 0.5) >= _TIE
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    top = d == 10**17
    e += top
    d[top | ~fast] = 10**16  # a fallback cell's digits are any that index the tables

    upper, lower = np.divmod(d, 10**8)
    lead, upper = np.divmod(upper, 10**8)
    groups = (upper // 10**4, upper % 10**4, lower // 10**4, lower % 10**4)
    words = np.empty((x.size, _WIDTH // 8), dtype=np.uint64)
    words[:, 0] = _LEAD[lead]
    for column, group in enumerate(groups, start=1):
        words[:, column] = _QUADS[group]
    words[:, 5] = _EXPONENTS[e + _K]
    cells = words.view(np.uint8)
    cells[block.shape[1] - 1 :: block.shape[1], _SEP] = ord("\n")

    trailing = _TRAILING[groups[3]]  # D's trailing zeros, up to 16, as its lead digit is not 0
    for zeros, group in zip((4, 8, 12), groups[2::-1]):
        trailing += (trailing == zeros) * _TRAILING[group]
    layout = ((x < 0) * 23 + _MODES[e + _K]) * 17 + 16 - trailing
    keep = _KEEP.take(layout, axis=0).view(bool)

    slow = np.flatnonzero(~fast)
    if slow.size:
        # 24 bytes hold the longest "%.17g", such as -2.2250738585072014e-308
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype="S24").view(np.uint8).reshape(-1, 24)
        cells[slow, :24] = text
        keep[slow, :_SEP] = False
        keep[slow, :24] = text != 0
    return np.compress(keep.ravel(), cells.ravel()).tobytes()


def chunks(columns):
    """The bytes of the rows of equal-length columns, ``CHUNK_ROWS`` rows at a time."""
    for start in range(0, len(columns[0]), CHUNK_ROWS):
        yield format_rows(np.column_stack([column[start : start + CHUNK_ROWS] for column in columns]))
