"""The writer of trace.csv and snapshots.csv: numpy text with the bytes of ``%``.

:func:`write_csv` prints every float as ``"%.17g" % v`` does, byte for
byte, a chunk of rows at a time.  ``%`` spends its time in CPython's
big-number ``dtoa`` at 17 digits; this kernel finds the same 17 digits
with a double-double product and lays them out by ``%g``'s rule.  A
value it cannot certify is printed by ``%`` itself.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

__all__ = ["CHUNK_ROWS", "write_csv"]

#: rows formatted and written at once
CHUNK_ROWS = 256
#: the decimal exponents e = floor(log10|v|) that the tables cover; a value
#: outside 1e-99 <= |v| <= 1e99 (a subnormal among them) goes through `%`
_E_LO, _E_HI = -100, 100
#: a scaled value whose fraction lies this close to 1/2 may round either way
#: (its error is below 1e-6); it goes through `%`
_TIE_MARGIN = 2.0**-12
#: what may follow a value: ",", a line end, or "," and a line end before an
#: empty last field
_SEPARATORS = (b",", b"\n", b",\n")
#: the bytes of a value's row in the work buffer: its head (sign and "0.000")
#: right-aligned in the first 8, then its 17 digits or the text of `%` (up to
#: 24 bytes), then its exponent and separator
_ROW = 40


def _pow10(k: int) -> tuple[float, float]:
    """10**k as hi + lo, from Python ints: hi correctly rounded, lo the rest rounded."""
    if k >= 0:
        hi = float(10**k)
        return hi, float(10**k - int(hi))
    d = 10**-k
    hi = 1 / d
    p, q = hi.as_integer_ratio()
    return hi, (q - p * d) / (q * d)


@functools.cache
def _tables() -> dict:
    """The lookup tables, built by the first write: by row e - _E_LO of the exponent e.

    They, like the kernel, keep to numpy loops that a run uses anyway: each
    loop that a process runs for the first time brings its code, 64 KB at
    a time, into the process's resident memory.  So the splits are float
    arithmetic, and no int array is compared.
    """
    es = range(_E_LO, _E_HI + 1)
    hi, lo = np.array([_pow10(16 - k) for k in es]).T
    # hi = hi1 + hi2, 26 bits each (Veltkamp's split), so that hi1 times a
    # 26-bit half of |v| is exact
    hi1 = hi * 134217729.0
    hi1 -= hi1 - hi
    # %g: fixed notation for -4 <= e < 17, "d.ddde+XX" otherwise; "0." and
    # e's zeros lead a value below 1
    heads = [b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b"" for k in es]
    tails = [x + s for x in [b"" if -4 <= k < 17 else b"e%+03d" % k for k in es]
             for s in _SEPARATORS]
    # the ASCII digits of 0000 to 9999
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    for k in range(4):
        digits[..., k] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - k))
    # their trailing zeros, 4 for 0000
    zeros = np.zeros(10000, np.intp)
    for p in (10, 100, 1000, 10000):
        zeros[::p] += 1
    return {
        "scale": np.array([hi, hi1, hi - hi1, lo]),
        # the digits before the point: e + 1 in fixed notation, 1 in exponent
        # notation, none below 1, whose head holds the point
        "lead": np.array([k + 1 if 0 <= k < 17 else 0 if -4 <= k < 0 else 1 for k in es]),
        "point": np.array([0 if -4 <= k < 0 else 1 for k in es]),
        # by 2 * row + sign: the head, right-aligned in a word, and its length
        "head": np.array([int.from_bytes((s + h).rjust(8, b"\0"), "little")
                          for h in heads for s in (b"", b"-")], np.uint64),
        "head_len": np.array([len(h) + s for h in heads for s in (0, 1)]),
        # by 3 * row + separator: the exponent and separator, and their length
        "tail": np.array(tails, "S8").view("V8"),
        "tail_len": np.array([len(t) for t in tails]),
        # the ASCII digits of each 4-digit group in a little-endian word, and of each digit
        "group": digits.view(np.uint32).ravel(),
        "digit": np.arange(48, 58, dtype=np.uint32),
        "zeros": zeros,
    }


def _scale(x: np.ndarray, t: dict) -> tuple[np.ndarray, ...]:
    """Each value's exponent row, whether its 17 digits N are certain, and N.

    With e = floor(log10|v|), y = |v| * 10**(16 - e) is a double-double
    product h + f with the exact power, so N = round(y) holds v's 17
    significant digits.  N is certain where y's fraction is not within
    _TIE_MARGIN of 1/2 and 10**16 <= y, N < 10**17; elsewhere it is 0.
    """
    a = np.abs(x)
    # |v| clipped into the tables: inf and nan to the top, 0 and subnormals
    # to the bottom
    c = np.fmax(np.fmin(a, 1e99), 1e-99)
    row = (np.log10(c) - _E_LO).astype(np.intp)
    hi, hi1, hi2, lo = t["scale"].take(row, axis=1)
    # c = c1 + (c - c1), 26 bits each
    c1 = c * 134217729.0
    c1 -= c1 - c
    h = c * hi
    f = c1 * hi1 - h + c1 * hi2 + (c - c1) * hi + c * lo
    r = np.floor(f + 0.5)
    f -= r
    # h is a whole number, so y >= 10**16 is (h - 10**16) + r + f >= 0, and
    # N = h + r < 10**17 where h < 10**17, since |r| <= 8
    ok = (a == c) & (np.abs(f) < 0.5 - _TIE_MARGIN) & (h - 1e16 + r + f >= 0) & (h < 1e17)
    n17 = h.astype(np.int64) + r.astype(np.int64)
    n17[~ok] = 0
    return row, ok, n17


def _put_digits(n17: np.ndarray, out: np.ndarray, t: dict) -> np.ndarray:
    """Write the 17 ASCII digits of each N into a row of ``out``; return 17 less their trailing zeros.

    The digits are four 4-digit groups and the last digit, one in each of
    the row's five 32-bit words.
    """
    n16, last = np.divmod(n17, 10)
    halves = np.array(np.divmod(n16, 10**8))
    top, bottom = np.divmod(halves, 10**4)
    # groups[k] is each N's k-th group
    groups = np.array((top[0], bottom[0], top[1], bottom[1]))
    out[:, :4] = t["group"].take(groups.T)
    out[:, 4] = t["digit"].take(last)
    # where the last digit is 0 (the only digit with zeros), the groups'
    # trailing zeros count, as far as the first group that is not 0000:
    # zeros - min(zeros, 3) is 1 for 0000
    nd = np.empty(n17.size, np.intp)
    nd.fill(17)
    z = np.flatnonzero(t["zeros"].take(last))
    tz, *zeros = t["zeros"].take(groups[:, z])
    for zk in zeros:
        tz = zk + (zk - np.minimum(zk, 3)) * tz
    nd[z] = 16 - tz
    return nd


def _percent(values: np.ndarray) -> list[bytes]:
    """``"%.17g" % v`` for each value: the text of the values the kernel cannot certify."""
    return [b"%.17g" % v for v in values.tolist()]


class _CsvWriter:
    """Writes rows of floats into a binary file as ``"%.17g" % v`` prints each value.

    Rows are queued into a chunk of CHUNK_ROWS, which :meth:`flush` formats
    and writes.  Each value's digits (:func:`_scale`), from a table of
    4-digit groups, go into its row of the work buffer behind its head, and
    its exponent and separator behind the last digit that %g keeps.  Its
    text is then two pieces of the row, each copied to the end of the one
    before over the unused bytes of its last 24: the head and the digits
    before the point, and the point, the digits after it and the tail.  A
    value whose N is not certain (a subnormal, a value outside the tables, a
    tie such as 2**-25, inf, nan) has its digits written by ``%``.
    """

    def __init__(self, fh, seps: tuple[int, ...]):
        """``seps`` gives the separator after each column, as an index of _SEPARATORS."""
        self.t, self.fh, self.rows = _tables(), fh, 0
        self.block = np.empty((CHUNK_ROWS, len(seps)))
        n = self.block.size
        self.sep = np.array(seps)
        self.buf = np.empty(n * _ROW + 24, np.uint8)
        self.text = np.empty(n * 26 + 24, np.uint8)

    def add(self, columns) -> None:
        """Queue the rows of ``columns``, arrays of one length or scalars."""
        size, start = len(columns[-1]), 0
        while start < size:
            m = min(size - start, CHUNK_ROWS - self.rows)
            for j, col in enumerate(columns):
                self.block[self.rows:self.rows + m, j] = (
                    col[start:start + m] if isinstance(col, np.ndarray) else col)
            self.rows += m
            start += m
            if self.rows == CHUNK_ROWS:
                self.flush()

    def flush(self) -> None:
        """Format and write the queued rows."""
        n, t = self.rows * self.block.shape[1], self.t
        self.rows = 0
        if not n:
            return
        x = self.block.ravel()[:n]
        row, ok, n17 = _scale(x, t)
        # 0 and -0 print as "0" and "-0": e = 0 and N = 0; a value that `%`
        # prints takes e = 0 too, whose tail is the bare separator
        zero = x == 0
        row[~ok] = -_E_LO
        words = self.buf[:n * _ROW].view(np.uint64).reshape(n, _ROW // 8)
        # significant digits: 17 less the trailing zeros; the digits before the
        # point are kept
        nd = _put_digits(n17, words.view(np.uint32)[:, 2:7], t)
        key = 2 * row + np.where(np.signbit(x), 1, 0)
        words[:, 0] = t["head"].take(key)
        head = t["head_len"].take(key)
        del key
        lead = t["lead"].take(row)
        nd = np.maximum(nd, lead)
        point = np.minimum(nd - lead, t["point"].take(row))
        bad = np.flatnonzero(~(ok | zero))
        if bad.size:
            texts = _percent(x[bad])
            words[bad, 1:4] = np.array(texts, "S24").view(np.uint64).reshape(-1, 3)
            head[bad] = point[bad] = 0
            lead[bad] = nd[bad] = [len(s) for s in texts]
        # the tail behind the last digit kept; then the text's two pieces
        tail = (3 * row).reshape(-1, self.sep.size)
        tail += self.sep
        tail = tail.ravel()
        at = np.arange(8, n * _ROW, _ROW)
        np.ndarray((self.buf.size - 7,), "V8", self.buf, strides=(1,))[at + nd] = (
            t["tail"].take(tail))
        start = np.array((at - head, at + lead - point)).T.ravel()
        size = np.array((head + lead, nd - lead + point + t["tail_len"].take(tail))).T.ravel()
        at = np.cumsum(size)
        end = at[-1]
        at -= size
        text = self.text
        np.ndarray((text.size - 23,), "V24", text, strides=(1,))[at] = np.ndarray(
            (self.buf.size - 23,), "V24", self.buf, strides=(1,))[start]
        # the point over the byte before the digits after it
        text[at[1::2][np.flatnonzero(point)]] = 46
        self.fh.write(text[:end])


def write_csv(path: Path, header: str, blocks, empty_last: bool = False) -> None:
    """Write the header line, then the rows of each block.

    A block is a list of columns, one for each field of the header: arrays
    of one length, or scalars repeated down them.  With ``empty_last`` the
    last field has no column and is left empty.
    """
    fields = header.count(",") + 1
    seps = (0,) * (fields - 1) + (1,) if not empty_last else (0,) * (fields - 2) + (2,)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        writer = _CsvWriter(fh, seps)
        for columns in blocks:
            writer.add(columns)
        writer.flush()
