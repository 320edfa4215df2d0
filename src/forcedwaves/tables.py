"""The one writer behind every CSV data file.

Files use csv's default dialect (comma, minimal quoting, "\\r\\n" line
endings), and every float is written as Python's '%.17g', which reads back
bit for bit.

A table of float columns is formatted in bulk by numpy, and the bytes are
those of '%.17g' for every cell.  The argument, for finite x != 0:

- Exponent.  np.frexp gives |x| = m * 2**E with 1/2 <= m < 1.  The binade
  [2**(E-1), 2**E) holds at most one power of ten 10**t, and the table
  holds the smallest double thr >= 10**t / 2**E.  As m is a double,
  m >= thr exactly when |x| >= 10**t, so the decimal exponent
  e = floor(log10 |x|) is exact and y = |x| * 10**(16 - e) lies in
  [10**16, 10**17).
- Digits.  y = m * F with F = 2**E * 10**(16 - e), held as fh + fl
  (fh = RN(F), fl = RN(F - fh), so |F - fh - fl| <= 2**-106 fh).  Dekker's
  product splits m * fh into p + err exactly; p >= 2**53 is an integer.
  With r = err + m * fl, |y - (p + r)| < 3 * 2**-49 < 2**-47, since
  y < 2**57: each of the table error, the rounding of m * fl and that of
  the sum adds at most 2**-49.  So d = p + rint(r) is y rounded to an
  integer, the 17 digits '%' rounds to, unless y lies within 2**-47 of a
  half-integer.  A y that rounds up to 10**17 becomes 10**16 and e + 1,
  as '%' writes it.  No step depends on how close a double comes to a
  power of ten: the exponent is an exact comparison, and an exact power
  (phi = 1.0 on the plateau) gives y = 10**16 and r near 0.
- Fallback.  A cell with |r - rint(r)| > 1/2 - 2**-30, a window 2**17
  times the error, and every nan or inf is formatted by '%.17g' % x
  itself.  So Python's '%' stays the definition of every cell: the bulk
  path writes only digits it has proved equal.  Exact ties (x = 2**-17 + 1
  is one) and doubles within 2**-45 of one (they exist, and rint(r) gets
  some wrong) land in the window; the default grid and solved waves send
  no cell there.
- Layout.  '%g' rules: exponent form when e < -4 or e >= 17, trailing
  zeros and a bare point dropped, the exponent signed with at least two
  digits; zero is '0' or '-0'.  Each cell gets fixed slots, one byte each
  (sign, the '0.000' prefix, 17 digits with the point, the exponent), in a
  slot-major uint8 matrix, 0 where a cell has no byte; one
  bytes.translate drops the zeros.
"""

from __future__ import annotations

import csv
import functools
from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["write_csv"]

_FLOAT = "%.17g"

_SPLIT = 134217729.0            # 2**27 + 1, Veltkamp's splitting constant
_TIE = 0.5 - 2.0 ** -30         # |r - rint(r)| above this goes to '%'
_E_LO, _E_HI = -1073, 1024      # np.frexp exponents of nonzero finite doubles
_K_LO, _K_HI = -324, 340        # powers of ten the tables are built from
_DEC_HI = 308                   # decimal exponent of the largest double
_CELL = 29                      # slots: sign 1, prefix 5, digits 18, exponent 5
_ROW = np.arange(18, dtype=np.int8)[:, None]


class _Tables(NamedTuple):
    thr: np.ndarray     # per binade: m >= thr  <=>  |x| >= its power of ten
    e0: np.ndarray      # per binade: the decimal exponent below that power
    fh: np.ndarray      # per (binade, e - e0): 2**E * 10**(16 - e), high part
    fl: np.ndarray      # ... and low part
    ip: np.ndarray      # per e: index of the last integer digit (-1: none)
    prefix: np.ndarray  # per e: "0.", "0.0", "0.00", "0.000" or empty
    suffix: np.ndarray  # per e: "e+NN", "e-NNN" or empty, 5 slots


@functools.cache
def _tables() -> _Tables:
    """Build the lookup tables on first use (a few ms), not at import."""
    ks = range(_K_LO, _K_HI + 1)
    s = np.empty(len(ks), np.int64)
    h = np.empty(len(ks))
    lo = np.empty(len(ks))
    for i, k in enumerate(ks):          # 10**k = (h + lo) * 2**s, 1 <= h < 2
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        b = num.bit_length() - den.bit_length()
        if (num << max(-b, 0)) < (den << max(b, 0)):
            b -= 1
        num <<= max(-b, 0)
        den <<= max(b, 0)
        s[i], h[i] = b, num / den
        hn, hd = h[i].as_integer_ratio()
        lo[i] = (num * hd - hn * den) / (den * hd)
    E = np.arange(_E_LO, _E_HI + 1)
    binade = s[:_DEC_HI + 1 - _K_LO] + 1  # np.frexp exponent of each 10**e
    j = np.searchsorted(binade, E, side="right") - 1
    holds = binade[j] == E
    e0 = j + _K_LO - holds
    thr = np.where(holds, np.where(lo[j] > 0, np.nextafter(h[j] / 2, 1.0),
                                   h[j] / 2), 1.0)
    k = 16 - e0[:, None] - np.arange(2) - _K_LO
    fh = np.ldexp(h[k], s[k] + E[:, None]).ravel()
    fl = np.ldexp(lo[k], s[k] + E[:, None]).ravel()

    es = range(_K_LO, _DEC_HI + 1)
    ip = np.array([-1 if -4 <= e < 0 else e if 0 <= e < 17 else 0
                   for e in es], np.int8)
    prefix = np.zeros((len(es), 8), np.uint8)
    suffix = np.zeros((len(es), 8), np.uint8)
    for i, e in enumerate(es):
        if -4 <= e < 0:
            text = b"0." + b"0" * (-e - 1)
            prefix[i, :len(text)] = list(text)
        elif not 0 <= e < 17:
            text = b"e%+03d" % e
            suffix[i, :2] = list(text[:2])
            suffix[i, 7 - len(text):5] = list(text[2:])
    return _Tables(thr, e0, fh, fl, ip,
                   prefix.view(np.uint64).ravel(), suffix.view(np.uint64).ravel())


def _fill(x: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Write '%.17g' of each float of x into the (29, len(x)) uint8 slot
    rows `cells`, one byte per slot and 0 where a cell has no byte.
    Returns the indices of the cells that '%' formatted.
    """
    t = _tables()
    n = x.size
    a = np.abs(x)
    bad = ~np.isfinite(a)
    a[bad] = 1.0
    m, E = np.frexp(a)
    iE = E.astype(np.intp)
    iE -= _E_LO
    big = m >= t.thr.take(iE)
    e = t.e0.take(iE)
    e += big
    iE *= 2
    iE += big
    fh = t.fh.take(iE)
    p = m * fh                          # m * fh = p + err exactly (Dekker)
    c = m * _SPLIT
    mh = c - (c - m)
    ml = m - mh
    np.multiply(fh, _SPLIT, out=c)
    hh = c - (c - fh)
    hl = fh - hh
    r = mh * hh
    r -= p
    r += mh * hl
    r += ml * hh
    r += ml * hl                        # r = err
    r += m * t.fl.take(iE)
    rr = np.rint(r)
    fall = np.abs(r - rr) > _TIE
    fall |= bad
    d = p.astype(np.int64)
    d += rr.astype(np.int64)
    top = d == 10 ** 17
    d[top] = 10 ** 16
    e += top
    e[m == 0] = 0                       # zero: '0', laid out as 1 <= |x| < 10

    # digits of d: 8-digit halves, 4-digit quarters, pairs, single digits
    A = d // 100_000_000
    S = np.empty((2, n), np.uint32)
    S[1] = d - A * 100_000_000
    D = np.empty((18, n), np.uint8)
    Q = A // 100_000_000
    D[0] = Q
    S[0] = A - Q * 100_000_000
    C = np.empty((4, n), np.uint16)
    Q = S // 10_000
    C[0::2] = Q
    C[1::2] = S - Q * 10_000
    P = np.empty((8, n), np.uint8)
    Q = C // 100
    P[0::2] = Q
    P[1::2] = C - Q * 100
    Q = P // 10
    D[1:17:2] = Q
    D[2:17:2] = P - Q * 10
    D[17] = 0
    last = ((D != 0) * _ROW).max(axis=0)
    e -= _K_LO
    ip = t.ip.take(e)
    D += np.uint8(48)
    D *= _ROW <= np.maximum(ip, last)
    # the point goes after digit ip when a fraction digit is left
    place = np.where((last > ip) & (ip >= 0), ip, 17)
    cells[0] = np.signbit(x)
    cells[0] *= 45
    cells[1:6] = t.prefix.take(e).view(np.uint8).reshape(n, 8)[:, :5].T
    digits = cells[6:24]
    digits[1:] = D[:17]
    np.copyto(digits, 46, where=_ROW == place + 1)
    np.copyto(digits, D, where=_ROW <= place)
    cells[24:] = t.suffix.take(e).view(np.uint8).reshape(n, 8)[:, :5].T
    fall = np.flatnonzero(fall)
    for i in fall:
        text = (_FLOAT % x[i]).encode()
        cells[:, i] = 0
        cells[:len(text), i] = list(text)
    return fall


def _float_rows(columns: Sequence, n: int) -> bytes:
    """The first n rows of a table of float arrays and float scalars (a
    constant column, formatted once) as CSV bytes.
    """
    fixed = [(_FLOAT % c).encode() if isinstance(c, float) else b"\0" * _CELL
             for c in columns]
    fixed = [f + b"," for f in fixed[:-1]] + [fixed[-1] + b"\r\n"]
    slots = np.empty((sum(map(len, fixed)), n), np.uint8)
    at = 0
    for c, f in zip(columns, fixed):
        slots[at:at + len(f)] = np.frombuffer(f, np.uint8)[:, None]
        if not isinstance(c, float):
            _fill(np.asarray(c[:n], np.float64), slots[at:at + _CELL])
        at += len(f)
    slots = slots[slots.any(axis=1)]
    return slots.T.tobytes().translate(None, b"\0")


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write `header`, then one row per cell of the columns (rows stop at
    the shortest column).  A table of float arrays is formatted in bulk
    (see the module docstring); a float scalar there is a constant column.
    Any other table goes through csv.writer, float cells as .17g and None
    as an empty cell.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        seqs = [c for c in columns if not isinstance(c, float)]
        if all(isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in seqs):
            n = min(len(c) for c in seqs)
            fh.write(_float_rows(columns, n).decode("ascii"))
        else:
            w.writerows(zip(*(
                [_FLOAT % v if isinstance(v, float) else v
                 for v in (c.tolist() if isinstance(c, np.ndarray) else c)]
                for c in columns)))
