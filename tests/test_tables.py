"""The CSV writer: bytes equal to a csv.writer loop that formats floats .17g,
and the bulk float formatter equal to '%.17g' over the whole double range."""

import csv
import math
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from forcedwaves import tables
from forcedwaves.tables import write_csv

SPECIAL = [-0.0, 0.0, 5e-324, 1e-300, 1e-105, 0.1, -2.5, 1.0 / 3.0, 1e300,
           math.nan, math.inf, -math.inf]


def reference(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.17g}" if isinstance(v, float) else v
                        for v in row])


def test_float_columns_match_reference(tmp_path):
    z = np.linspace(-3.0, 5.0, len(SPECIAL))
    v = np.array(SPECIAL)
    write_csv(tmp_path / "a.csv", ["z", "v"], [z, v])
    reference(tmp_path / "b.csv", ["z", "v"], zip(z, v))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_constant_column_matches_reference(tmp_path):
    t = np.float64(12.345678901234567)
    u = np.array(SPECIAL)
    write_csv(tmp_path / "a.csv", ["t", "u"], [t, u])
    reference(tmp_path / "b.csv", ["t", "u"], [(t, x) for x in u])
    data = (tmp_path / "a.csv").read_bytes()
    assert data == (tmp_path / "b.csv").read_bytes()
    assert data.endswith(b"12.345678901234567,-inf\r\n")


def test_mixed_cells_match_reference(tmp_path):
    rows = [
        (1, True, None, "plain", -0.0),
        (2, False, "", 'has, comma', 5e-324),
        (3, np.True_, np.int64(7), 'has "quote"', math.nan),
        (4, "", 1e-300, "has\nnewline", math.inf),
        (5, True, -math.inf, "", np.float64(0.1)),
    ]
    header = ["i", "flag", "maybe", "note", "x"]
    write_csv(tmp_path / "a.csv", header,
              [list(col) for col in zip(*rows)])
    reference(tmp_path / "b.csv", header, rows)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_one_column_empty_string(tmp_path):
    write_csv(tmp_path / "a.csv", ["note"], [["", "x"]])
    reference(tmp_path / "b.csv", ["note"], [("",), ("x",)])
    data = (tmp_path / "a.csv").read_bytes()
    assert data == (tmp_path / "b.csv").read_bytes()
    assert data == b'note\r\n""\r\nx\r\n'


def test_rows_stop_at_shortest_column(tmp_path):
    write_csv(tmp_path / "a.csv", ["a", "b"],
              [np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0])])
    assert (tmp_path / "a.csv").read_bytes() == b"a,b\r\n1,4\r\n2,5\r\n"


def test_long_table_matches_reference(tmp_path):
    n = 10_001
    mag = np.logspace(-320.0, 300.0, n)
    mag[::800] = np.resize(SPECIAL, mag[::800].size)
    v = np.where(np.arange(n) % 3 == 1, -mag, mag)
    z = np.linspace(-60.0, 60.0, n + 5)
    t = np.float64(0.1)
    w = v[::-1][: n - 7]  # a strided view
    write_csv(tmp_path / "a.csv", ["z", "v", "t", "w"], [z, v, t, w])
    reference(tmp_path / "b.csv", ["z", "v", "t", "w"],
              [(a, b, t, d) for a, b, d in zip(z, v, w)])
    data = (tmp_path / "a.csv").read_bytes()
    assert data == (tmp_path / "b.csv").read_bytes()
    assert data.count(b"\r\n") == 1 + n - 7


# ---------------------------------------------------------------------------
# the bulk formatter against '%.17g' itself

_FLOAT_ROW = "%.17g\r\n"


def test_random_bit_patterns_match_percent(tmp_path):
    # 10^6 float64 bit patterns: both signs, subnormals, nan and inf
    rng = np.random.default_rng(20261020)
    for _ in range(4):
        x = rng.integers(0, 2 ** 64, 250_000, dtype=np.uint64).view(np.float64)
        write_csv(tmp_path / "a.csv", ["x"], [x])
        want = "x\r\n" + "".join(_FLOAT_ROW % v for v in x.tolist())
        assert (tmp_path / "a.csv").read_bytes() == want.encode()


def _halfway(rng, size):
    """Doubles nearest to 18-digit decimals that end in 5, the 17-digit
    rounding ties, over the whole exponent range."""
    d = rng.integers(10 ** 16, 10 ** 17, size)
    e = rng.integers(-340, 290, size)
    return np.array([float(f"{a}5e{b}") for a, b in zip(d.tolist(), e.tolist())])


def test_powers_of_ten_and_halfway_values_match_percent(tmp_path):
    rng = np.random.default_rng(7)
    pw = np.array([float(f"1e{k}") for k in range(-323, 309)])
    # exact ties: n + 1/4 and n + 3/4 carry 18 digits for 10^15 <= n < 2^51;
    # so do j 2^-25 and j 2^-24 (j odd), scaled by 10^24 and 10^23, which
    # need both table parts
    n = rng.integers(10 ** 15, 2 ** 51, 500).astype(np.float64)
    j = np.arange(1.0, 40.0, 2.0)
    x = np.concatenate([pw, _halfway(rng, 20_000), n + 0.25, n + 0.75,
                        j * 2.0 ** -25, j * 2.0 ** -24,
                        [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                         1.0 + 2.0 ** -17, 914467203128781.125]])
    with np.errstate(over="ignore"):  # past the largest double: inf
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
    x = np.concatenate([x, -x])
    write_csv(tmp_path / "a.csv", ["x"], [x])
    want = "x\r\n" + "".join(_FLOAT_ROW % v for v in x.tolist())
    assert (tmp_path / "a.csv").read_bytes() == want.encode()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.floats(), st.floats(width=32)), min_size=1,
                max_size=40),
       st.floats())
def test_any_floats_match_reference(tmp_path, rows, t):
    # nan, inf, -0.0 and subnormals included; a float32 column and a
    # constant column ride along
    a = np.array([r[0] for r in rows])
    b = np.array([r[1] for r in rows], dtype=np.float32)
    write_csv(tmp_path / "a.csv", ["a", "t", "b"], [a, t, b])
    reference(tmp_path / "b.csv", ["a", "t", "b"],
              [(x, t, float(y)) for x, y in zip(a.tolist(), b.tolist())])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# doubles whose y = |x| 10^(16 - e) lies within 2^-45 of a half-integer
# without being one (found by lattice reduction on M 5^q mod 2^s, q 23-45,
# where 10^q needs both table parts): rint of the computed r rounds 4 of
# them the wrong way, so they must go to '%'
NEAR_TIES = [
    "0x1.0e337464faa08p-59", "0x1.51c0517e3948ap-56", "0x1.5f42e41cdf6a4p-58",
    "0x1.60538be0052aep-48", "0x1.63036bb2590dcp-53", "0x1.6ba4f8cc68f05p-52",
    "0x1.6dcab8b0d226bp-43", "0x1.7386c00ad89cbp-55", "0x1.76b7ddce703cbp-51",
    "0x1.80a6f04aa9c46p-52", "0x1.81cac2d077891p-53", "0x1.83184832a12e3p-51",
    "0x1.843c1ab86ef2ep-51", "0x1.8a2dc8002af29p-48", "0x1.8ea83d09616cbp-49",
    "0x1.9516fa25d65e8p-48", "0x1.952bd7f431a65p-49", "0x1.9baf6a1ea730cp-52",
    "0x1.9d79ff5589c80p-49", "0x1.b7139d241744dp-55", "0x1.fc6d66042d10dp-61",
]


def _fallback(x):
    """Indices of the cells of x that the bulk formatter leaves to '%'."""
    cells = np.empty((tables._CELL, x.size), np.uint8)
    return tables._fill(x, cells)


def test_near_ties_go_to_percent(tmp_path):
    x = np.array([float.fromhex(h) for h in NEAR_TIES])
    x = np.concatenate([x, -x])
    assert _fallback(x).size == x.size
    write_csv(tmp_path / "a.csv", ["x"], [x])
    want = "x\r\n" + "".join(_FLOAT_ROW % v for v in x.tolist())
    assert (tmp_path / "a.csv").read_bytes() == want.encode()


def test_tables_are_exact_over_their_range():
    # exact fractions, for every binade [2^(E-1), 2^E) of the doubles: the
    # threshold decides |x| >= 10^(e0+1) exactly, the binade holds no other
    # power of ten, and fh + fl is 2^E 10^(16 - e) to 2^-106
    t = tables._tables()
    ten = Fraction(10)
    for i, E in enumerate(range(tables._E_LO, tables._E_HI + 1)):
        bottom, top = Fraction(2) ** (E - 1), Fraction(2) ** E
        e0, thr = int(t.e0[i]), float(t.thr[i])
        assert ten ** e0 <= bottom and ten ** (e0 + 2) >= top
        if thr < 1.0:
            ratio = ten ** (e0 + 1) / top
            assert Fraction(np.nextafter(thr, 0.0)) < ratio <= Fraction(thr)
        else:
            assert ten ** (e0 + 1) >= top
        for b in (0, 1):
            F = top * ten ** (16 - e0 - b)
            fh, fl = Fraction(float(t.fh[2 * i + b])), Fraction(float(t.fl[2 * i + b]))
            assert abs(F - fh - fl) <= fh / 2 ** 106


def test_waves_are_formatted_without_fallback(alg3_minimal):
    # phi = 1.0 on the plateau is an exact power of ten: no grid node and no
    # wave value needs '%'
    for x in (alg3_minimal.grid, alg3_minimal.phi):
        assert _fallback(x).size == 0
    assert np.count_nonzero(alg3_minimal.phi == 1.0) > 1000
