"""The CSV writer: bytes equal to a csv.writer loop that formats floats .17g."""

import csv
import math

import numpy as np

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
