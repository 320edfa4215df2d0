"""The one writer behind every CSV data file.

Files use csv's default dialect (comma, minimal quoting, "\\r\\n" line
endings), and every float is written as .17g, which reads back bit for bit.
"""

from __future__ import annotations

import csv
from typing import Sequence

import numpy as np

__all__ = ["write_csv"]

_FLOAT = "{:.17g}"


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write `header`, then one row per cell of the columns (rows stop at
    the shortest column).  A table of float arrays is streamed through one
    row-format string, each column converted to Python floats once; a float
    scalar there is a constant column, formatted once.  Any other table goes
    through csv.writer, float cells as .17g and None as an empty cell.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        seqs = [c for c in columns if not isinstance(c, float)]
        if all(isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in seqs):
            row = ",".join(_FLOAT.format(c) if isinstance(c, float) else _FLOAT
                           for c in columns) + "\r\n"
            fh.writelines(map(row.format, *(c.tolist() for c in seqs)))
        else:
            w.writerows(zip(*(
                [_FLOAT.format(v) if isinstance(v, float) else v
                 for v in (c.tolist() if isinstance(c, np.ndarray) else c)]
                for c in columns)))
