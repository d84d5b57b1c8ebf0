"""Small shared helpers for stable file output.

``write_csv`` is the one CSV table writer: the grid files of ``ingest``,
the CLI's ``forecast.csv`` and ``comparison.csv`` and the ``explain``
tables are each one call to it. It ends every line with CRLF and quotes
nothing, so no cell may hold a comma, a quote or a line break.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import ShapeError

# The ``%`` format of every float the toolkit writes: 17 significant digits,
# enough for bit-stable float round trips.
FLOAT_FORMAT = "%.17g"
BLOCK_ROWS = 1024


def write_csv(path, header, row_format: str, columns) -> None:
    """Write a CSV file: the ``header`` names, then row k of the equal-length
    ``columns`` (lists, or numpy arrays) as ``row_format % (c[k] for c in
    columns)``, every line ended by CRLF. Each block of BLOCK_ROWS rows is
    one ``%`` format of its interleaved cells, so memory stays flat. No cell
    may hold a comma, a quote or a line break: nothing is quoted."""
    n, width = len(columns[0]), len(columns)
    if any(len(column) != n for column in columns):
        raise ShapeError(f"cannot write {path}: columns differ in length")
    line = row_format + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n, BLOCK_ROWS):
            rows = min(BLOCK_ROWS, n - lo)
            cells = [None] * (rows * width)
            for j, column in enumerate(columns):
                block = column[lo:lo + rows]
                cells[j::width] = block.tolist() if isinstance(block, np.ndarray) else block
            fh.write((line * rows) % tuple(cells))


def config_hash(doc) -> str:
    """SHA-256 of ``doc`` as canonical JSON: sorted keys, no spaces."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
