"""Sample rows and the two-column CSV files that hold them.

Samples are one int64 array of shape (n, 2), a row per sample: column 0
holds the symbol ``x`` (``z`` once erased), column 1 the concept. Every
function that takes samples also accepts a sequence of ``Sample`` or of
``(x, concept)`` pairs and converts it with ``as_samples``.

This module imports numpy alone, so ``pefkit generate`` writes its
samples without loading the erasure pipeline.
"""

from __future__ import annotations

import itertools
import warnings
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import ArrayLike


class Sample(NamedTuple):
    """One sample row; a sequence of these converts to the (n, 2) array form."""

    x: int
    concept: int


def as_samples(samples: ArrayLike) -> np.ndarray:
    """Samples as an (n, 2) int64 array of (x, concept) rows; arrays pass through."""
    rows = np.asarray(samples, dtype=np.int64)
    if rows.size == 0:
        return rows.reshape(0, 2)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValueError(f"expected (symbol, concept) rows, got shape {rows.shape}")
    return rows


#: Rows formatted per write; bounds the arrays ``_format_pairs`` holds at once.
CSV_WRITE_CHUNK = 1 << 14


def _read_pairs_csv(path, header: str, kind: str) -> np.ndarray:
    """Rows of a two-column int CSV; blank and whitespace-only lines are skipped.

    ``np.loadtxt`` reads the body from ``path`` in large chunks (from a
    handle it would read line by line). If that fails, or the file is a
    pipe, ``_loadtxt_pairs`` reads it line by line and alone defines what is
    accepted and every error raised: it makes the same call on the same
    lines, but skips the whitespace-only lines that the path read rejects.
    """
    with open(path, encoding="utf-8") as fh:
        if fh.seekable():
            if fh.readline().strip() == header:
                # Any failure defers to the read below, which raises again if
                # the file is bad: a ValueError on content, or numpy failing
                # to decompress a plain file named *.gz, *.bz2 or *.xz.
                try:
                    with warnings.catch_warnings():
                        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                        return as_samples(np.loadtxt(
                            path, delimiter=",", dtype=np.int64, ndmin=2, comments=None,
                            skiprows=1,
                        ))
                except Exception:
                    pass
            fh.seek(0)
        return _loadtxt_pairs(fh, header, kind)


def _loadtxt_pairs(fh, header: str, kind: str) -> np.ndarray:
    """``_read_pairs_csv`` of any file, given as a text stream, through ``np.loadtxt``.

    Lines stream into ``np.loadtxt`` one at a time, so no list of line
    strings is held and the memory used is the result array's.
    """
    first = fh.readline().strip()
    if first != header:
        raise ValueError(f"unexpected {kind} CSV header: {first!r}")
    lines = (line for line in fh if not line.isspace())
    line = next(lines, None)
    if line is None:
        return as_samples([])
    return as_samples(np.loadtxt(
        itertools.chain([line], lines), delimiter=",", dtype=np.int64, ndmin=2,
        comments=None,
    ))


def _format_pairs(chunk: np.ndarray) -> bytes:
    """``b"%d,%d\\n"`` of every row of a non-empty int64 ``(n, 2)`` array.

    Each id gets one column of a byte matrix: a sign slot, ``width`` digit
    slots and a separator. The matrix is column-major, so each digit
    position is one contiguous write, and every byte is written, with 0 in
    the unused sign and leading-digit slots. ``translate`` deletes those 0
    bytes in one pass.
    """
    v = chunk.ravel()
    neg = v < 0
    u = v.view(np.uint64)
    # Two's complement magnitude, exact for -2**63.
    rest = np.where(neg, ~u + np.uint64(1), u)
    width = len(str(int(rest.max())))
    if width <= 9:
        rest = rest.astype(np.uint32)
    ten = rest.dtype.type(10)
    out = np.empty((width + 2, v.size), np.uint8)
    out[0] = neg * np.uint8(ord("-"))
    out[-1] = np.tile(np.frombuffer(b",\n", np.uint8), len(chunk))
    for d in range(width):
        nxt = rest // ten
        digit = rest - nxt * ten
        if d:
            # A higher digit only while the magnitude has digits left, so
            # leading positions stay 0.
            digit += np.uint8(ord("0")) * (rest > 0)
        else:
            digit += rest.dtype.type(ord("0"))
        out[width - d] = digit
        rest = nxt
    return out.T.tobytes().translate(None, b"\0")


def _write_pairs_csv(rows: ArrayLike, path, header: str) -> None:
    """Header, then ``%d,%d`` per row with ``\\n`` line ends on every platform."""
    rows = as_samples(rows)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(rows), CSV_WRITE_CHUNK):
            fh.write(_format_pairs(rows[start:start + CSV_WRITE_CHUNK]))


def write_samples_csv(samples: ArrayLike, path) -> None:
    _write_pairs_csv(samples, path, "x,concept")


def read_samples_csv(path) -> np.ndarray:
    return _read_pairs_csv(path, "x,concept", "sample")


def write_erased_csv(erased: ArrayLike, path) -> None:
    _write_pairs_csv(erased, path, "z,concept")


def read_erased_csv(path) -> np.ndarray:
    return _read_pairs_csv(path, "z,concept", "erased")
