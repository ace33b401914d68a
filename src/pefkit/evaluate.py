"""Empirical and analytic measurement of erasure runs.

Plug-in mutual information from joint counts, total-variation erasure
checks, tradeoff-point assembly against the funnel envelope, and CSV
emission for plotting. Joint counts code the two columns into one array
of cell codes, a chunk at a time, and count it in place with one
``bincount`` where the cells fit the rows, and the per-group TV checks
are read off the (z, concept) counts, so ``evaluate`` makes no per-row
sort of dense ids and holds one code per row beyond its inputs.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ._kernels import chunks, symbol_coder, symbol_codes, symbol_counts
from .dist import (
    AlignmentError,
    Categorical,
    DataConstraintError,
    FunnelCurve,
    GroupedData,
    _column,
    _freeze,
    check_symbols_known,
    write_csv,
    write_json,
)
from .pef import ErasureFunction, ErasureReport, analyze
from .sample_io import as_samples

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

_LN2 = float(np.log(2.0))


@dataclass(frozen=True, eq=False)
class JointCounts:
    """The non-zero cells of a contingency table.

    ``cells`` holds one (row index, col index) pair per cell into the
    sorted labels ``rows`` and ``cols`` (read-only int64 arrays), in
    ascending row-major order, and ``counts`` the count of each cell, so a
    table built from n pairs stores at most n cells however many labels it
    has.
    """

    rows: np.ndarray
    cols: np.ndarray
    cells: np.ndarray
    counts: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        rows, cols = _column(self.rows, "rows"), _column(self.cols, "cols")
        cells = np.asarray(self.cells, dtype=np.int64).reshape(-1, 2)
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (len(cells),):
            raise ValueError("need one count per cell")
        r, c = cells[:, 0], cells[:, 1]
        if np.any((r < 0) | (r >= len(rows)) | (c < 0) | (c >= len(cols))):
            raise ValueError("cell indices must fall inside the row/col labels")
        if np.any(np.diff(r * len(cols) + c) <= 0):
            raise ValueError("cells must be distinct and in ascending row-major order")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        total = int(counts.sum())
        if total == 0:
            raise ValueError("total count must be positive")
        _freeze(self, rows=rows, cols=cols, cells=cells, counts=counts, n=total)

    @classmethod
    def from_pairs(cls, pairs: ArrayLike, *, col_labels: ArrayLike | None = None) -> "JointCounts":
        """Count (row label, col label) pairs, given as an (n, 2) array or a list.

        With ``col_labels``, ``pairs`` holds the n row labels alone and
        ``col_labels`` the n col labels, so two columns of different arrays
        are counted without being stacked into one. Labels and cells come
        out sorted, as from ``np.unique``. The row labels are coded into one
        int64 array by ``symbol_codes``; the col labels' distinct ids come
        from ``symbol_counts``, and each chunk of their codes is added into
        that array in place, so it ends holding each pair's cell code. It is
        then counted in place: by one ``bincount`` where the cells span at
        most the rows, else sorted and its runs counted. So beyond its
        inputs this holds one code per pair, the label tables and
        fixed-size chunks, never a second full-length array.
        """
        if col_labels is None:
            pairs = as_samples(pairs)
            pairs, col_labels = pairs[:, 0], pairs[:, 1]
        elif np.ndim(pairs) != 1 or np.shape(pairs) != np.shape(col_labels):
            raise ValueError("row and col labels must be two columns of one length")
        col_labels = np.asarray(col_labels, dtype=np.int64)
        rows, codes = symbol_codes(pairs)
        cols = symbol_counts(col_labels)[0]
        col_code = symbol_coder(cols, len(codes), known=True)
        for part in chunks(len(codes)):
            cell = codes[part]
            cell *= len(cols)
            cell += col_code(col_labels[part])
        codes, counts = symbol_counts(codes, overwrite=True)
        cells = np.column_stack(np.divmod(codes, len(cols)))
        return cls(rows, cols, cells, counts)


@dataclass(frozen=True)
class TradeoffPoint:
    utility_bits: float
    privacy_bits: float
    method: str
    mode: str  # "analytic" | "plugin"

    def __post_init__(self):
        _freeze(self, utility_bits=float(max(0.0, self.utility_bits)),
                privacy_bits=float(max(0.0, self.privacy_bits)))


def plugin_mi(j: JointCounts, miller_madow: bool = False) -> float:
    """Plug-in mutual information of a contingency table, in bits.

    Sums over the non-zero cells only; p(r,c) / (p(r) p(c)) is formed from
    the integer counts as n(r,c) n / (n(r) n(c)).
    """
    r, c = j.cells[:, 0], j.cells[:, 1]
    n_r = np.bincount(r, weights=j.counts, minlength=len(j.rows))
    n_c = np.bincount(c, weights=j.counts, minlength=len(j.cols))
    keep = j.counts > 0
    p = j.counts[keep] / j.n
    ratio = j.counts[keep] * float(j.n) / (n_r[r[keep]] * n_c[c[keep]])
    val = float(np.sum(p * np.log2(ratio)))
    if miller_madow:
        n_rows, n_cols = np.count_nonzero(n_r), np.count_nonzero(n_c)
        val -= (n_rows - 1) * (n_cols - 1) / (2.0 * j.n * _LN2)
    return max(0.0, val)


def tv_distance(p: Categorical, q: Categorical) -> float:
    """Half the L1 distance, over the union of supports with zero fill."""
    symbols = sorted(set(p.support) | set(q.support))
    pp = dict(zip(p.support, p.probs.tolist()))
    qq = dict(zip(q.support, q.probs.tolist()))
    diff = sum(abs(pp.get(s, 0.0) - qq.get(s, 0.0)) for s in symbols)
    return 0.5 * diff


def empirical_dist(values: ArrayLike) -> Categorical:
    symbols, counts = np.unique(np.asarray(values, dtype=np.int64), return_counts=True)
    return Categorical(symbols, counts / counts.sum())


def evaluate_run(
    true_dists: GroupedData,
    f: ErasureFunction,
    erased: ArrayLike,
    original: ArrayLike,
) -> tuple[list[TradeoffPoint], list[float], ErasureReport]:
    """Analytic and plug-in tradeoff points plus per-group TV erasure checks.

    ``erased`` holds (z, concept) rows and ``original`` (x, concept) rows;
    DataConstraintError if they hold none.
    """
    erased, original = as_samples(erased), as_samples(original)
    if len(erased) != len(original):
        raise AlignmentError(
            f"{len(erased)} erased vs {len(original)} original samples"
        )
    if not len(erased):
        raise DataConstraintError("empty sample set")
    z, concept = erased[:, 0], erased[:, 1]
    if not np.array_equal(concept, original[:, 1]):
        raise AlignmentError("concept labels of erased/original rows differ")
    check_symbols_known(
        true_dists.symbols,
        f.ids,
        "the distributions",
        "the erasure function",
    )
    report = analyze(f, true_dists)
    points = [
        TradeoffPoint(
            report.i_zx_analytic, report.i_za_analytic, "pef", "analytic"
        )
    ]
    za = JointCounts.from_pairs(erased)
    check_symbols_known(
        za.rows, f.output_support, "the erased samples",
        "the output_support of the erasure function",
    )
    zx = JointCounts.from_pairs(z, col_labels=original[:, 0])
    points.append(TradeoffPoint(plugin_mi(zx), plugin_mi(za), "pef", "plugin"))
    return points, _group_tvs(za, true_dists.concepts), report


def _group_tvs(za: JointCounts, concepts: np.ndarray) -> list[float]:
    """Each concept's ``tv_distance(empirical_dist(z | concept), empirical_dist(z))``.

    Read off the (z, concept) counts with the same values: each probability
    is a count over its total, and the absolute differences are summed left
    to right over the ascending z labels by the same ``sum``. A concept
    with no rows gets 1.0.
    """
    r, c = za.cells[:, 0], za.cells[:, 1]
    pooled = np.bincount(r, weights=za.counts, minlength=len(za.rows)) / za.n
    tvs = []
    for k in symbol_codes(concepts, za.cols)[1]:
        if k < 0:
            tvs.append(1.0)
            continue
        mine = c == k
        p = np.zeros(len(za.rows))
        p[r[mine]] = za.counts[mine] / za.counts[mine].sum()
        tvs.append(0.5 * sum(np.abs(p - pooled).tolist()))
    return tvs


def emit_tradeoff_csv(
    points: Sequence[TradeoffPoint], curve: FunnelCurve, out_dir
) -> None:
    """Write funnel.csv (grid) and tradeoff.csv (points) under out_dir."""
    curve.write_csv(os.path.join(out_dir, "funnel.csv"))
    write_csv(os.path.join(out_dir, "tradeoff.csv"),
              ("method", "mode", "utility_bits", "privacy_bits"),
              ((p.method, p.mode, p.utility_bits, p.privacy_bits) for p in points))


def write_report_json(
    report: ErasureReport, tvs: Sequence[float], points: Sequence[TradeoffPoint], path
) -> None:
    obj = {
        "report": report.to_json(),
        "tv_per_group": [float(t) for t in tvs],
        "points": [asdict(p) for p in points],
    }
    write_json(obj, path)
