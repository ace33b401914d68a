"""Empirical and analytic measurement of erasure runs.

Plug-in mutual information from joint counts, total-variation erasure
checks, tradeoff-point assembly against the funnel envelope, and CSV
emission for plotting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

import numpy as np

from .dist import Categorical, FunnelCurve, GroupedData
from .pef import ErasureFunction, ErasureReport, Sample, analyze

_LN2 = float(np.log(2.0))


class AlignmentError(ValueError):
    """Inputs do not line up: erased vs original rows, or symbol sets."""


def check_symbols_known(
    symbols: Iterable[int], known: Collection[int], what: str, where: str
) -> None:
    """Raise AlignmentError if any of ``symbols`` is missing from ``known``."""
    missing = sorted(set(symbols).difference(known))
    if missing:
        raise AlignmentError(
            f"{len(missing)} symbol(s) of {what} missing from {where}, "
            f"first {missing[0]}"
        )


@dataclass(frozen=True, eq=False)
class JointCounts:
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    counts: np.ndarray
    n: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (len(self.rows), len(self.cols)):
            raise ValueError("counts shape must match row/col labels")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        total = int(counts.sum())
        if total == 0:
            raise ValueError("total count must be positive")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", total)

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[int, int]]) -> "JointCounts":
        rows = sorted({a for a, _ in pairs})
        cols = sorted({b for _, b in pairs})
        ri = {r: i for i, r in enumerate(rows)}
        ci = {c: i for i, c in enumerate(cols)}
        counts = np.zeros((len(rows), len(cols)), dtype=np.int64)
        for a, b in pairs:
            counts[ri[a], ci[b]] += 1
        return cls(tuple(rows), tuple(cols), counts, int(counts.sum()))


@dataclass(frozen=True)
class TradeoffPoint:
    utility_bits: float
    privacy_bits: float
    method: str
    mode: str  # "analytic" | "plugin"
    raw_utility_bits: float | None = None
    raw_privacy_bits: float | None = None

    def __post_init__(self):
        # Values are clamped at zero for reporting; raw values are retained.
        if self.raw_utility_bits is None:
            object.__setattr__(self, "raw_utility_bits", self.utility_bits)
        if self.raw_privacy_bits is None:
            object.__setattr__(self, "raw_privacy_bits", self.privacy_bits)
        object.__setattr__(self, "utility_bits", max(0.0, self.utility_bits))
        object.__setattr__(self, "privacy_bits", max(0.0, self.privacy_bits))


def plugin_mi(j: JointCounts, miller_madow: bool = False) -> float:
    """Plug-in mutual information of a contingency table, in bits."""
    p = j.counts / j.n
    pr = p.sum(axis=1)
    pc = p.sum(axis=0)
    mask = p > 0
    ratio = p[mask] / np.outer(pr, pc)[mask]
    val = float(np.sum(p[mask] * np.log2(ratio)))
    if miller_madow:
        r = int(np.sum(pr > 0))
        c = int(np.sum(pc > 0))
        val -= (r - 1) * (c - 1) / (2.0 * j.n * _LN2)
    return max(0.0, val)


def tv_distance(p: Categorical, q: Categorical) -> float:
    """Half the L1 distance, over the union of supports with zero fill."""
    symbols = sorted(set(p.support) | set(q.support))
    pp = dict(zip(p.support, p.probs.tolist()))
    qq = dict(zip(q.support, q.probs.tolist()))
    diff = sum(abs(pp.get(s, 0.0) - qq.get(s, 0.0)) for s in symbols)
    return 0.5 * diff


def empirical_dist(values: Sequence[int]) -> Categorical:
    symbols = sorted(set(values))
    counts = {s: 0 for s in symbols}
    for v in values:
        counts[v] += 1
    total = len(values)
    return Categorical(tuple(symbols), np.array([counts[s] / total for s in symbols]))


def evaluate_run(
    true_dists: GroupedData,
    f: ErasureFunction,
    erased: Sequence[tuple[int, int]],
    original: Sequence[Sample],
) -> tuple[list[TradeoffPoint], list[float], ErasureReport]:
    """Analytic and plug-in tradeoff points plus per-group TV erasure checks."""
    if len(erased) != len(original):
        raise AlignmentError(
            f"{len(erased)} erased vs {len(original)} original samples"
        )
    for (z, ce), s in zip(erased, original):
        if ce != s.concept:
            raise AlignmentError("concept labels of erased/original rows differ")
    check_symbols_known(
        (s for d in true_dists.dists for s in d.support),
        f.input_symbols(),
        "the distributions",
        "the erasure function",
    )
    report = analyze(f, true_dists)
    points = [
        TradeoffPoint(
            report.i_zx_analytic, report.i_za_analytic, "pef", "analytic"
        )
    ]
    za = JointCounts.from_pairs([(z, c) for (z, c), _ in zip(erased, original)])
    zx = JointCounts.from_pairs(
        [(z, s.x) for (z, _), s in zip(erased, original)]
    )
    points.append(TradeoffPoint(plugin_mi(zx), plugin_mi(za), "pef", "plugin"))

    pooled = empirical_dist([z for z, _ in erased])
    tvs = []
    for concept in true_dists.concepts:
        zs = [z for (z, c) in erased if c == concept]
        tvs.append(tv_distance(empirical_dist(zs), pooled) if zs else 1.0)
    return points, tvs, report


def emit_tradeoff_csv(
    points: Sequence[TradeoffPoint], curve: FunnelCurve, out_dir
) -> None:
    """Write funnel.csv (grid) and tradeoff.csv (points) under out_dir."""
    import os

    curve.write_csv(os.path.join(out_dir, "funnel.csv"))
    with open(os.path.join(out_dir, "tradeoff.csv"), "w") as fh:
        fh.write("method,mode,utility_bits,privacy_bits\n")
        for p in points:
            fh.write(f"{p.method},{p.mode},{p.utility_bits!r},{p.privacy_bits!r}\n")


def write_report_json(
    report: ErasureReport, tvs: Sequence[float], points: Sequence[TradeoffPoint], path
) -> None:
    obj = {
        "report": report.to_json(),
        "tv_per_group": [float(t) for t in tvs],
        "points": [
            {
                "method": p.method,
                "mode": p.mode,
                "utility_bits": p.utility_bits,
                "privacy_bits": p.privacy_bits,
                "raw_utility_bits": p.raw_utility_bits,
                "raw_privacy_bits": p.raw_privacy_bits,
            }
            for p in points
        ],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
