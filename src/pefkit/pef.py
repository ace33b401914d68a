"""Concept erasure pipeline.

Estimates per-group distributions from samples, branches on permutation
equality, constructs either the deterministic bijective erasure function or
the stochastic coupling-based one, and applies it to data. The analytic
report (privacy and utility in bits) is computed from the constructed maps
and the group distributions, not from re-sampling.

Samples are one int64 array of shape (n, 2), a row per sample: column 0
holds the symbol ``x`` (``z`` once erased), column 1 the concept. Every
function that takes samples also accepts a sequence of ``Sample`` or of
``(x, concept)`` pairs and converts it with ``as_samples``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from numpy.typing import ArrayLike

from ._kernels import row_searchsorted
from .coupling import conditional_rows, greedy_mec
from .dist import (
    Categorical,
    DataConstraintError,
    GroupedData,
    Permutation,
    check_permutation_equal,
    conditional_entropy_x_given_a,
    entropy,
    entropy_of_probs,
    sorted_symbols,
)
from .qopt import BoConfig, QCandidate, default_out_size, output_support, select_q


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


@dataclass(frozen=True)
class ErasureReport:
    branch: str  # "equal" | "unequal"
    i_za_analytic: float
    i_zx_analytic: float
    h_x_given_a: float
    j_value: float

    def to_json(self) -> dict:
        return {
            "branch": self.branch,
            "i_za_analytic": self.i_za_analytic,
            "i_zx_analytic": self.i_zx_analytic,
            "h_x_given_a": self.h_x_given_a,
            "j_value": self.j_value,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ErasureReport":
        return cls(**obj)


@dataclass(frozen=True)
class ErasureFunction:
    """Either a per-group bijection onto a shared output support, or a
    per-symbol conditional distribution P(Z|X=x) over that support.

    The function never reads the concept at apply time: the disjoint input
    supports make the union of per-group maps a function of the symbol alone.
    """

    variant: str  # "deterministic" | "stochastic"
    output_support: tuple[int, ...]
    q: Categorical
    group_maps: dict[int, Permutation] | None = None
    rows: dict[int, Categorical] | None = None

    def map_symbol(self, x: int) -> int:
        """Deterministic image of a symbol; raises on stochastic functions."""
        if self.variant != "deterministic":
            raise ValueError("map_symbol is only defined for deterministic functions")
        for perm in self.group_maps.values():
            if x in perm.mapping:
                return perm.mapping[x]
        raise KeyError(f"unknown symbol {x}")

    def input_symbols(self) -> set[int]:
        """Every symbol the function has an image or a row for."""
        if self.variant == "deterministic":
            return {x for perm in self.group_maps.values() for x in perm.mapping}
        return set(self.rows)

    def row_for(self, x: int) -> Categorical:
        """P(Z|X=x) for either variant (a point mass when deterministic)."""
        if self.variant == "deterministic":
            z = self.map_symbol(x)
            return Categorical((z,), np.array([1.0]))
        if x not in self.rows:
            raise KeyError(f"unknown symbol {x}")
        return self.rows[x]

    def induced_output(self, d: Categorical) -> np.ndarray:
        """Pushforward of a group distribution, as probs over output_support."""
        out = np.zeros(len(self.output_support))
        idx = {z: k for k, z in enumerate(self.output_support)}
        for s, p in zip(d.support, d.probs):
            row = self.row_for(s)
            for z, rp in zip(row.support, row.probs):
                out[idx[z]] += float(p) * float(rp)
        return out

    def to_json(self) -> dict:
        obj = {
            "variant": self.variant,
            "output_support": list(self.output_support),
            "q": self.q.to_json(),
        }
        if self.variant == "deterministic":
            obj["group_maps"] = {
                str(c): {str(k): v for k, v in perm.mapping.items()}
                for c, perm in self.group_maps.items()
            }
        else:
            obj["rows"] = {str(x): r.to_json() for x, r in self.rows.items()}
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "ErasureFunction":
        q = Categorical.from_json(obj["q"])
        support = tuple(obj["output_support"])
        if obj["variant"] == "deterministic":
            maps = {
                int(c): Permutation({int(k): int(v) for k, v in m.items()})
                for c, m in obj["group_maps"].items()
            }
            return cls("deterministic", support, q, group_maps=maps)
        rows = {int(x): Categorical.from_json(r) for x, r in obj["rows"].items()}
        return cls("stochastic", support, q, rows=rows)


def estimate_distribution(samples: ArrayLike, concept: int) -> Categorical:
    """Empirical frequencies of the symbols observed for one concept."""
    rows = as_samples(samples)
    symbols, counts = np.unique(rows[rows[:, 1] == concept, 0], return_counts=True)
    if not symbols.size:
        raise DataConstraintError(f"no samples for concept {concept}")
    return Categorical(tuple(symbols.tolist()), counts / counts.sum())


def build_deterministic_pef(g: GroupedData, tol: float = 1e-9) -> ErasureFunction:
    """Bijective erasure function for permutation-equal group distributions.

    A fresh output support of size |X_1| receives the shared sorted
    probability multiset in descending order; each group's k-th largest
    symbol (ties by ascending id) maps to the k-th output symbol.
    """
    support = output_support(g, len(g.dists[0]))
    ref = g.dists[0]
    q = Categorical(support, np.sort(ref.probs)[::-1])
    maps: dict[int, Permutation] = {}
    for concept, d in g.groups:
        if check_permutation_equal(ref, d, tol) is None:
            raise DataConstraintError(
                f"group {concept} is not permutation-equal to group {g.concepts[0]}"
            )
        ordered = sorted_symbols(d)
        maps[concept] = Permutation(dict(zip(ordered, support)))
    return ErasureFunction("deterministic", support, q, group_maps=maps)


def build_stochastic_pef(g: GroupedData, q: QCandidate) -> ErasureFunction:
    """Stochastic erasure function: greedy coupling of each group onto Q.

    The conditional rows of each coupling give P(Z|X=x); the column-marginal
    identity makes every group's induced output distribution equal Q.
    """
    support = q.dist.support
    rows: dict[int, Categorical] = {}
    for d in g.dists:
        c = greedy_mec(d, q.dist)
        for x, row in zip(d.support, conditional_rows(c, d)):
            rows[x] = row
    return ErasureFunction("stochastic", support, q.dist, rows=rows)


def analyze(f: ErasureFunction, g: GroupedData) -> ErasureReport:
    """Analytic privacy/utility report for a constructed erasure function."""
    h_xa = conditional_entropy_x_given_a(g)
    outputs = [f.induced_output(d) for d in g.dists]
    p_z = np.einsum("i,ij->j", g.priors, np.array(outputs))
    i_za = entropy_of_probs(p_z) - float(
        sum(pr * entropy_of_probs(o) for pr, o in zip(g.priors, outputs))
    )
    if f.variant == "deterministic":
        i_zx = h_xa
        j_value = 0.0
        branch = "equal"
    else:
        i_zx = 0.0
        for prior, (concept, d) in zip(g.priors, g.groups):
            # Joint coupling entropy recovered from the stored conditional
            # rows: Gamma_i(x, z) = P_i(x) P(Z=z|X=x).
            h_joint = 0.0
            for x, p in zip(d.support, d.probs):
                row = f.rows[x]
                h_joint += float(p) * entropy(row) + float(p) * (
                    -math.log2(float(p)) if p > 0 else 0.0
                )
            i_zx += float(prior) * (entropy(f.q) + entropy(d) - h_joint)
        j_value = i_zx - h_xa
        branch = "unequal"
    return ErasureReport(branch, float(i_za), float(i_zx), float(h_xa), float(j_value))


def default_tol(n_min: int, delta: float = 0.01) -> float:
    """Per-symbol frequency tolerance from a DKW-style concentration bound."""
    return 2.0 * math.sqrt(math.log(2.0 / delta) / (2.0 * n_min))


def grouped_from_samples(samples: ArrayLike) -> GroupedData:
    """Empirical group distributions and priors; enforces A4 and >= 2 concepts."""
    rows = as_samples(samples)
    if not len(rows):
        raise DataConstraintError("empty sample set")
    x, concept = rows[:, 0], rows[:, 1]
    concepts, counts = np.unique(concept, return_counts=True)
    if len(concepts) < 2:
        raise DataConstraintError("need samples from at least two concepts")
    # Each row against the concept of the first row holding its symbol.
    _, first, inverse = np.unique(x, return_index=True, return_inverse=True)
    owner = concept[first][inverse]
    clash = np.flatnonzero(owner != concept)
    if clash.size:
        i = clash[0]
        raise DataConstraintError(
            f"symbol {x[i]} appears under concepts {owner[i]} and {concept[i]} "
            "(disjoint-support assumption violated)"
        )
    concepts = concepts.tolist()
    dists = [estimate_distribution(rows, c) for c in concepts]
    priors = counts.astype(np.float64) / len(rows)
    return GroupedData(tuple(zip(concepts, dists)), priors)


def build_pef(
    g: GroupedData,
    tol: float,
    bo_cfg: Optional[BoConfig] = None,
    use_bo: bool = False,
) -> tuple[ErasureFunction, ErasureReport]:
    """Branch on permutation equality and construct the erasure function."""
    if not g.supports_disjoint:
        raise DataConstraintError("group supports must be pairwise disjoint")
    if len(g.groups) < 2:
        raise DataConstraintError("need at least two concept groups")
    ref = g.dists[0]
    equal = all(
        check_permutation_equal(ref, d, tol) is not None for d in g.dists[1:]
    )
    if equal:
        f = build_deterministic_pef(g, tol)
    else:
        cfg = bo_cfg or BoConfig()
        q_hat = select_q(g, default_out_size(g), cfg, use_bo)
        f = build_stochastic_pef(g, q_hat)
    return f, analyze(f, g)


def run_algorithm1(
    samples: ArrayLike,
    tol: Optional[float] = None,
    bo_cfg: Optional[BoConfig] = None,
    use_bo: bool = False,
) -> tuple[ErasureFunction, ErasureReport]:
    """End-to-end pipeline from raw samples: estimate, branch, construct.

    ``tol`` defaults to the concentration-bound tolerance for the smallest
    group; pass ``tol=0`` to demand exact empirical equality (which sampling
    noise will essentially always break, forcing the stochastic branch).
    """
    rows = as_samples(samples)
    g = grouped_from_samples(rows)
    if tol is None:
        n_min = int(np.unique(rows[:, 1], return_counts=True)[1].min())
        tol = default_tol(n_min)
    return build_pef(g, tol, bo_cfg, use_bo)


def _positions(ids: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of each symbol of ``x`` in the sorted ``ids``; KeyError if absent."""
    pos = np.searchsorted(ids, x)
    unknown = ids[np.minimum(pos, len(ids) - 1)] != x
    if unknown.any():
        raise KeyError(f"unknown symbol {x[np.argmax(unknown)]}")
    return pos


def apply(f: ErasureFunction, samples: ArrayLike, seed: int) -> np.ndarray:
    """Erase samples, preserving order; returns an (n, 2) array of (z, concept).

    A deterministic function looks each symbol up among its sorted input
    ids. A stochastic one is compiled into CSR form (sorted input ids, row
    bounds, output ids, per-row CDFs) and draws by inverse CDF: row i uses
    the i-th double of ``Generator(Philox(key=seed))``, so every draw is a
    function of (seed, i) alone and a prefix of the samples erases to a
    prefix of the output. Unknown symbols raise KeyError.
    """
    rows = as_samples(samples)
    x = rows[:, 0]
    if f.variant == "deterministic":
        ids, images = np.array(
            sorted(kv for perm in f.group_maps.values() for kv in perm.mapping.items()),
            dtype=np.int64,
        ).T
        z = images[_positions(ids, x)]
    else:
        ids = np.array(sorted(f.rows), dtype=np.int64)
        table = [f.rows[s] for s in ids.tolist()]
        sizes = np.array([len(t) for t in table])
        ends = np.cumsum(sizes)
        out_ids = np.array([o for t in table for o in t.support], dtype=np.int64)
        cdfs = np.concatenate([np.cumsum(t.probs) for t in table])
        pos = _positions(ids, x)
        u = np.random.Generator(np.random.Philox(key=seed)).random(len(x))
        z = out_ids[row_searchsorted(cdfs, ends[pos] - sizes[pos], ends[pos] - 1, u)]
    return np.column_stack([z, rows[:, 1]])


def _read_pairs_csv(path, header: str, kind: str) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"unexpected {kind} CSV header: {first!r}")
        lines = [line for line in fh if not line.isspace()]
    if not lines:
        return as_samples([])
    return as_samples(
        np.loadtxt(lines, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
    )


def _write_pairs_csv(rows: ArrayLike, path, header: str) -> None:
    rows = as_samples(rows)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write(("%d,%d\n" * len(rows)) % tuple(rows.ravel().tolist()))


def write_samples_csv(samples: ArrayLike, path) -> None:
    _write_pairs_csv(samples, path, "x,concept")


def read_samples_csv(path) -> np.ndarray:
    return _read_pairs_csv(path, "x,concept", "sample")


def write_erased_csv(erased: ArrayLike, path) -> None:
    _write_pairs_csv(erased, path, "z,concept")


def read_erased_csv(path) -> np.ndarray:
    return _read_pairs_csv(path, "z,concept", "erased")


def save_function_json(f: ErasureFunction, path) -> None:
    with open(path, "w") as fh:
        json.dump(f.to_json(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_function_json(path) -> ErasureFunction:
    with open(path) as fh:
        return ErasureFunction.from_json(json.load(fh))
