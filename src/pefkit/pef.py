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

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from numpy.typing import ArrayLike

from ._kernels import entropy_bits, row_searchsorted
from .coupling import conditional_rows, greedy_mec
from .dist import (
    NORM_TOL,
    RENORM_TOL,
    Categorical,
    DataConstraintError,
    DistError,
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


@dataclass(frozen=True, eq=False)
class ErasureFunction:
    """P(Z|X=x) per input symbol over a shared output support.

    Compiled at construction into one validated table of sparse rows: the
    sorted input ``ids``, ``bounds`` (row r is cells ``bounds[r]:bounds[r + 1]``),
    each cell's output symbol ``out`` (ascending within a row) and ``probs``.
    A deterministic function is given as per-group bijections, one cell of
    probability 1.0 per row; a stochastic one as the table, rows and cells
    in any order. A malformed table raises DistError. The disjoint input
    supports make the function one of the symbol alone, not of the concept.
    """

    variant: str  # "deterministic" | "stochastic"
    output_support: tuple[int, ...]
    q: Categorical
    group_maps: dict[int, Permutation] | None = None
    ids: np.ndarray | None = None
    bounds: np.ndarray | None = None
    out: np.ndarray | None = None
    probs: np.ndarray | None = None
    cdfs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.variant == "deterministic" and self.group_maps is not None:
            pairs = [kv for perm in self.group_maps.values() for kv in perm.mapping.items()]
            x, z = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
            table = (x, np.arange(len(x) + 1), z, np.ones(len(x)))
        elif self.variant == "stochastic" and self.ids is not None:
            table = (self.ids, self.bounds, self.out, self.probs)
        else:
            raise DistError(
                "need variant 'deterministic' with group_maps or 'stochastic' with rows, "
                f"got {self.variant!r}"
            )
        object.__setattr__(self, "output_support", tuple(int(s) for s in self.output_support))
        compiled = _compile_rows(np.array(self.output_support, dtype=np.int64), *table)
        outside = np.setdiff1d(self.q.support, self.output_support)
        if outside.size:
            raise DistError(f"q has symbol {outside[0]} outside output_support")
        for name, a in zip(("ids", "bounds", "out", "probs", "cdfs"), compiled):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def map_symbol(self, x: int) -> int:
        """Deterministic image of a symbol; raises on stochastic functions."""
        if self.variant != "deterministic":
            raise ValueError("map_symbol is only defined for deterministic functions")
        return int(self.out[self.bounds[_positions(self.ids, [x])[0]]])

    def input_symbols(self) -> np.ndarray:
        """Every symbol the function has a row for, ascending."""
        return self.ids

    def row_for(self, x: int) -> Categorical:
        """P(Z|X=x) for either variant (a point mass when deterministic)."""
        r = _positions(self.ids, [x])[0]
        cells = slice(self.bounds[r], self.bounds[r + 1])
        return Categorical(tuple(self.out[cells].tolist()), self.probs[cells])

    def induced_output(self, d: Categorical) -> np.ndarray:
        """Pushforward of a group distribution, as probs over output_support."""
        weight = np.zeros(len(self.ids))
        weight[_positions(self.ids, d.support)] = d.probs
        cells = np.repeat(weight, np.diff(self.bounds)) * self.probs
        cols = np.searchsorted(self.output_support, self.out)
        return np.bincount(cols, cells, minlength=len(self.output_support))

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
            b = self.bounds.tolist()
            obj["rows"] = {
                str(x): {"support": self.out[b[r]:b[r + 1]].tolist(),
                         "probs": self.probs[b[r]:b[r + 1]].tolist()}
                for r, x in enumerate(self.ids.tolist())
            }
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "ErasureFunction":
        """Parse ``to_json`` output; a malformed object raises DistError."""
        try:
            head = (obj["variant"], tuple(obj["output_support"]), Categorical.from_json(obj["q"]))
            if head[0] == "deterministic":
                maps = {
                    int(c): Permutation({int(k): int(v) for k, v in m.items()})
                    for c, m in obj["group_maps"].items()
                }
                return cls(*head, group_maps=maps)
            rows = obj["rows"]
            sizes = [len(r["support"]) for r in rows.values()]
            if sizes != [len(r["probs"]) for r in rows.values()]:
                raise DistError("every row needs one probability per output symbol")
            ids = np.array([int(x) for x in rows], dtype=np.int64)
            out = np.array([z for r in rows.values() for z in r["support"]], dtype=np.int64)
            probs = [p for r in rows.values() for p in r["probs"]]
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise DistError(f"malformed function JSON: {exc!r}") from None
        return cls(*head, ids=ids, bounds=np.cumsum([0, *sizes]), out=out, probs=probs)


def _compile_rows(support, ids, bounds, out, probs):
    """Validate rows of P(Z|X); return them sorted, as (ids, bounds, out, probs, cdfs).

    As in Categorical, a row whose mass is off by more than NORM_TOL is
    renormalized with a warning and one off by more than RENORM_TOL raises.
    """
    ids, bounds, out = (np.asarray(a, dtype=np.int64) for a in (ids, bounds, out))
    probs = np.asarray(probs, dtype=np.float64)
    sizes = np.diff(bounds)
    if not ids.size or np.any(sizes < 1) or not len(out) == len(probs) == bounds[-1]:
        raise DistError("need at least one row, each with at least one cell")
    if not support.size or support[0] < 0 or np.any(np.diff(support) <= 0):
        raise DistError("output_support must be non-empty, ascending and non-negative")
    order = np.argsort(ids, kind="stable")
    row = np.repeat(np.argsort(order), sizes)  # each cell's row once sorted
    cells = np.lexsort((out, row))
    ids, row, out, probs = ids[order], row[cells], out[cells], probs[cells]
    bounds = np.concatenate([[0], np.cumsum(sizes[order])])
    twice = ids[1:] == ids[:-1]
    if twice.any():
        raise DistError(f"input symbol {ids[np.argmax(twice)]} has more than one row")
    outside = ~np.isin(out, support)
    if outside.any():
        i = np.argmax(outside)
        raise DistError(f"row of symbol {ids[row[i]]} has output {out[i]} outside output_support")
    twice = (row[1:] == row[:-1]) & (out[1:] == out[:-1])
    if twice.any():
        i = np.argmax(twice)
        raise DistError(f"row of symbol {ids[row[i]]} has output {out[i]} twice")
    if not np.all(probs >= 0.0):
        raise DistError("probabilities must be non-negative")
    mass = np.add.reduceat(probs, bounds[:-1])
    off = ~(np.abs(mass - 1.0) <= RENORM_TOL)
    if off.any():
        r = np.argmax(off)
        raise DistError(
            f"row of symbol {ids[r]} sums to {mass[r]}, outside tolerance {RENORM_TOL}"
        )
    renorm = np.abs(mass - 1.0) > NORM_TOL
    if renorm.any():
        warnings.warn(f"renormalizing {np.count_nonzero(renorm)} row(s)", stacklevel=4)
        probs = np.where(renorm[row], probs / mass[row], probs)
    # Sum each row's CDF left to right, as np.cumsum of the row alone does:
    # one cumsum over all cells minus row offsets would round differently.
    cdfs, sizes = probs.copy(), np.diff(bounds)
    for k in range(1, sizes.max()):
        at = bounds[:-1][sizes > k] + k
        cdfs[at] += cdfs[at - 1]
    return ids, bounds, out, probs, cdfs


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
    parts = []
    for d in g.dists:
        bounds, cols, probs = conditional_rows(greedy_mec(d, q.dist), d)
        parts.append((d.support, np.diff(bounds), cols, probs))
    ids, sizes, cols, probs = (np.concatenate(a) for a in zip(*parts))
    support = q.dist.support
    return ErasureFunction(
        "stochastic",
        support,
        q.dist,
        ids=ids,
        bounds=np.concatenate([[0], np.cumsum(sizes)]),
        out=np.array(support, dtype=np.int64)[cols],
        probs=probs,
    )


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
        _check_pushforward(f, g, outputs)
        h_rows = _row_entropies(f.probs, f.bounds)
        h_q = entropy(f.q)
        i_zx = 0.0
        for prior, d in zip(g.priors, g.dists):
            # Joint coupling entropy recovered from the stored conditional
            # rows: Gamma_i(x, z) = P_i(x) P(Z=z|X=x), summed over x in order.
            p = d.probs
            surprisal = np.array([-math.log2(v) for v in p.tolist()])  # Categorical probs are > 0
            per_x = p * h_rows[_positions(f.ids, d.support)] + p * surprisal
            h_joint = float(np.cumsum(per_x)[-1])
            i_zx += float(prior) * (h_q + entropy(d) - h_joint)
        j_value = i_zx - h_xa
        branch = "unequal"
    return ErasureReport(branch, float(i_za), float(i_zx), float(h_xa), float(j_value))


def _check_pushforward(f: ErasureFunction, g: GroupedData, outputs: list[np.ndarray]) -> None:
    """Raise DistError unless every group's pushforward is f.q within RENORM_TOL.

    H(Z) in the report is taken from f.q, which is only right if each group
    of ``g`` is pushed onto it.
    """
    q = np.zeros(len(f.output_support))
    q[np.searchsorted(f.output_support, f.q.support)] = f.q.probs
    err = np.abs(np.array(outputs) - q).max(axis=1)
    i = int(np.argmax(err))
    if err[i] > RENORM_TOL:
        raise DistError(
            f"q differs from the pushforward of group {g.concepts[i]} by {err[i]:.3g}, "
            f"outside tolerance {RENORM_TOL}"
        )


def _row_entropies(probs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row ``probs[bounds[r]:bounds[r + 1]]``.

    Equal bit for bit to ``entropy_bits`` of the row alone. np.sum adds
    fewer than 8 terms left to right and 8 or more pairwise, so rows with
    fewer than 8 non-zero cells are summed here a column at a time, left to
    right, and only longer ones go through ``entropy_bits``.
    """
    nz = probs > 0.0
    terms = np.zeros_like(probs)
    terms[nz] = probs[nz] * np.log2(probs[nz])
    start, sizes = bounds[:-1], np.diff(bounds)
    long_rows = np.add.reduceat(nz.astype(np.int64), start) >= 8
    acc = terms[start]
    for k in range(1, sizes[~long_rows].max(initial=1)):
        r = np.flatnonzero((sizes > k) & ~long_rows)
        acc[r] += terms[start[r] + k]
    h = -acc
    for r in np.flatnonzero(long_rows).tolist():
        h[r] = entropy_bits(probs[bounds[r]:bounds[r + 1]])
    return h


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

    Each symbol's row is found among the sorted input ids and drawn from by
    inverse CDF: row i uses the i-th double of ``Generator(Philox(key=seed))``,
    so every draw is a function of (seed, i) alone and a prefix of the
    samples erases to a prefix of the output. A function whose rows are all
    single cells (every deterministic one) draws nothing and ignores
    ``seed``. Unknown symbols raise KeyError.
    """
    rows = as_samples(samples)
    pos = _positions(f.ids, rows[:, 0])
    if len(f.out) > len(f.ids):
        u = np.random.Generator(np.random.Philox(key=seed)).random(len(rows))
    else:
        u = np.zeros(len(rows))
    z = f.out[row_searchsorted(f.cdfs, f.bounds[pos], f.bounds[pos + 1] - 1, u)]
    return np.column_stack([z, rows[:, 1]])


#: Rows formatted per write; bounds the Python ints alive at once.
CSV_WRITE_CHUNK = 1 << 14


def _read_pairs_csv(path, header: str, kind: str) -> np.ndarray:
    """Rows of a two-column int CSV; blank and whitespace-only lines are skipped.

    Lines stream into ``np.loadtxt`` one at a time, so no list of line
    strings is held and the memory used is the result array's.
    """
    with open(path) as fh:
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


def _write_pairs_csv(rows: ArrayLike, path, header: str) -> None:
    rows = as_samples(rows)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(rows), CSV_WRITE_CHUNK):
            chunk = rows[start:start + CSV_WRITE_CHUNK]
            fh.write(("%d,%d\n" * len(chunk)) % tuple(chunk.ravel().tolist()))


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
