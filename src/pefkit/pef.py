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
from dataclasses import InitVar, asdict, dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from numpy.typing import ArrayLike

from ._kernels import entropy_bits, greedy_cells, row_searchsorted, symbol_codes, symbol_counts
from .coupling import conditional_rows
from .dist import (
    EXACT_TOL,
    MALFORMED_JSON,
    NORM_TOL,
    RENORM_TOL,
    Categorical,
    DataConstraintError,
    DistError,
    GroupedData,
    Permutation,
    _column,
    check_permutation_equal,
    conditional_entropy_x_given_a,
    entropy,
    ranked,
    write_json,
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
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ErasureReport":
        return cls(**obj)


#: The compiled table's arrays: ErasureFunction fields and function.json keys.
_TABLE = ("ids", "bounds", "out", "probs")


@dataclass(frozen=True, eq=False)
class ErasureFunction:
    """P(Z|X=x) per input symbol over a shared output support.

    Both variants are one validated table of sparse rows: the sorted input
    ``ids``, ``bounds`` (row r is cells ``bounds[r]:bounds[r + 1]``), each
    cell's output symbol ``out`` (ascending within a row) and ``probs``,
    given with rows and cells in any order, over the ascending
    ``output_support``; the id arrays are read-only int64. A deterministic
    table has one cell per row. ``group_maps`` (per-group bijections) is an
    alternative constructor input for a deterministic function, compiled
    into the table and not kept. A malformed table raises DistError. The disjoint input
    supports make the function one of the symbol alone, not of the concept.
    """

    variant: str  # "deterministic" | "stochastic"
    output_support: np.ndarray
    q: Categorical
    group_maps: InitVar[dict[int, Permutation] | None] = None
    ids: np.ndarray | None = None
    bounds: np.ndarray | None = None
    out: np.ndarray | None = None
    probs: np.ndarray | None = None
    cdfs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, group_maps):
        table = (self.ids, self.bounds, self.out, self.probs)
        if group_maps is not None and self.ids is None and self.variant == "deterministic":
            pairs = [kv for perm in group_maps.values() for kv in perm.mapping.items()]
            x, z = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
            table = (x, np.arange(len(x) + 1), z, np.ones(len(x)))
        elif group_maps is not None or self.variant not in ("deterministic", "stochastic") or (
            any(a is None for a in table)
        ):
            raise DistError(
                "need variant 'deterministic' or 'stochastic' with ids, bounds, out and "
                f"probs, or 'deterministic' with group_maps alone, got {self.variant!r}"
            )
        support = _column(self.output_support, "output_support")
        compiled = _compile_rows(support, *table)
        ids, bounds = compiled[:2]
        if self.variant == "deterministic" and len(bounds) - 1 != bounds[-1]:
            r = np.argmax(np.diff(bounds) > 1)
            raise DistError(
                f"row of symbol {ids[r]} has {bounds[r + 1] - bounds[r]} cells, "
                "but a deterministic row has one"
            )
        outside = self.q.support[symbol_codes(self.q.support, support)[1] < 0]
        if outside.size:
            raise DistError(f"q has symbol {outside.min()} outside output_support")
        for name, a in zip(("output_support", *_TABLE, "cdfs"), (support, *compiled)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def map_symbol(self, x: int) -> int:
        """Deterministic image of a symbol; raises on stochastic functions."""
        if self.variant != "deterministic":
            raise ValueError("map_symbol is only defined for deterministic functions")
        return int(self.out[self.bounds[_positions(self.ids, [x])[0]]])

    def induced_output(self, d: Categorical) -> np.ndarray:
        """Pushforward of a group distribution, as probs over output_support."""
        weight = np.zeros(len(self.ids))
        weight[_positions(self.ids, d.support)] = d.probs
        cells = np.repeat(weight, np.diff(self.bounds)) * self.probs
        cols = np.searchsorted(self.output_support, self.out)
        return np.bincount(cols, cells, minlength=len(self.output_support))

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "output_support": self.output_support.tolist(),
            "q": self.q.to_json(),
            **{name: getattr(self, name).tolist() for name in _TABLE},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ErasureFunction":
        """Parse ``to_json`` output; a malformed object raises DistError."""
        try:
            head = (obj["variant"], obj["output_support"], Categorical.from_json(obj["q"]))
            return cls(*head, **{name: obj[name] for name in _TABLE})
        except MALFORMED_JSON as exc:
            raise DistError(f"malformed function JSON: {exc!r}") from None


def _compile_rows(support, ids, bounds, out, probs):
    """Validate rows of P(Z|X); return them sorted, as (ids, bounds, out, probs, cdfs).

    As in Categorical, a row whose mass is off by more than NORM_TOL is
    renormalized with a warning and one off by more than RENORM_TOL raises.
    """
    ids, bounds, out = (_column(a, name) for a, name in zip((ids, bounds, out), _TABLE))
    probs = _column(probs, "probs", np.float64)
    if len(bounds) != len(ids) + 1 or bounds[0] != 0 or bounds[-1] != len(out):
        raise DistError(
            f"bounds must have len(ids) + 1 = {len(ids) + 1} entries "
            f"and run from 0 to len(out) = {len(out)}"
        )
    if len(probs) != len(out):
        raise DistError(f"need one probability per output, got {len(probs)} for {len(out)}")
    sizes = np.diff(bounds)
    if not ids.size or np.any(sizes < 1):
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
    if not np.all(np.isfinite(probs) & (probs >= 0.0)):
        raise DistError("probabilities must be finite and non-negative")
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


def build_deterministic_pef(g: GroupedData, tol: float = EXACT_TOL) -> ErasureFunction:
    """Bijective erasure function for permutation-equal group distributions.

    DataConstraintError names the first group not permutation-equal to the
    first. A fresh output support of size |X_1| receives the first group's
    ``ranked`` probabilities; each group's k-th ranked symbol maps to the
    k-th output symbol, one table cell of probability 1.0 per row.
    """
    ref = g.dists[0]
    for concept, d in g.groups[1:]:
        if not check_permutation_equal(ref, d, tol):
            raise DataConstraintError(
                f"group {concept} is not permutation-equal to group {g.concepts[0]}"
            )
    support = output_support(g, len(ref))
    q = Categorical(support, ranked(ref)[1])
    ids = np.concatenate([ranked(d)[0] for d in g.dists])
    return ErasureFunction(
        "deterministic",
        support,
        q,
        ids=ids,
        bounds=np.arange(len(ids) + 1),
        out=np.tile(support, len(g.dists)),
        probs=np.ones(len(ids)),
    )


def build_stochastic_pef(g: GroupedData, q: QCandidate) -> ErasureFunction:
    """Stochastic erasure function: greedy coupling of each group onto Q.

    The conditional rows of each coupling give P(Z|X=x); the column-marginal
    identity makes every group's induced output distribution equal Q. All
    groups are coupled in one ``greedy_cells`` call, whose cells (at most
    |X_i| + |Q| - 1 per group) become the rows directly, so no dense
    |X_i| x |Q| mass matrix is built.
    """
    support = q.dist.support
    cells = greedy_cells([d.probs for d in g.dists], [q.dist.probs] * len(g.dists))
    parts = []
    for d, (rows, cols, mass) in zip(g.dists, cells):
        bounds, cols, probs = conditional_rows(rows, cols, mass, d)
        parts.append((d.support, np.diff(bounds), cols, probs))
    ids, sizes, cols, probs = (np.concatenate(a) for a in zip(*parts))
    return ErasureFunction(
        "stochastic",
        support,
        q.dist,
        ids=ids,
        bounds=np.concatenate([[0], np.cumsum(sizes)]),
        out=support[cols],
        probs=probs,
    )


def analyze(f: ErasureFunction, g: GroupedData) -> ErasureReport:
    """Analytic privacy/utility report for a constructed erasure function."""
    h_xa = conditional_entropy_x_given_a(g)
    outputs = [f.induced_output(d) for d in g.dists]
    p_z = np.einsum("i,ij->j", g.priors, np.array(outputs))
    i_za = entropy_bits(p_z) - float(
        sum(pr * entropy_bits(o) for pr, o in zip(g.priors, outputs))
    )
    if f.variant == "deterministic":
        i_zx = h_xa
        j_value = 0.0
        branch = "equal"
    else:
        _check_pushforward(f, g, outputs)
        # I(Z;X) = H(Z) - H(Z|X). Every group pushes onto q, so H(Z) = H(Q);
        # P(X=x) adds up the joint mass of every group that holds x.
        p_x = np.bincount(_positions(f.ids, g.symbols), g.joint_mass(), len(f.ids))
        plogp = f.probs * np.log2(np.where(f.probs > 0.0, f.probs, 1.0))
        h_rows = -np.add.reduceat(plogp, f.bounds[:-1])
        i_zx = entropy(f.q) - float(p_x @ h_rows)
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


def default_tol(n_min: int, delta: float = 0.01) -> float:
    """Per-symbol frequency tolerance from a DKW-style concentration bound."""
    return 2.0 * math.sqrt(math.log(2.0 / delta) / (2.0 * n_min))


def grouped_from_samples(samples: ArrayLike) -> GroupedData:
    """Empirical group distributions and priors; enforces A4 and >= 2 concepts."""
    rows = as_samples(samples)
    if not len(rows):
        raise DataConstraintError("empty sample set")
    x, concept = rows[:, 0], rows[:, 1]
    concepts, a = symbol_codes(concept)
    if len(concepts) < 2:
        raise DataConstraintError("need samples from at least two concepts")
    symbols, code = symbol_codes(x)
    # Some concept of each symbol; a symbol under two concepts fails the
    # comparison on the rows of whichever one the table does not hold.
    owner = np.zeros(len(symbols), dtype=np.intp)
    owner[code] = a
    if np.any(owner[code] != a):
        # Each row against the concept of the first row holding its symbol.
        _, first, inverse = np.unique(x, return_index=True, return_inverse=True)
        held = concept[first][inverse]
        i = np.argmax(held != concept)
        raise DataConstraintError(
            f"symbol {x[i]} appears under concepts {held[i]} and {concept[i]} "
            "(disjoint-support assumption violated)"
        )
    counts = np.bincount(code, minlength=len(symbols))
    dists = []
    for k in range(len(concepts)):
        mine = owner == k
        dists.append(Categorical(symbols[mine], counts[mine] / counts[mine].sum()))
    priors = np.bincount(a).astype(np.float64) / len(rows)
    return GroupedData(tuple(zip(concepts, dists)), priors)


def check_sample_concepts(g: GroupedData, samples: ArrayLike) -> None:
    """Raise DataConstraintError unless each sample's symbol lies in its own concept's group.

    The owner of each symbol of ``g`` is looked up by ``symbol_codes``; a
    symbol outside every support is left to ``check_symbols_known``.
    """
    if not g.supports_disjoint:
        raise DataConstraintError("group supports must be pairwise disjoint")
    rows = as_samples(samples)
    owners = np.repeat(g.concepts, [len(d) for d in g.dists])
    order = np.argsort(g.symbols)
    x, concept = rows[:, 0], rows[:, 1]
    code = symbol_codes(x, g.symbols[order])[1]
    owner = owners[order][code]
    wrong = (code >= 0) & (owner != concept)
    if wrong.any():
        i = np.argmax(wrong)
        raise DataConstraintError(
            f"symbol {x[i]} appears under concept {concept[i]} but belongs to concept "
            f"{owner[i]} (disjoint-support assumption violated)"
        )


def build_pef(
    g: GroupedData, tol: float, bo: Optional[BoConfig] = None
) -> tuple[ErasureFunction, ErasureReport]:
    """Branch on permutation equality and construct the erasure function.

    Where ``build_deterministic_pef`` finds unequal groups, Q is the best stationary
    candidate, or with ``bo`` the GP-UCB search seeded by it (``select_q``).
    """
    if not g.supports_disjoint:
        raise DataConstraintError("group supports must be pairwise disjoint")
    if len(g.groups) < 2:
        raise DataConstraintError("need at least two concept groups")
    try:
        f = build_deterministic_pef(g, tol)
    except DataConstraintError:
        f = build_stochastic_pef(g, select_q(g, default_out_size(g), bo))
    return f, analyze(f, g)


def run_algorithm1(
    samples: ArrayLike,
    tol: Optional[float] = None,
    bo: Optional[BoConfig] = None,
) -> tuple[ErasureFunction, ErasureReport]:
    """End-to-end pipeline from raw samples: estimate, branch, construct.

    ``tol`` defaults to the concentration-bound tolerance for the smallest
    group; pass ``tol=0`` to demand exact empirical equality (which sampling
    noise will essentially always break, forcing the stochastic branch).
    """
    rows = as_samples(samples)
    g = grouped_from_samples(rows)
    if tol is None:
        n_min = int(symbol_counts(rows[:, 1])[1].min())
        tol = default_tol(n_min)
    return build_pef(g, tol, bo)


def _positions(ids: np.ndarray, x: ArrayLike) -> np.ndarray:
    """Index of each symbol of ``x`` in the sorted ``ids``; KeyError if absent."""
    x = np.asarray(x, dtype=np.int64)
    pos = symbol_codes(x, ids)[1]
    unknown = pos < 0
    if unknown.any():
        raise KeyError(f"unknown symbol {x[np.argmax(unknown)]}")
    return pos


def apply(f: ErasureFunction, samples: ArrayLike, seed: int) -> np.ndarray:
    """Erase samples, preserving order; returns an (n, 2) array of (z, concept).

    Each symbol's row is looked up among the sorted input ids by
    ``symbol_codes`` and drawn from by inverse CDF: row i uses the i-th
    double of ``Generator(Philox(key=seed))``, so every draw is a function of
    (seed, i) alone and a prefix of the samples erases to a prefix of the
    output. A function whose rows are all single cells (every deterministic
    one) draws nothing and ignores ``seed``. Unknown symbols raise KeyError.
    """
    rows = as_samples(samples)
    pos = _positions(f.ids, rows[:, 0])
    if len(f.out) > len(f.ids):
        u = np.random.Generator(np.random.Philox(key=seed)).random(len(rows))
    else:
        u = np.zeros(len(rows))
    z = f.out[row_searchsorted(f.cdfs, f.bounds[pos], f.bounds[pos + 1] - 1, u)]
    return np.column_stack([z, rows[:, 1]])


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
    with open(path) as fh:
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


def save_function_json(f: ErasureFunction, path) -> None:
    write_json(f.to_json(), path)


def load_function_json(path) -> ErasureFunction:
    with open(path) as fh:
        return ErasureFunction.from_json(json.load(fh))
