"""Concept erasure pipeline.

Estimates per-group distributions from samples, branches on permutation
equality, constructs either the deterministic bijective erasure function or
the stochastic coupling-based one, and applies it to data. The analytic
report (privacy and utility in bits) is computed from the constructed maps
and the group distributions, not from re-sampling.

Samples are the (n, 2) int64 rows of ``sample_io``, which also reads and
writes their CSV files; every function here that takes samples converts
them with ``as_samples``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, asdict, dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from ._kernels import (
    chunks,
    entropy_bits,
    row_searchsorted,
    symbol_coder,
    symbol_codes,
    symbol_counts,
)
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
    _freeze,
    check_permutation_equal,
    check_symbols_known,
    conditional_entropy_x_given_a,
    entropy,
    read_json,
    write_json,
)
from .qopt import BoConfig, QCandidate, default_out_size, output_support, select_q

# Re-exported: the CSV functions keep their `pef.` names, which the CLI calls
# and perfbench traces.
from .sample_io import (
    Sample,
    as_samples,
    read_erased_csv,
    read_samples_csv,
    write_erased_csv,
    write_samples_csv,
)

if TYPE_CHECKING:
    from numpy.typing import ArrayLike


@dataclass(frozen=True)
class ErasureReport:
    branch: str  # "equal" | "unequal"
    i_za_analytic: float
    i_zx_analytic: float
    h_x_given_a: float
    j_value: float

    def to_json(self) -> dict:
        return asdict(self)


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
        _freeze(self, **dict(zip(("output_support", *_TABLE, "cdfs"), (support, *compiled))))

    def induced_outputs(self, dists: list[Categorical]) -> np.ndarray:
        """Pushforward of each distribution, one row of probs over output_support each.

        The output ids are coded once, and one ``bincount`` over the keys
        ``row * |Z| + column`` sums every distribution's cells, each bin in
        table order: the cells of its symbols' rows, ascending by id.
        """
        n_z = len(self.output_support)
        cols = symbol_codes(self.out, self.output_support)[1]
        pos = _positions(self.ids, np.concatenate([d.support for d in dists]))
        sizes = np.diff(self.bounds)[pos]
        ends = np.cumsum(sizes)
        cell = np.arange(ends[-1]) + np.repeat(self.bounds[pos] - ends + sizes, sizes)
        mass = np.repeat(np.concatenate([d.probs for d in dists]), sizes) * self.probs[cell]
        row = np.repeat(np.arange(len(dists)), [len(d) for d in dists])
        keys = np.repeat(row * n_z, sizes) + cols[cell]
        return np.bincount(keys, mass, minlength=len(dists) * n_z).reshape(len(dists), n_z)

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


# dataclasses leaves the InitVar's default behind as a class attribute, which
# would read None on every instance; the generated __init__ keeps its own copy.
del ErasureFunction.group_maps


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
    q = Categorical(support, g.ranked[0][1])
    ids = np.concatenate([symbols for symbols, _ in g.ranked])
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
    """Stochastic erasure function: the greedy coupling of each group onto Q.

    The conditional rows of each coupling give P(Z|X=x); the column-marginal
    identity makes every group's induced output distribution equal Q. The
    couplings are the ones ``q`` was scored with (``q.cells``, one per
    group of ``g``, from ``qopt``), so nothing is coupled again; their cells
    (at most |X_i| + |Q| - 1 per group) become the rows directly, so no
    dense |X_i| x |Q| mass matrix is built. Their rows are ``ranked`` positions.
    """
    support = q.dist.support
    parts = []
    for (symbols, probs), (rows, cols, mass) in zip(g.ranked, q.cells, strict=True):
        bounds, cols, probs = conditional_rows(rows, cols, mass, probs)
        parts.append((symbols, np.diff(bounds), cols, probs))
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
    outputs = f.induced_outputs(g.dists)
    p_z = np.einsum("i,ij->j", g.priors, outputs)
    # H(Z) - H(Z|A) rounds a few ulps below 0 on some perfect erasures, but
    # a mutual information is never negative.
    i_za = max(0.0, entropy_bits(p_z) - float(
        sum(pr * entropy_bits(o) for pr, o in zip(g.priors, outputs))
    ))
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


def _check_pushforward(f: ErasureFunction, g: GroupedData, outputs: np.ndarray) -> None:
    """Raise DistError unless every group's pushforward is f.q within RENORM_TOL.

    H(Z) in the report is taken from f.q, which is only right if each group
    of ``g`` (row i of ``outputs``) is pushed onto it.
    """
    q = np.zeros(len(f.output_support))
    q[np.searchsorted(f.output_support, f.q.support)] = f.q.probs
    err = np.abs(outputs - q).max(axis=1)
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
    """Empirical group distributions and priors; enforces A4 and >= 2 concepts.

    ``symbol_counts`` gives the distinct concepts and symbols with their
    row counts. Each column's code table is then built once, and the rows
    are coded ``CODE_CHUNK`` at a time to file each symbol under the
    concept of the first chunk that holds it and to check every row
    against it, so beyond the samples only per-label arrays and fixed-size
    chunks are held.
    """
    rows = as_samples(samples)
    if not len(rows):
        raise DataConstraintError("empty sample set")
    x, concept = rows[:, 0], rows[:, 1]
    concepts, sizes = symbol_counts(concept)
    if len(concepts) < 2:
        raise DataConstraintError("need samples from at least two concepts")
    symbols, counts = symbol_counts(x)
    concept_code = symbol_coder(concepts, len(rows), known=True)
    symbol_code = symbol_coder(symbols, len(rows), known=True)
    owner = np.full(len(symbols), -1, dtype=np.intp)
    for part in chunks(len(rows)):
        code, a = symbol_code(x[part]), concept_code(concept[part])
        held = owner[code]
        new = held < 0
        if new.any():
            # A new symbol on two rows of the chunk keeps one row's concept;
            # the gather again checks the other row against it.
            owner[code[new]] = a[new]
            held = owner[code]
        if np.any(held != a):
            _raise_shared_symbol(x, concept)
    dists = []
    for k in range(len(concepts)):
        mine = owner == k
        dists.append(Categorical(symbols[mine], counts[mine] / counts[mine].sum()))
    priors = sizes.astype(np.float64) / len(rows)
    return GroupedData(tuple(zip(concepts, dists)), priors)


def _raise_shared_symbol(x: np.ndarray, concept: np.ndarray) -> None:
    """DataConstraintError naming the first row whose concept differs from
    that of the first row holding its symbol."""
    _, first, inverse = np.unique(x, return_index=True, return_inverse=True)
    held = concept[first][inverse]
    i = np.argmax(held != concept)
    raise DataConstraintError(
        f"symbol {x[i]} appears under concepts {held[i]} and {concept[i]} "
        "(disjoint-support assumption violated)"
    )


def check_sample_concepts(g: GroupedData, samples: ArrayLike) -> None:
    """Check that the samples fit ``g``, as ``pefkit erase --dists`` does before the build.

    AlignmentError if a sample's symbol lies in no group's support;
    otherwise DataConstraintError unless the supports are disjoint and each
    sample's symbol lies in its own concept's group.
    """
    rows = as_samples(samples)
    x, concept = rows[:, 0], rows[:, 1]
    code = check_symbols_known(x, g.symbols, "the samples", "--dists")
    if not g.supports_disjoint:
        raise DataConstraintError("group supports must be pairwise disjoint")
    # Disjoint, so the sorted symbols are the distinct ones ``code`` indexes.
    owners = np.repeat(g.concepts, [len(d) for d in g.dists])
    owner = owners[np.argsort(g.symbols)][code]
    wrong = owner != concept
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
    return _known(x, symbol_codes(x, ids)[1])


def _known(x: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """``pos``, the codes of ``x``; KeyError naming the first symbol coded -1."""
    unknown = pos < 0
    if unknown.any():
        raise KeyError(f"unknown symbol {x[np.argmax(unknown)]}")
    return pos


#: Rows erased per pass; bounds the temporaries ``apply`` holds at once.
APPLY_CHUNK = 1 << 14


def apply(f: ErasureFunction, samples: ArrayLike, seed: int) -> np.ndarray:
    """Erase samples, preserving order; returns an (n, 2) array of (z, concept).

    The result is a copy of the rows with column 0 overwritten; the input is
    never written. Each symbol's row is looked up among the sorted input ids
    by one ``symbol_coder`` built for the whole column and drawn from by
    inverse CDF, ``APPLY_CHUNK`` rows at a time, so the temporaries are of
    fixed size whatever the row count.
    Row i uses the i-th double of ``Generator(Philox(key=seed))``, which
    every chunk draws from in turn, so every draw is a function of (seed, i)
    alone, the output does not depend on the chunk size, and a prefix of
    the samples erases to a prefix of the output. A function whose rows are
    all single cells (every deterministic one) draws nothing and ignores
    ``seed``. Unknown symbols raise KeyError, naming the first.
    """
    rows = as_samples(samples)
    erased = rows.copy()
    draws = np.random.Generator(np.random.Philox(key=seed)) if len(f.out) > len(f.ids) else None
    code = symbol_coder(f.ids, len(rows))
    for start in range(0, len(rows), APPLY_CHUNK):
        x = rows[start:start + APPLY_CHUNK, 0]
        pos = _known(x, code(x))
        u = draws.random(len(pos)) if draws is not None else np.zeros(len(pos))
        erased[start:start + len(pos), 0] = f.out[
            row_searchsorted(f.cdfs, f.bounds[pos], f.bounds[pos + 1] - 1, u)
        ]
    return erased


def save_function_json(f: ErasureFunction, path) -> None:
    write_json(f.to_json(), path)


def load_function_json(path) -> ErasureFunction:
    return ErasureFunction.from_json(read_json(path))
