"""The numeric inner loops that every layer shares.

``entropy_bits`` is summed by dist, coupling and qopt. Every greedy
coupling comes from ``greedy_cells``, which runs a heap per coupling below
``LOCKSTEP_MIN`` couplings and steps them in lockstep from there, with the
same cells bit for bit; ``greedy_fill`` is its dense view of one coupling.
``row_searchsorted`` draws every stochastic erasure. ``symbol_coder``
gives each symbol id its dense code and ``symbol_counts`` counts the ids,
for every per-row lookup: ``apply``'s row of each sample, the labels and
cells of ``evaluate``'s joint counts, the groups of Algorithm 1 and the
owner check of ``erase --dists``; ``symbol_codes`` codes a whole column
with it. One rule, ``_table_fits``, read once per column: where the ids
span no more than the column's rows, both index a table by ``id - min``
(O(n), no sort); otherwise they sort or search as ``np.unique`` and
``np.searchsorted`` do. Columns are coded and counted ``CODE_CHUNK``
values at a time (``chunks``), so a pass over n rows holds fixed-size
temporaries and no second array of n. All take and return plain arrays, not ``Categorical`` or ``Coupling``
values, so hot callers skip the validation those types do on
construction, and this module imports nothing from pefkit, so every other
module can use it without an import cycle.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

# Residuals below this are treated as exhausted in the greedy loop.
RESIDUAL_EPS = 1e-12

# greedy_cells steps this many couplings or more in lockstep, fewer on heaps.
LOCKSTEP_MIN = 16

# There is one numpy path; perfbench/run.py's environment() reads this for
# its host diagnostics, and nothing else does.
USING_NUMBA = False


def entropy_bits(probs: np.ndarray) -> float:
    p = probs[probs > 0.0]
    # 0.0 - s, not -s: a point mass has entropy 0.0, not -0.0.
    return float(0.0 - np.sum(p * np.log2(p)))


def greedy_fill(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The greedy coupling of ``p`` onto ``q`` as a dense mass matrix."""
    rows, cols, cell_mass = greedy_cells([p], [q])[0]
    mass = np.zeros((p.size, q.size))
    mass[rows, cols] = cell_mass
    return mass


def greedy_cells(
    ps: list[np.ndarray], qs: list[np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Greedy couplings of each ``ps[b]`` onto ``qs[b]``: repeatedly pair
    the largest residuals, ties to the lowest index, until the smaller of
    the two is at most ``RESIDUAL_EPS``. The rule treats both sides
    alike, so coupling q onto p gives the transposed cells of p onto q, bit
    for bit.

    Below ``LOCKSTEP_MIN`` couplings each runs on its own heap loop; from
    ``LOCKSTEP_MIN`` up they step in lockstep. Both take the same steps,
    so they give the same cells bit for bit. Returns one ``(rows, cols,
    mass)`` per problem, holding its cells with mass > 0 sorted by row and
    then by column, the order of ``np.nonzero`` on the dense mass, so sums
    over them round as sums over ``mass[mass > 0]`` do.
    """
    if len(ps) < LOCKSTEP_MIN:
        steps = [_heap_steps(p, q) for p, q in zip(ps, qs, strict=True)]
    else:
        steps = _lockstep_steps(ps, qs)
    out = []
    for r, c, m in steps:
        live = m > 0.0
        r, c, m = r[live], c[live], m[live]
        order = np.lexsort((c, r))
        out.append((r[order], c[order], m[order]))
    return out


def _heap_steps(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One greedy coupling's steps: each side's residuals sit in a heap of
    ``(-residual, index)``, so a step costs O(log(m + n))."""
    hp = [(-r, i) for i, r in enumerate(p.tolist())]
    hq = [(-r, j) for j, r in enumerate(q.tolist())]
    heapq.heapify(hp)
    heapq.heapify(hq)
    rows, cols, mass = [], [], []
    for _ in range(p.size + q.size):
        neg_rp, i = hp[0]
        neg_rq, j = hq[0]
        m = min(-neg_rp, -neg_rq)
        if m <= RESIDUAL_EPS:
            break
        rows.append(i)
        cols.append(j)
        mass.append(m)
        heapq.heapreplace(hp, (neg_rp + m, i))
        heapq.heapreplace(hq, (neg_rq + m, j))
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(mass)


def _lockstep_steps(ps: list[np.ndarray], qs: list[np.ndarray]):
    """Every coupling's steps at once, one problem per row of two
    zero-padded residual matrices.

    Each step takes the first maximum of every residual row with
    ``argmax``, pairs them with their minimum and subtracts it from both;
    a finished problem records and subtracts 0, so padding is never
    paired while mass remains. A step over B problems scans whole rows,
    O(B (m + n)), against the heap's O(log(m + n)) per problem. The
    residuals are gathered and updated through flat views, at
    ``b * width + i``, which costs less than 2-D fancy indexing.
    """
    rp = np.zeros((len(ps), max(p.size for p in ps)))
    rq = np.zeros((len(qs), max(q.size for q in qs)))
    for k, (p, q) in enumerate(zip(ps, qs, strict=True)):
        rp[k, : p.size] = p
        rq[k, : q.size] = q
    flat_p, flat_q = rp.reshape(-1), rq.reshape(-1)
    b = np.arange(len(ps))
    base_p, base_q = b * rp.shape[1], b * rq.shape[1]
    steps = rp.shape[1] + rq.shape[1]
    rows = np.zeros((steps, b.size), dtype=np.intp)
    cols = np.zeros((steps, b.size), dtype=np.intp)
    mass = np.zeros((steps, b.size))
    t = 0
    while t < steps:
        i = rp.argmax(axis=1)
        j = rq.argmax(axis=1)
        at_p, at_q = base_p + i, base_q + j
        m = np.minimum(flat_p[at_p], flat_q[at_q])
        m[m <= RESIDUAL_EPS] = 0.0
        if not m.any():
            break
        flat_p[at_p] -= m
        flat_q[at_q] -= m
        rows[t], cols[t], mass[t] = i, j, m
        t += 1
    return zip(rows[:t].T, cols[:t].T, mass[:t].T)


def row_searchsorted(
    cdfs: np.ndarray, lo: np.ndarray, hi: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Inverse-CDF index of each ``u[i]`` within its own row ``cdfs[lo[i]:hi[i]+1]``.

    Equal to ``lo + min(searchsorted(row, u, side="right"), len(row) - 1)``
    for every i: a vectorized bisection confined to each row, so a draw
    never crosses into a neighbouring row, and ``u`` is compared with the
    stored CDF values themselves, never with shifted copies of them.
    """
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        # mid == hi only once lo == hi; such a row has its answer already.
        right = (cdfs[mid] <= u) & (mid < hi)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
    return lo


def _table_fits(lo: int, hi: int, n: int) -> bool:
    """The one rule for a table indexed by ``id - lo``: ids ``lo..hi`` span at most ``n``."""
    return hi - lo < n


#: Values coded or counted per pass; bounds the temporaries of the chunked
#: column passes (``symbol_codes``, ``symbol_counts`` and their callers).
CODE_CHUNK = 1 << 14


def chunks(n: int) -> list[slice]:
    """Slices of ``CODE_CHUNK`` rows that cover ``range(n)`` in order."""
    step = CODE_CHUNK
    return [slice(start, start + step) for start in range(0, n, step)]


def symbol_coder(
    ids: np.ndarray, n: int, *, known: bool = False
) -> Callable[[np.ndarray], np.ndarray]:
    """A function that codes chunks of one column of ``n`` int64 values: the
    index of each value in the ascending, distinct int64 ``ids``, or -1
    where it is absent.

    Built once per column, and ``_table_fits`` is applied to the whole
    column: where ``ids`` span at most ``n``, a table indexed by
    ``id - min`` holds each id's code and a chunk is coded by one gather;
    otherwise by ``np.searchsorted``. With ``known``, every value is one of
    ``ids``, so the range and found checks are skipped. Values outside the
    span are never offset, so ids near the int64 limits cannot wrap around.
    """
    if not ids.size:
        return lambda values: np.full(values.shape, -1, dtype=np.intp)
    lo, hi = int(ids[0]), int(ids[-1])
    if not _table_fits(lo, hi, n):
        if known:
            return lambda values: np.searchsorted(ids, values)

        def search(values):
            pos = np.searchsorted(ids, values)
            found = ids[np.minimum(pos, len(ids) - 1)] == values
            return np.where(found, pos, -1)

        return search
    table = np.full(hi - lo + 1, -1, dtype=np.intp)
    table[ids - lo] = np.arange(len(ids))
    if known:
        return lambda values: table[values - lo]

    def gather(values):
        codes = table[np.clip(values, lo, hi) - lo]
        codes[(values < lo) | (values > hi)] = -1
        return codes

    return gather


def symbol_codes(
    values: np.ndarray, ids: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Dense code of each of the int64 ``values``: ``(ids, codes)``.

    With ``ids`` None the ids are the distinct values ascending (from
    ``symbol_counts``), and the result equals ``np.unique(values,
    return_inverse=True)``. Given ``ids`` (ascending and distinct),
    ``codes[i]`` is the index of ``values[i]`` in them, or -1 where it is
    absent. ``symbol_coder`` codes the column ``CODE_CHUNK`` values at a
    time into the one output array, so beyond it only a table no larger
    than the column and fixed-size temporaries are held.
    """
    values = np.asarray(values, dtype=np.int64)
    known = ids is None
    ids = symbol_counts(values)[0] if known else np.asarray(ids, dtype=np.int64)
    code = symbol_coder(ids, values.size, known=known)
    codes = np.empty(values.shape, dtype=np.intp)
    for part in chunks(values.size):
        codes[part] = code(values[part])
    return ids, codes


def symbol_counts(values: np.ndarray, *, overwrite: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_counts=True)`` of int64 ``values``.

    Under ``symbol_coder``'s rule: where the values span at most
    ``len(values)``, a table of counts indexed by ``value - min``, filled
    ``CODE_CHUNK`` values at a time (by ``bincount`` where the table is no
    longer than a chunk, else by ``np.add.at``, so a pass costs O(chunk)
    either way); else the sort. With ``overwrite``, ``values`` must be an
    int64 array that the caller owns and will not read again: it is offset
    in place and counted by one ``bincount``, or sorted in place, so no
    temporary as long as the column is made.
    """
    values = np.asarray(values, dtype=np.int64)
    if not values.size:
        return values.copy(), np.zeros(0, dtype=np.intp)
    lo, hi = int(values.min()), int(values.max())
    if not _table_fits(lo, hi, values.size):
        if overwrite:
            values.sort()
            return _runs(values)
        return _runs(np.sort(values))
    if overwrite:
        values -= lo
        counts = np.bincount(values, minlength=hi - lo + 1)
    else:
        counts = np.zeros(hi - lo + 1, dtype=np.intp)
        for part in chunks(values.size):
            offset = values[part] - lo
            if len(counts) <= len(offset):
                counts += np.bincount(offset, minlength=len(counts))
            else:
                np.add.at(counts, offset, 1)
    seen = np.flatnonzero(counts)
    return seen + lo, counts[seen]


def _runs(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the sorted, non-empty ``ordered`` and the length of each run."""
    start = np.empty(ordered.size, dtype=bool)
    start[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=start[1:])
    first = np.flatnonzero(start)
    return ordered[first], np.diff(first, append=ordered.size)
