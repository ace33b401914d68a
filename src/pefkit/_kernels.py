"""The numeric inner loops that every layer shares.

``entropy_bits`` is summed by dist, coupling and qopt. Every greedy
coupling comes from ``greedy_cells``, which runs a heap per coupling below
``LOCKSTEP_MIN`` couplings and steps them in lockstep from there, with the
same cells bit for bit; ``greedy_fill`` is its dense view of one coupling.
``row_searchsorted`` draws every stochastic erasure. ``symbol_codes``
gives each symbol id its dense code and ``symbol_counts`` counts the ids,
for every per-row lookup: ``apply``'s row of each sample, the labels and
cells of ``evaluate``'s joint counts, the groups of Algorithm 1 and the
owner check of ``erase --dists``. Where the ids span no more than the
rows being coded, both index a table by ``id - min`` (O(n), no sort);
otherwise they sort or search as ``np.unique`` and ``np.searchsorted`` do.
All take and return plain arrays, not ``Categorical`` or ``Coupling``
values, so hot callers skip the validation those types do on
construction, and this module imports nothing from pefkit, so every other
module can use it without an import cycle.
"""

from __future__ import annotations

import heapq

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


def symbol_codes(
    values: np.ndarray, ids: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Dense code of each of the int64 ``values``: ``(ids, codes)``.

    With ``ids`` None the ids are the distinct values ascending, and the
    result equals ``np.unique(values, return_inverse=True)``. Given ``ids``
    (ascending and distinct), ``codes[i]`` is the index of ``values[i]`` in
    them, or -1 where it is absent.

    One rule picks the path. When the ids span (largest minus smallest,
    plus one) is at most ``len(values)``, a table indexed by ``id - min``
    holds each id's code, and coding is one gather: O(n), and the table is
    never larger than the column being coded. Otherwise ``np.unique`` or
    ``np.searchsorted`` sort or search, as before. The span is taken in
    Python ints and only in-range values are offset, so ids near the int64
    limits cannot wrap around.
    """
    values = np.asarray(values, dtype=np.int64)
    if ids is None:
        if not values.size:
            return values.copy(), np.zeros(0, dtype=np.intp)
        lo, hi = int(values.min()), int(values.max())
        if not _table_fits(lo, hi, values.size):
            ids, codes = np.unique(values, return_inverse=True)
            return ids, codes.reshape(-1)
        offset = values - lo
        seen = np.zeros(hi - lo + 1, dtype=bool)
        seen[offset] = True
        table = np.cumsum(seen, dtype=np.intp) - 1
        return np.flatnonzero(seen) + lo, table[offset]
    ids = np.asarray(ids, dtype=np.int64)
    if not ids.size:
        return ids, np.full(values.shape, -1, dtype=np.intp)
    lo, hi = int(ids[0]), int(ids[-1])
    if not _table_fits(lo, hi, values.size):
        pos = np.searchsorted(ids, values)
        found = ids[np.minimum(pos, len(ids) - 1)] == values
        return ids, np.where(found, pos, -1)
    table = np.full(hi - lo + 1, -1, dtype=np.intp)
    table[ids - lo] = np.arange(len(ids))
    codes = table[np.clip(values, lo, hi) - lo]
    codes[(values < lo) | (values > hi)] = -1
    return ids, codes


def symbol_counts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_counts=True)`` of int64 ``values``.

    Under ``symbol_codes``' rule: one ``bincount`` over ``value - min``
    where the values span at most ``len(values)``, else the sort.
    """
    values = np.asarray(values, dtype=np.int64)
    if not values.size:
        return values.copy(), np.zeros(0, dtype=np.intp)
    lo, hi = int(values.min()), int(values.max())
    if not _table_fits(lo, hi, values.size):
        return np.unique(values, return_counts=True)
    counts = np.bincount(values - lo, minlength=hi - lo + 1)
    seen = np.flatnonzero(counts)
    return seen + lo, counts[seen]
