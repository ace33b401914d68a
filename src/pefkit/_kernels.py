"""The numeric inner loops that every layer shares.

``entropy_bits`` is summed by dist, coupling and qopt. Greedy couplings
come from one of two kernels, chosen by how many the caller needs at once.
``greedy_fill_batch`` steps many couplings in lockstep and returns their
cells, which ``live_cells`` splits per problem in row-major order: the
stationary Q scan couples every (candidate, group) pair in one call, and
``build_stochastic_pef`` every group onto the chosen Q in another, so
neither builds a dense mass matrix. ``greedy_fill`` is a heap that builds
one dense coupling: ``objective_j`` in GP-UCB rounds, ``greedy_mec`` (the
``mec`` command) and PGD. ``row_searchsorted`` draws every stochastic
erasure. All take and return plain arrays, not ``Categorical`` or
``Coupling`` values, so hot callers skip the validation those types do on
construction, and this module imports nothing from pefkit, so every other
module can use it without an import cycle.
"""

from __future__ import annotations

import heapq

import numpy as np

# Residuals below this are treated as exhausted in the greedy loop.
RESIDUAL_EPS = 1e-12

# There is one numpy path; perfbench/run.py's environment() reads this for
# its host diagnostics, and nothing else does.
USING_NUMBA = False


def entropy_bits(probs: np.ndarray) -> float:
    p = probs[probs > 0.0]
    return float(-np.sum(p * np.log2(p)))


def greedy_fill(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Greedy coupling: repeatedly pair the largest residuals.

    Each side's residuals sit in a heap of ``(-residual, index)``, so a
    step costs O(log(m + n)). Ties resolve to the lowest index, which is
    the lowest symbol id because supports are kept in ascending-id order.
    """
    hp = [(-r, i) for i, r in enumerate(p.tolist())]
    hq = [(-r, j) for j, r in enumerate(q.tolist())]
    heapq.heapify(hp)
    heapq.heapify(hq)
    mass = np.zeros((p.size, q.size))
    for _ in range(p.size + q.size):
        neg_rp, i = hp[0]
        neg_rq, j = hq[0]
        m = min(-neg_rp, -neg_rq)
        if m <= RESIDUAL_EPS:
            break
        mass[i, j] += m
        heapq.heapreplace(hp, (neg_rp + m, i))
        heapq.heapreplace(hq, (neg_rq + m, j))
    return mass


def greedy_fill_batch(
    p: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy couplings of B problems at once, stepped in lockstep.

    ``p`` (B, m) and ``q`` (B, n) hold one problem per row, zero-padded on
    the right. Each step takes the first maximum of every residual row with
    ``argmax``, pairs them with their minimum and subtracts it from both,
    until every problem's minimum is at most ``RESIDUAL_EPS``; a finished
    problem records and subtracts 0. This is the argmax form of
    ``greedy_fill`` run across problems: the same tie rule (lowest index),
    stop rule and subtraction, so problem b's cells with mass > 0 are
    exactly the nonzero cells of ``greedy_fill(p[b], q[b])``, bit for bit,
    and padding is never paired while mass remains. Returns ``(rows, cols,
    mass)``, each of shape (steps, B); no cell appears twice in a problem.

    A step scans whole rows, O(B (m + n)) per step against the heap's
    O(log(m + n)), so it pays off over several problems at once: the
    stationary scan's ``n_groups**2`` couplings and the erasure function's
    ``n_groups`` (one per group onto Q), both dominant on the
    ``wide_unequal`` workload. A single coupling per GP-UCB round
    (``bo_unequal``) stays on ``greedy_fill``.
    """
    # order="C": a broadcast input would otherwise keep its strides.
    rp = np.array(p, dtype=np.float64, order="C")
    rq = np.array(q, dtype=np.float64, order="C")
    b = np.arange(rp.shape[0])
    steps = rp.shape[1] + rq.shape[1]
    rows = np.zeros((steps, b.size), dtype=np.intp)
    cols = np.zeros((steps, b.size), dtype=np.intp)
    mass = np.zeros((steps, b.size))
    t = 0
    while t < steps:
        i = rp.argmax(axis=1)
        j = rq.argmax(axis=1)
        m = np.minimum(rp[b, i], rq[b, j])
        m[m <= RESIDUAL_EPS] = 0.0
        if not m.any():
            break
        rp[b, i] -= m
        rq[b, j] -= m
        rows[t], cols[t], mass[t] = i, j, m
        t += 1
    return rows[:t], cols[:t], mass[:t]


def zero_padded(rows: list[np.ndarray]) -> np.ndarray:
    """Stack 1-d arrays of any lengths as the rows of one matrix, zero-filled on the right."""
    out = np.zeros((len(rows), max(r.size for r in rows)))
    for k, r in enumerate(rows):
        out[k, : r.size] = r
    return out


def live_cells(
    rows: np.ndarray, cols: np.ndarray, mass: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each problem's cells of a ``greedy_fill_batch`` result, in row-major order.

    Returns one ``(rows, cols, mass)`` per problem, holding only its cells
    with mass > 0, sorted by row and then by column: the order of
    ``np.nonzero`` on that problem's dense ``greedy_fill`` mass, so sums
    over them round as sums over ``mass[mass > 0]`` do.
    """
    out = []
    for b in range(mass.shape[1]):
        live = mass[:, b] > 0.0
        r, c, m = rows[live, b], cols[live, b], mass[live, b]
        order = np.lexsort((c, r))
        out.append((r[order], c[order], m[order]))
    return out


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
