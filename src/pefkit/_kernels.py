"""The two numeric inner loops that every layer shares.

``entropy_bits`` is summed by dist, coupling and qopt; ``greedy_fill``
builds every greedy coupling, including the one inside each call of the
Q objective. Both take and return plain arrays, not ``Categorical`` or
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
