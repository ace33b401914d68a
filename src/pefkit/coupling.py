"""Minimum entropy coupling.

Greedy construction, an exact brute-force oracle on small instances,
coupling entropy, and the PGD joint solver over couplings with a shared
column marginal.

The oracle builds on the 0/1 marginal matrix (``_marginals``) that maps a
flattened coupling to its row and column sums, and takes the polytope's
vertices as the basic solutions of its nonsingular square subsystems.
PGD is entropic mirror ascent: each multiplicative step is projected back
in KL by row and column scaling, so every iterate is a feasible coupling.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import entropy_bits, greedy_fill
from .dist import TRIM_EPS, Categorical, GroupedData, _column, _freeze, write_csv
from .qopt import output_support, select_q

MARGINAL_TOL = 1e-8
_LN2 = float(np.log(2.0))
#: pgd_solve's first mirror step, halved on each rejected step.
_PGD_STEP = 4.0
#: pgd_solve's iteration cap per start.
_PGD_ITERS = 1000
#: Weight of the independent coupling in each pgd_solve start.
_PGD_BLEND = 0.1
#: _scale_to_marginals stops once the groups' column sums agree within this.
_SCALING_TOL = 1e-9
#: Sweeps after which _scale_to_marginals gives up and the step is rejected.
_SCALING_SWEEPS = 100_000


class CouplingError(ValueError):
    """Invalid coupling or infeasible oracle instance."""


class InstanceTooLarge(CouplingError):
    """Oracle instance exceeds the exact-enumeration cell cap."""


@dataclass(frozen=True, eq=False)
class Coupling:
    """A joint distribution matrix with fixed row and column marginals,
    over read-only int64 row and column supports."""

    row_support: np.ndarray
    col_support: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        rows = _column(self.row_support, "row_support")
        cols = _column(self.col_support, "col_support")
        mass = np.asarray(self.mass, dtype=np.float64)
        if mass.shape != (len(rows), len(cols)):
            raise CouplingError("mass shape must match supports")
        if np.any(mass < -MARGINAL_TOL):
            raise CouplingError("coupling mass must be non-negative")
        if abs(mass.sum() - 1.0) > MARGINAL_TOL:
            raise CouplingError("total coupling mass must be 1")
        _freeze(self, row_support=rows, col_support=cols, mass=np.maximum(mass, 0.0))

    def write_csv(self, path) -> None:
        """Header row of column symbol ids, then one mass row per row symbol."""
        write_csv(path, ["row_symbol", *self.col_support],
                  ([s, *row] for s, row in zip(self.row_support, self.mass)))


def greedy_mec(p: Categorical, q: Categorical) -> Coupling:
    """Greedy approximate minimum entropy coupling of ``p`` and ``q``.

    Repeatedly allocates the min of the largest residual masses (ties by
    ascending symbol id) to one cell; terminates after at most
    ``|p| + |q| - 1`` allocations. The residuals are kept in two heaps,
    so the cost is O((m + n) log(m + n)) for ``m = |p|``, ``n = |q|``,
    plus filling the dense ``m x n`` mass matrix.
    """
    mass = greedy_fill(p.probs, q.probs)
    return Coupling(p.support, q.support, mass)


def coupling_entropy(c: Coupling) -> float:
    """Joint entropy of the coupling, in bits."""
    return entropy_bits(c.mass.ravel())


def conditional_rows(
    rows: np.ndarray, cols: np.ndarray, mass: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P(Z|X=x_k) per row of one coupling, from its non-zero cells.

    Cell t has mass ``mass[t]`` at row ``rows[t]`` and column ``cols[t]``,
    and ``p[k]`` is row k's probability; cells come in row-major order,
    none twice, as ``_kernels.greedy_cells`` returns them. Returns the cells
    as ``(bounds, cols, probs)``: row k holds ``cols[bounds[k]:bounds[k + 1]]``.
    Each row is normalized by its mass summed over its cells in order; as
    in Categorical, cells of ``TRIM_EPS`` or less after that are dropped.
    Raises CouplingError unless the cells form a coupling with row
    marginal ``p``, as ``Coupling`` and the dense checks would.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    mass = np.asarray(mass, dtype=np.float64)
    if not rows.shape == cols.shape == mass.shape or mass.ndim != 1:
        raise CouplingError("need one row, column and mass per cell")
    if np.any(mass < 0.0):
        raise CouplingError("coupling mass must be non-negative")
    if abs(mass.sum() - 1.0) > MARGINAL_TOL:
        raise CouplingError("total coupling mass must be 1")
    if rows.min() < 0 or rows.max() >= len(p) or cols.min() < 0:
        raise CouplingError("cell indices must fall inside the supports")
    if np.any(np.diff(rows * (cols.max() + 1) + cols) <= 0):
        raise CouplingError("cells must be in row-major order, each once")
    totals = np.bincount(rows, mass, minlength=len(p))
    if np.any(np.abs(totals - p) > MARGINAL_TOL):
        raise CouplingError("coupling row marginals do not match p")
    if np.any(totals <= 0):
        raise CouplingError("zero-mass row in coupling")
    probs = mass / totals[rows]
    keep = probs > TRIM_EPS
    bounds = np.concatenate([[0], np.cumsum(np.bincount(rows[keep], minlength=len(p)))])
    return bounds, cols[keep], probs[keep]


# ---------------------------------------------------------------------------
# Exact oracle: vertex enumeration of the transportation polytope.
# ---------------------------------------------------------------------------

def _marginals(m: int, n: int) -> np.ndarray:
    """The (m+n, m*n) 0/1 matrix taking an m x n mass, flattened row-major
    (cell (i, j) at i*n + j), to its row sums and then its column sums."""
    return np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])


#: Cell subsets whose subsystem is tested per batched det/inv call.
_BASIS_CHUNK = 4096


@lru_cache(maxsize=None)
def _basis_weights(m: int, n: int) -> np.ndarray:
    """Weight tensor W of shape (n_bases, m*n, m+n).

    The last marginal constraint is implied by the others, so a vertex of
    the transportation polytope is the basic solution of a nonsingular
    square subsystem of the other m+n-1 constraints on m+n-1 cells. The
    marginal matrix is totally unimodular, so each such subsystem has
    determinant +-1 and an integer inverse; its basic solution is linear
    in the stacked marginals [p; q], so the vertex cells are W[b] @ [p; q].
    Computed once per shape and cached; the per-instance oracle is then a
    matrix product.
    """
    a = _marginals(m, n)[:-1]
    k = m + n - 1
    combos = itertools.combinations(range(m * n), k)
    bases = []
    for chunk in iter(lambda: list(itertools.islice(combos, _BASIS_CHUNK)), []):
        cells = np.array(chunk)
        sub = a[:, cells].transpose(1, 0, 2)  # (chunk, constraint, cell)
        keep = np.abs(np.linalg.det(sub)) > 0.5
        w = np.zeros((np.count_nonzero(keep), m * n, m + n))
        w[np.arange(len(w))[:, None], cells[keep], :k] = np.rint(np.linalg.inv(sub[keep]))
        bases.append(w)
    return np.concatenate(bases)


def mec_oracle(p: Categorical, q: Categorical, max_cells: int = 20) -> Coupling:
    """Exact minimum entropy coupling by enumerating polytope vertices.

    Entropy is concave, so the minimum over the transportation polytope is
    attained at a vertex; every vertex is the basic solution of some
    nonsingular square subsystem of the marginal constraints. Only feasible
    for ``|p| * |q| <= max_cells``.
    """
    m, n = len(p), len(q)
    if m * n > max_cells:
        raise InstanceTooLarge(f"{m}x{n} instance exceeds max_cells={max_cells}")
    w = _basis_weights(m, n)
    pq = np.concatenate([p.probs, q.probs])
    verts = w @ pq  # (n_bases, m*n)
    feasible = np.all(verts >= -1e-10, axis=1)
    if not np.any(feasible):  # pragma: no cover - cannot happen for valid marginals
        raise CouplingError("no feasible vertex found")
    verts = np.clip(verts[feasible], 0.0, None)
    safe = np.where(verts > 0.0, verts, 1.0)
    entropies = -np.sum(verts * np.log2(safe), axis=1)
    best = int(np.argmin(entropies))
    return Coupling(p.support, q.support, verts[best].reshape(m, n))


# ---------------------------------------------------------------------------
# Mirror ascent on the joint coupling objective.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PgdResult:
    """The best point pgd_solve saw; ``constraint_residual`` is the largest
    row-sum error or column-sum spread across groups."""

    couplings: list[Coupling]
    q: Categorical
    objective: float
    constraint_residual: float


def _pgd_objective(x: np.ndarray, bounds: np.ndarray, priors: np.ndarray) -> float:
    """H(mean column marginal) - sum_i p(a_i) H_joint(Gamma_i), in bits, where
    Gamma_i is rows ``bounds[i]:bounds[i + 1]`` of the stacked couplings ``x``."""
    qbar = np.add.reduceat(x, bounds[:-1], axis=0).mean(axis=0)
    val = entropy_bits(qbar)
    for pr, lo, hi in zip(priors, bounds[:-1], bounds[1:]):
        val -= pr * entropy_bits(x[lo:hi].ravel())
    return float(val)


def _pgd_gradient(x: np.ndarray, bounds: np.ndarray, priors: np.ndarray) -> np.ndarray:
    qbar = np.add.reduceat(x, bounds[:-1], axis=0).mean(axis=0)
    c = 1.0 / _LN2
    dq = (-np.log2(np.maximum(qbar, 1e-300)) - c) / len(priors)
    row_priors = np.repeat(priors, np.diff(bounds))[:, None]
    return dq + row_priors * (np.log2(np.maximum(x, 1e-300)) + c)


def _scale_to_marginals(
    x: np.ndarray, p: np.ndarray, bounds: np.ndarray, group: np.ndarray
) -> np.ndarray | None:
    """KL projection of stacked couplings onto row sums ``p`` and equal column sums.

    Group i's coupling is rows ``bounds[i]:bounds[i + 1]`` of ``x``, and
    ``group`` names each row's group. Alternates the two Bregman
    projections: every row scaled to its ``p``, then every group's columns
    to the geometric mean of the groups' column sums (a column empty in
    any group is emptied in every group). Returns the scaled ``x`` once its column sums
    agree within ``_SCALING_TOL``, or None if ``_SCALING_SWEEPS`` pass first.
    """
    for _ in range(_SCALING_SWEEPS):
        x = x * (p / x.sum(axis=1))[:, None]
        cols = np.add.reduceat(x, bounds[:-1], axis=0)
        if np.max(np.ptp(cols, axis=0)) <= _SCALING_TOL:
            return x
        live = cols > 0.0
        logs = np.log(cols, out=np.full_like(cols, -np.inf), where=live)
        target = np.exp(logs.mean(axis=0))
        x = x * np.divide(target, cols, out=np.zeros_like(cols), where=live)[group]
    return None


def pgd_solve(g: GroupedData, out_size: int, rng_seed: int) -> PgdResult:
    """Entropic mirror ascent on the joint coupling objective over ``out_size``
    fresh output ids (``output_support``).

    Each step multiplies every coupling by ``2 ** (step * gradient)`` and
    scales the product back onto the constraint set
    (``_scale_to_marginals``), so every iterate is feasible. A step that
    lowers the objective by more than 1e-6, or whose scaling does not
    settle, is rejected and the step halved. There are two starts: the
    greedy couplings against the scan's best Q (``select_q``, which checks
    ``out_size``), then against a seeded Dirichlet draw over all
    ``out_size`` ids. A multiplicative step cannot revive a zero cell, so
    only the second start can use ids past the scan's Q, and each start's
    greedy couplings are blended with the independent coupling before the
    ascent; the unblended greedy couplings are scored first, and the result
    is the best point seen, never below the scan.
    """
    scan_q = select_q(g, out_size).dist
    if out_size > 16:
        warnings.warn("pgd_solve is intended for supports <= 16; larger instances may be slow")
    dists = g.dists
    rng = np.random.default_rng(rng_seed)
    q0 = np.zeros(out_size)
    q0[: len(scan_q)] = scan_q.probs
    starts = [q0 / q0.sum(), rng.dirichlet(np.ones(out_size))]

    p = np.concatenate([d.probs for d in dists])
    bounds = np.cumsum([0] + [len(d) for d in dists])
    group = np.repeat(np.arange(len(dists)), np.diff(bounds))

    best_x = None
    best_obj = -np.inf
    converged = False
    for start_q in starts:
        greedy = np.vstack([greedy_fill(d.probs, start_q) for d in dists])
        obj = _pgd_objective(greedy, bounds, g.priors)
        if obj > best_obj:
            best_x, best_obj = greedy, obj
        x = (1.0 - _PGD_BLEND) * greedy + _PGD_BLEND * np.outer(p, start_q)
        obj = _pgd_objective(x, bounds, g.priors)
        step = _PGD_STEP
        stalled = 0
        for _ in range(_PGD_ITERS):
            grad = _pgd_gradient(x, bounds, g.priors)
            # A zero cell stays zero; its factor could overflow, so skip it.
            cand = x * np.exp2(step * grad, out=np.zeros_like(x), where=x > 0.0)
            cand = _scale_to_marginals(cand, p, bounds, group)
            cand_obj = -np.inf if cand is None else _pgd_objective(cand, bounds, g.priors)
            if cand_obj >= obj - 1e-6:
                if abs(cand_obj - obj) < 1e-10:
                    stalled += 1
                else:
                    stalled = 0
                x, obj = cand, cand_obj
                if obj > best_obj:
                    best_x, best_obj = x, obj
            else:
                step *= 0.5
                stalled += 1
            if step < 1e-9 or stalled >= 10:
                converged = True
                break
    if not converged:
        warnings.warn("pgd_solve did not converge within its iteration cap; returning best iterate")

    cols = np.add.reduceat(best_x, bounds[:-1], axis=0)
    q_probs = cols.mean(axis=0)
    q_probs = q_probs / q_probs.sum()
    out_support = output_support(g, out_size)
    couplings = [
        Coupling(d.support, out_support, m * (1.0 / m.sum()))
        for d, m in zip(dists, np.split(best_x, bounds[1:-1]))
    ]
    residual = max(np.max(np.abs(best_x.sum(axis=1) - p)), np.max(np.ptp(cols, axis=0)))
    return PgdResult(
        couplings=couplings,
        q=Categorical(out_support, q_probs),
        objective=float(best_obj),
        constraint_residual=float(residual),
    )
