"""Minimum entropy coupling.

Greedy construction, an exact brute-force oracle on small instances,
coupling entropy, and the projected-gradient-descent joint solver over
couplings with a shared column marginal.

Both exact tools build on one 0/1 marginal matrix (``_marginals``) that
maps a flattened coupling to its row and column sums. The oracle takes
the polytope's vertices as the basic solutions of its nonsingular square
subsystems; PGD projects onto the affine set its blocks define.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import entropy_bits, greedy_fill
from .dist import TRIM_EPS, Categorical, DistError, GroupedData

MARGINAL_TOL = 1e-8
_LN2 = float(np.log(2.0))
#: pgd_solve's initial gradient step, halved on each rejected step.
_PGD_STEP = 0.01
#: pgd_solve's tolerance on the Dykstra and feasibility-polish projections.
_PGD_TOL = 1e-8


class CouplingError(ValueError):
    """Invalid coupling or infeasible oracle instance."""


class InstanceTooLarge(CouplingError):
    """Oracle instance exceeds the exact-enumeration cell cap."""


@dataclass(frozen=True, eq=False)
class Coupling:
    """A joint distribution matrix with fixed row and column marginals."""

    row_support: tuple[int, ...]
    col_support: tuple[int, ...]
    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=np.float64)
        if mass.shape != (len(self.row_support), len(self.col_support)):
            raise CouplingError("mass shape must match supports")
        if np.any(mass < -MARGINAL_TOL):
            raise CouplingError("coupling mass must be non-negative")
        if abs(mass.sum() - 1.0) > MARGINAL_TOL:
            raise CouplingError("total coupling mass must be 1")
        mass = np.maximum(mass, 0.0)
        mass.setflags(write=False)
        object.__setattr__(self, "row_support", tuple(int(s) for s in self.row_support))
        object.__setattr__(self, "col_support", tuple(int(s) for s in self.col_support))
        object.__setattr__(self, "mass", mass)

    @property
    def row_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    @property
    def col_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=0)

    def write_csv(self, path) -> None:
        """Header row of column symbol ids, then one mass row per row symbol."""
        with open(path, "w") as fh:
            fh.write("row_symbol," + ",".join(str(c) for c in self.col_support) + "\n")
            for s, row in zip(self.row_support, self.mass):
                fh.write(f"{s}," + ",".join(repr(float(v)) for v in row) + "\n")


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
    rows: np.ndarray, cols: np.ndarray, mass: np.ndarray, p: Categorical
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P(Z|X=x_k) per row symbol of one coupling, from its non-zero cells.

    Cell t has mass ``mass[t]`` at row ``rows[t]``, an index into
    ``p.support``, and column ``cols[t]``; cells come in row-major order,
    none twice, as ``_kernels.live_cells`` returns them. Returns the cells
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
    if np.any(np.abs(totals - p.probs) > MARGINAL_TOL):
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
# Projected gradient descent on the joint coupling objective.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PgdProblem:
    """Joint optimization over per-group couplings with a shared column marginal."""

    group_dists: tuple[Categorical, ...]
    priors: np.ndarray
    out_size: int
    max_iters: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "group_dists", tuple(self.group_dists))
        object.__setattr__(
            self, "priors", np.asarray(self.priors, dtype=np.float64)
        )
        if self.out_size < 1:
            raise DistError("out_size must be >= 1")
        for d in self.group_dists:
            if len(d) > 16 or self.out_size > 16:
                warnings.warn(
                    "pgd_solve is intended for supports <= 16; larger instances "
                    "may be slow"
                )
                break


@dataclass(frozen=True)
class PgdResult:
    couplings: list[Coupling]
    q: Categorical
    objective: float
    converged: bool
    n_iters: int
    constraint_residual: float


def _pgd_objective(mats: list[np.ndarray], priors: np.ndarray) -> float:
    """H(mean column marginal) - sum_i p(a_i) H_joint(Gamma_i), in bits."""
    qbar = np.mean([m.sum(axis=0) for m in mats], axis=0)
    val = entropy_bits(np.ascontiguousarray(qbar))
    for pr, m in zip(priors, mats):
        val -= pr * entropy_bits(m.ravel())
    return float(val)


def _pgd_gradient(mats: list[np.ndarray], priors: np.ndarray) -> list[np.ndarray]:
    qbar = np.mean([m.sum(axis=0) for m in mats], axis=0)
    n_g = len(mats)
    c = 1.0 / _LN2
    dq = (-np.log2(np.maximum(qbar, 1e-300)) - c) / n_g
    grads = []
    for pr, m in zip(priors, mats):
        g = np.broadcast_to(dq, m.shape).copy()
        g += pr * (np.log2(np.maximum(m, 1e-300)) + c)
        grads.append(g)
    return grads


class _AffineProjector:
    """Least-squares projection onto {row sums = P_i, equal column sums}."""

    def __init__(self, shapes: list[tuple[int, int]], probs: list[np.ndarray]):
        offsets = np.concatenate([[0], np.cumsum([r * c for r, c in shapes])])
        r0, c0 = shapes[0]
        sums, ties = [], []  # per group: row sums = P_i; column sums = group 0's
        for gi, (r, c) in enumerate(shapes):
            block = np.zeros((r + c, int(offsets[-1])))
            block[:, offsets[gi] : offsets[gi + 1]] = _marginals(r, c)
            sums.append(block[:r])
            if gi:
                block[r:, : offsets[1]] = -_marginals(r0, c0)[r0:]
                ties.append(block[r:])
        self.shapes = shapes
        self.offsets = offsets
        self.a = np.vstack(sums + ties)
        self.b = np.concatenate([*probs, *(np.zeros(len(t)) for t in ties)])
        self.solver = np.linalg.pinv(self.a @ self.a.T)

    def project(self, x: np.ndarray) -> np.ndarray:
        resid = self.a @ x - self.b
        return x - self.a.T @ (self.solver @ resid)

    def residual(self, x: np.ndarray) -> float:
        return float(np.max(np.abs(self.a @ x - self.b)))

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        return [
            x[self.offsets[i] : self.offsets[i + 1]].reshape(self.shapes[i])
            for i in range(len(self.shapes))
        ]


def _dykstra(x: np.ndarray, proj: _AffineProjector, tol: float, max_sweeps: int = 500):
    """Dykstra alternating projections onto the affine set and the nonnegative orthant."""
    y = x.copy()
    p_corr = np.zeros_like(x)
    q_corr = np.zeros_like(x)
    for _ in range(max_sweeps):
        u = proj.project(y + p_corr)
        p_corr = y + p_corr - u
        y_new = np.maximum(u + q_corr, 0.0)
        q_corr = u + q_corr - y_new
        if np.max(np.abs(y_new - y)) < tol and proj.residual(y_new) < 10 * tol:
            return y_new
        y = y_new
    return y


def _polish_feasibility(
    x: np.ndarray, proj: _AffineProjector, tol: float, max_sweeps: int = 20000
) -> np.ndarray:
    """Drive an iterate into the constraint set by plain alternating projections."""
    for _ in range(max_sweeps):
        x = np.maximum(proj.project(x), 0.0)
        if proj.residual(x) < tol:
            break
    return x


def pgd_solve(
    problem: PgdProblem,
    rng_seed: int,
    init_q: np.ndarray | None = None,
) -> PgdResult:
    """Projected gradient ascent on the joint coupling objective.

    Starts from greedy couplings against ``init_q`` (default: the padded
    average of the sorted group distributions) plus one random-restart from
    a seeded Dirichlet draw; keeps the best iterate seen. The objective is
    non-decreasing across accepted iterates within 1e-6 slack.
    """
    dists = problem.group_dists
    nz = problem.out_size
    if any(len(d) > nz for d in dists):
        raise DistError("out_size must be >= every group support size")
    rng = np.random.default_rng(rng_seed)
    shapes = [(len(d), nz) for d in dists]
    proj = _AffineProjector(shapes, [d.probs for d in dists])

    def padded_sorted(d: Categorical) -> np.ndarray:
        v = np.zeros(nz)
        v[: len(d)] = np.sort(d.probs)[::-1]
        return v

    if init_q is None:
        q0 = np.mean([padded_sorted(d) for d in dists], axis=0)
    else:
        q0 = np.asarray(init_q, dtype=np.float64)
        if q0.size != nz:
            raise DistError("init_q must have length out_size")
        q0 = q0 / q0.sum()
    starts = [q0, rng.dirichlet(np.ones(nz))]

    best_x = None
    best_obj = -np.inf
    best_iters = 0
    converged = False
    for start_q in starts:
        x = np.concatenate(
            [greedy_fill(d.probs, start_q).ravel() for d in dists]
        )
        x = _dykstra(x, proj, _PGD_TOL)
        obj = _pgd_objective(proj.split(x), problem.priors)
        step = _PGD_STEP
        stalled = 0
        it = 0
        for it in range(1, problem.max_iters + 1):
            grads = _pgd_gradient(proj.split(x), problem.priors)
            cand = x + step * np.concatenate([g.ravel() for g in grads])
            cand = _dykstra(cand, proj, _PGD_TOL)
            cand_obj = _pgd_objective(proj.split(cand), problem.priors)
            if cand_obj >= obj - 1e-6:
                if abs(cand_obj - obj) < 1e-10:
                    stalled += 1
                else:
                    stalled = 0
                x, obj = cand, cand_obj
            else:
                step *= 0.5
                stalled += 1
            if step < 1e-9 or stalled >= 10:
                converged = True
                break
        if obj > best_obj:
            best_obj = obj
            best_x = x
            best_iters = it
    if not converged:
        warnings.warn("pgd_solve did not converge within max_iters; returning best iterate")

    best_x = _polish_feasibility(best_x, proj, _PGD_TOL)
    best_obj = _pgd_objective(proj.split(best_x), problem.priors)
    mats = proj.split(best_x)
    q_probs = np.mean([m.sum(axis=0) for m in mats], axis=0)
    q_probs = np.maximum(q_probs, 0.0)
    q_probs = q_probs / q_probs.sum()
    out_support = tuple(range(nz))
    couplings = []
    for d, m in zip(dists, mats):
        mass = np.maximum(m, 0.0)
        mass = mass * (1.0 / mass.sum())
        couplings.append(Coupling(d.support, out_support, mass))
    q = Categorical(out_support, q_probs)
    return PgdResult(
        couplings=couplings,
        q=q,
        objective=float(best_obj),
        converged=converged,
        n_iters=best_iters,
        constraint_residual=proj.residual(best_x),
    )
