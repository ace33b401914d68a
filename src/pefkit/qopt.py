"""Selection of the shared output distribution Q for unequal group distributions.

The objective J(Q) = H(Q) - sum_i p(a_i) H_min(P_i, Q) is always <= 0 and
vanishes exactly when every coupling is a permutation matrix. H_min uses the
greedy coupling approximation. Candidates come from a stationary-point scan
over the input distributions and, when a ``BoConfig`` is given,
Gaussian-process UCB Bayesian optimization on the simplex seeded with that
scan. Every J comes from ``_j_values``, which couples all the Q it scores
in one ``greedy_cells`` call; ``objective_j`` scores one. The UCB weight
is the constant ``UCB_KAPPA``. A round's GP posterior runs on matrix
products: one inverse of the Cholesky factor replaces the triangular
solves, which numpy lacks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ._kernels import entropy_bits, greedy_cells
from .dist import Categorical, DistError, GroupedData, entropy, ranked


# The GP-UCB exploration weight; 2.5 matches the reference setup.
UCB_KAPPA = 2.5


@dataclass(frozen=True)
class QCandidate:
    dist: Categorical
    j_value: float
    source: str  # "stationary" | "bayesopt"


@dataclass(frozen=True)
class BoConfig:
    """Gaussian-process UCB configuration; the UCB weight is ``UCB_KAPPA``."""

    budget: int = 100
    n_acq_candidates: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.budget < 1:
            raise DistError("budget must be >= 1")
        if self.n_acq_candidates < 1:
            raise DistError("n_acq_candidates must be >= 1")

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def output_support(g: GroupedData, out_size: int) -> np.ndarray:
    """Fresh output symbol ids, disjoint from every input id: the ``out_size``
    ids after the largest input id. DistError if they pass int64."""
    base = g.max_symbol_id + 1
    if base + out_size - 1 > np.iinfo(np.int64).max:
        raise DistError(
            f"output ids {base}..{base + out_size - 1} pass the int64 limit 2**63 - 1"
        )
    return np.arange(base, base + out_size, dtype=np.int64)


def default_out_size(g: GroupedData) -> int:
    return max(len(d) for d in g.dists)


def objective_j(q: Categorical, g: GroupedData) -> float:
    """J(Q) in bits; uses the greedy coupling as the H_min surrogate."""
    return _j_values([q], g)[0]


def _j_values(qs: list[Categorical], g: GroupedData) -> list[float]:
    """J of every Q in ``qs``, its couplings from one ``greedy_cells`` call.

    Problem c * n_groups + i couples group i onto ``qs[c]``. J is H(Q)
    minus the prior-weighted coupling entropies, subtracted in group order.
    """
    n_groups = len(g.dists)
    cells = greedy_cells(
        [d.probs for d in g.dists] * len(qs), [q.probs for q in qs for _ in range(n_groups)]
    )
    h = (entropy_bits(mass) for _, _, mass in cells)
    out = []
    for q in qs:
        val = entropy(q)
        for prior in g.priors:
            val -= float(prior) * next(h)
        out.append(float(val))
    return out


def scan_stationary(g: GroupedData, out_size: int) -> list[QCandidate]:
    """Score each input distribution, re-indexed onto the output support.

    Each group's ``ranked`` probabilities are laid out on ascending output
    ids; zero padding beyond the group's support is trimmed by construction.
    Every candidate is scored in one ``_j_values`` batch.
    """
    if out_size < default_out_size(g):
        raise DistError("out_size must be >= the largest group support")
    support = output_support(g, out_size)
    dists = [Categorical(support[: len(d)], ranked(d)[1]) for d in g.dists]
    return [
        QCandidate(dist, j, "stationary") for dist, j in zip(dists, _j_values(dists, g))
    ]


def _softmax_dist(theta: np.ndarray, support: np.ndarray) -> Categorical:
    z = theta - theta.max()
    w = np.exp(z)
    return Categorical(support, w / w.sum())


def _embed_theta(dist: Categorical, support: np.ndarray) -> np.ndarray:
    probs = np.full(len(support), 1e-12)
    probs[np.searchsorted(support, dist.support)] = dist.probs
    return np.log(probs)


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and b, as ||a||^2 + ||b||^2 - 2 a b^T.

    One matrix product instead of an (len(a), len(b), dim) difference array;
    rounding can leave a tiny negative where two rows coincide, so the result
    is clipped at 0.
    """
    d2 = np.einsum("ij,ij->i", a, a)[:, None] + np.einsum("ij,ij->i", b, b)[None, :]
    d2 -= 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0, out=d2)


def _gp_posterior(
    x_obs: np.ndarray,
    y_obs: np.ndarray,
    x_new: np.ndarray,
    lengthscale: float,
    d2_obs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Squared-exponential GP posterior mean and stddev at x_new.

    The kernel sig2 * exp(-d2 / (2 lengthscale^2)) takes its squared
    distances d2 from the Gram expansion in ``_sq_dists``, so the
    candidate-to-observation block costs one matrix product and no
    (len(x_new), len(x_obs), dim) temporary. ``d2_obs`` holds the
    observations' own squared distances, which the caller has already
    computed for the median-heuristic lengthscale.

    The predictive step (Rasmussen & Williams 2006, Alg. 2.1) needs only
    solves with the lower Cholesky factor L of the observation kernel.
    numpy has no triangular solve, so L is inverted once, an
    (n_obs, n_obs) inverse, and every solve becomes a matrix product:
    alpha = L^-T (L^-1 y) and v = L^-1 k_sx^T, the latter over all
    candidates at once.
    """
    y_mean = y_obs.mean()
    y_c = y_obs - y_mean
    sig2 = max(float(y_c.var()), 1e-12)

    def kern(d2):
        return sig2 * np.exp(-0.5 * d2 / lengthscale**2)

    k_xx = kern(d2_obs) + 1e-8 * sig2 * np.eye(len(x_obs))
    k_sx = kern(_sq_dists(x_new, x_obs))
    chol_inv = np.linalg.inv(np.linalg.cholesky(k_xx))
    alpha = chol_inv.T @ (chol_inv @ y_c)
    mean = y_mean + k_sx @ alpha
    v = chol_inv @ k_sx.T
    var = np.maximum(sig2 - np.sum(v**2, axis=0), 1e-18)
    return mean, np.sqrt(var)


def bayes_opt_q(g: GroupedData, out_size: int, cfg: BoConfig) -> QCandidate:
    """Maximize J(Q) with GP-UCB over softmax-parameterized simplex points.

    Every stationary candidate is scored once, even past the budget; the
    first ``cfg.budget`` of them seed the GP's observations, followed by
    symmetric-Dirichlet draws, all scored in one ``_j_values`` batch, and
    each round proposes random candidates and evaluates the UCB maximizer
    with ``objective_j``, until ``cfg.budget`` observations. Returns the
    best stationary candidate unless a proposal beats it strictly, and at
    once when ``out_size`` is 1, where the simplex is a single point.
    Deterministic given the config seed.
    """
    rng = np.random.default_rng(cfg.seed)
    support = output_support(g, out_size)
    stationary = scan_stationary(g, out_size)
    best = max(stationary, key=lambda c: c.j_value)
    if out_size == 1:
        return best
    observed = stationary[: cfg.budget]
    thetas = [_embed_theta(c.dist, support) for c in observed]
    values = [c.j_value for c in observed]

    def record(theta: np.ndarray, dist: Categorical, val: float) -> None:
        nonlocal best
        thetas.append(theta)
        values.append(val)
        if val > best.j_value:
            best = QCandidate(dist, val, "bayesopt")

    n_dirichlet = min(max(2, out_size), max(0, cfg.budget - len(values)))
    # One batched draw equals as many single draws, in order, bit for bit.
    design = [
        np.log(np.maximum(probs, 1e-12))
        for probs in rng.dirichlet(np.ones(out_size), size=n_dirichlet)
    ]
    dists = [_softmax_dist(theta, support) for theta in design]
    for theta, dist, val in zip(design, dists, _j_values(dists, g)):
        record(theta, dist, val)

    while len(values) < cfg.budget:
        x_obs = np.array(thetas)
        y_obs = np.array(values)
        d2_obs = _sq_dists(x_obs, x_obs)
        # The expansion can leave rounding residue where a point meets itself;
        # the median heuristic must skip those zero distances.
        np.fill_diagonal(d2_obs, 0.0)
        ls = float(np.median(np.sqrt(d2_obs[d2_obs > 0])))
        half = cfg.n_acq_candidates // 2
        anchor = thetas[int(np.argmax(values))]
        x_new = np.concatenate([
            np.log(np.maximum(rng.dirichlet(np.ones(out_size), size=half), 1e-12)),
            anchor + 0.25 * rng.standard_normal((cfg.n_acq_candidates - half, out_size)),
        ])
        mean, std = _gp_posterior(x_obs, y_obs, x_new, ls, d2_obs)
        theta = x_new[int(np.argmax(mean + UCB_KAPPA * std))]
        dist = _softmax_dist(theta, support)
        record(theta, dist, objective_j(dist, g))

    return best


def select_q(g: GroupedData, out_size: int, bo: BoConfig | None = None) -> QCandidate:
    """The best stationary candidate, or with ``bo`` the GP-UCB search seeded by it.

    Ties break toward the first stationary candidate.
    """
    if bo is None:
        return max(scan_stationary(g, out_size), key=lambda c: c.j_value)
    return bayes_opt_q(g, out_size, bo)
