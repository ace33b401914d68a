"""Selection of the shared output distribution Q for unequal group distributions.

The objective J(Q) = H(Q) - sum_i p(a_i) H_min(P_i, Q) is always <= 0 and
vanishes exactly when every coupling is a permutation matrix. H_min uses the
greedy coupling approximation (``objective_j`` can swap in the exact oracle
for small instances). Candidates come from a stationary-point scan over the
input distributions and, when a ``BoConfig`` is given, Gaussian-process UCB
Bayesian optimization on the simplex seeded with that scan. The scan scores
all of its ``n_groups**2`` couplings in one ``greedy_fill_batch`` pass, as
``build_stochastic_pef`` then couples every group onto the chosen Q;
``objective_j`` scores one Q at a time on the heap kernel ``greedy_fill``.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import entropy_bits, greedy_fill, greedy_fill_batch, live_cells, zero_padded
from .coupling import mec_oracle
from .dist import Categorical, DistError, GroupedData, entropy


@dataclass(frozen=True)
class QCandidate:
    dist: Categorical
    j_value: float
    source: str  # "stationary" | "bayesopt" | "user"


@dataclass(frozen=True)
class BoConfig:
    """Gaussian-process UCB configuration. kappa=2.5 matches the reference setup."""

    budget: int = 100
    kappa: float = 2.5
    n_acq_candidates: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.budget < 1:
            raise DistError("budget must be >= 1")
        if not 0 < self.kappa < np.inf:
            raise DistError("kappa must be finite and > 0")
        if self.n_acq_candidates < 1:
            raise DistError("n_acq_candidates must be >= 1")

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def output_support(g: GroupedData, out_size: int) -> tuple[int, ...]:
    """Fresh output symbol ids, disjoint from every input id."""
    base = g.max_symbol_id + 1
    return tuple(range(base, base + out_size))


def default_out_size(g: GroupedData) -> int:
    return max(len(d) for d in g.dists)


def objective_j(q: Categorical, g: GroupedData, use_oracle: bool = False) -> float:
    """J(Q) in bits; uses the greedy coupling as the H_min surrogate.

    This runs once per BO evaluation, so it takes the coupling mass straight
    from the kernel instead of building a validated ``Coupling``.
    """
    h = []
    for d in g.dists:
        if use_oracle:
            mass = mec_oracle(d, q).mass
        else:
            mass = greedy_fill(d.probs, q.probs)
        h.append(entropy_bits(mass.ravel()))
    return _j_value(q, g, h)


def _j_value(q: Categorical, g: GroupedData, coupling_entropies) -> float:
    """H(Q) minus the prior-weighted coupling entropies, subtracted in group order."""
    val = entropy(q)
    for prior, h in zip(g.priors, coupling_entropies):
        val -= float(prior) * h
    return float(val)


def scan_stationary(g: GroupedData, out_size: int) -> list[QCandidate]:
    """Score each input distribution, re-indexed onto the output support.

    Probabilities are laid out in descending order on ascending output ids;
    zero padding beyond the group's support is trimmed by construction.
    Every (candidate, group) coupling comes from one ``greedy_fill_batch``
    call. Each coupling's entropy is summed over its cells in row-major
    order, the order of ``greedy_fill``'s dense mass, so every J equals
    ``objective_j``'s bit for bit.
    """
    if out_size < default_out_size(g):
        raise DistError("out_size must be >= the largest group support")
    support = output_support(g, out_size)
    dists = [Categorical(support[: len(d)], np.sort(d.probs)[::-1]) for d in g.dists]
    n_groups = len(dists)
    # Problem c * n_groups + i couples group i onto candidate c.
    p = np.tile(zero_padded([d.probs for d in g.dists]), (n_groups, 1))
    q = np.repeat(zero_padded([d.probs for d in dists]), n_groups, axis=0)
    h = [entropy_bits(mass) for _, _, mass in live_cells(*greedy_fill_batch(p, q))]
    return [
        QCandidate(dist, _j_value(dist, g, h[c * n_groups : (c + 1) * n_groups]), "stationary")
        for c, dist in enumerate(dists)
    ]


def _softmax_dist(theta: np.ndarray, support: tuple[int, ...]) -> Categorical:
    z = theta - theta.max()
    w = np.exp(z)
    return Categorical(support, w / w.sum())


def _embed_theta(dist: Categorical, support: tuple[int, ...]) -> np.ndarray:
    probs = np.full(len(support), 1e-12)
    for s, p in zip(dist.support, dist.probs):
        probs[support.index(s)] = p
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
    """
    y_mean = y_obs.mean()
    y_c = y_obs - y_mean
    sig2 = max(float(y_c.var()), 1e-12)

    def kern(d2):
        return sig2 * np.exp(-0.5 * d2 / lengthscale**2)

    k_xx = kern(d2_obs) + 1e-8 * sig2 * np.eye(len(x_obs))
    k_sx = kern(_sq_dists(x_new, x_obs))
    chol = np.linalg.cholesky(k_xx)
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y_c))
    mean = y_mean + k_sx @ alpha
    v = np.linalg.solve(chol, k_sx.T)
    var = np.maximum(sig2 - np.sum(v**2, axis=0), 1e-18)
    return mean, np.sqrt(var)


def bayes_opt_q(g: GroupedData, out_size: int, cfg: BoConfig) -> QCandidate:
    """Maximize J(Q) with GP-UCB over softmax-parameterized simplex points.

    Every stationary candidate is scored once, even past the budget; the
    first ``cfg.budget`` of them seed the GP's observations, followed by
    symmetric-Dirichlet draws, and each round proposes random candidates
    and evaluates the UCB maximizer, until ``cfg.budget`` observations.
    Returns the best stationary candidate unless a proposal beats it
    strictly. Deterministic given the config seed.
    """
    rng = np.random.default_rng(cfg.seed)
    support = output_support(g, out_size)
    stationary = scan_stationary(g, out_size)
    best = max(stationary, key=lambda c: c.j_value)
    observed = stationary[: cfg.budget]
    thetas = [_embed_theta(c.dist, support) for c in observed]
    values = [c.j_value for c in observed]

    def record(theta: np.ndarray) -> None:
        nonlocal best
        dist = _softmax_dist(theta, support)
        val = objective_j(dist, g)
        thetas.append(theta)
        values.append(val)
        if val > best.j_value:
            best = QCandidate(dist, val, "bayesopt")

    n_dirichlet = min(max(2, out_size), max(0, cfg.budget - len(values)))
    # One batched draw equals as many single draws, in order, bit for bit.
    for probs in rng.dirichlet(np.ones(out_size), size=n_dirichlet):
        record(np.log(np.maximum(probs, 1e-12)))

    random_search = False
    while len(values) < cfg.budget:
        x_obs = np.array(thetas)
        y_obs = np.array(values)
        d2_obs = _sq_dists(x_obs, x_obs)
        # The expansion can leave rounding residue where a point meets itself;
        # the median heuristic must skip those zero distances.
        np.fill_diagonal(d2_obs, 0.0)
        pos = d2_obs[d2_obs > 0]
        ls = float(np.median(np.sqrt(pos))) if pos.size else 0.0
        if ls <= 0:
            if not random_search:
                warnings.warn("degenerate kernel; falling back to random search")
                random_search = True
            probs = rng.dirichlet(np.ones(out_size))
            theta = np.log(np.maximum(probs, 1e-12))
        else:
            half = cfg.n_acq_candidates // 2
            anchor = thetas[int(np.argmax(values))]
            x_new = np.concatenate([
                np.log(np.maximum(rng.dirichlet(np.ones(out_size), size=half), 1e-12)),
                anchor + 0.25 * rng.standard_normal((cfg.n_acq_candidates - half, out_size)),
            ])
            mean, std = _gp_posterior(x_obs, y_obs, x_new, ls, d2_obs)
            theta = x_new[int(np.argmax(mean + cfg.kappa * std))]
        record(theta)

    return best


def select_q(g: GroupedData, out_size: int, bo: BoConfig | None = None) -> QCandidate:
    """The best stationary candidate, or with ``bo`` the GP-UCB search seeded by it.

    Ties break toward the first stationary candidate.
    """
    if bo is None:
        return max(scan_stationary(g, out_size), key=lambda c: c.j_value)
    return bayes_opt_q(g, out_size, bo)
