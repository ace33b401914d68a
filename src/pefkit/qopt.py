"""Selection of the shared output distribution Q for unequal group distributions.

The objective J(Q) = H(Q) - sum_i p(a_i) H_min(P_i, Q) is always <= 0 and
vanishes exactly when every coupling is a permutation matrix. H_min uses the
greedy coupling approximation by default (the exact oracle can be swapped in
for small instances). Candidates come from a stationary-point scan over the
input distributions and, optionally, Gaussian-process UCB Bayesian
optimization on the simplex.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._kernels import entropy_bits, greedy_fill
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
    kernel_lengthscale: Union[float, str] = "median-heuristic"

    def __post_init__(self):
        if self.budget < 1:
            raise DistError("budget must be >= 1")
        if self.kappa <= 0:
            raise DistError("kappa must be > 0")
        if self.n_acq_candidates < 1:
            raise DistError("n_acq_candidates must be >= 1")

    def to_json(self) -> dict:
        return {
            "budget": self.budget,
            "kappa": self.kappa,
            "n_acq_candidates": self.n_acq_candidates,
            "seed": self.seed,
            "kernel_lengthscale": self.kernel_lengthscale,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BoConfig":
        return cls(**obj)


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
    val = entropy(q)
    for prior, d in zip(g.priors, g.dists):
        if use_oracle:
            mass = mec_oracle(d, q).mass
        else:
            mass = greedy_fill(d.probs, q.probs)
        val -= float(prior) * entropy_bits(mass.ravel())
    return float(val)


def scan_stationary(
    g: GroupedData, out_size: int, use_oracle: bool = False
) -> list[QCandidate]:
    """Score each input distribution, re-indexed onto the output support.

    Probabilities are laid out in descending order on ascending output ids;
    zero padding beyond the group's support is trimmed by construction.
    """
    if out_size < default_out_size(g):
        raise DistError("out_size must be >= the largest group support")
    support = output_support(g, out_size)
    candidates = []
    for _, d in g.groups:
        probs = np.sort(d.probs)[::-1]
        dist = Categorical(support[: len(d)], probs)
        candidates.append(
            QCandidate(dist, objective_j(dist, g, use_oracle), "stationary")
        )
    return candidates


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


def bayes_opt_q(
    g: GroupedData, out_size: int, cfg: BoConfig, use_oracle: bool = False
) -> QCandidate:
    """Maximize J(Q) with GP-UCB over softmax-parameterized simplex points.

    The initial design embeds the stationary candidates (scored exactly)
    plus symmetric-Dirichlet draws; each round proposes random candidates
    and evaluates the UCB maximizer. Deterministic given the config seed.
    """
    rng = np.random.default_rng(cfg.seed)
    support = output_support(g, out_size)
    thetas: list[np.ndarray] = []
    values: list[float] = []
    best_dist: Categorical | None = None
    best_val = -np.inf

    def record(theta: np.ndarray, dist: Categorical, val: float) -> None:
        nonlocal best_dist, best_val
        thetas.append(theta)
        values.append(val)
        if val > best_val:
            best_val = val
            best_dist = dist

    for cand in scan_stationary(g, out_size, use_oracle):
        if len(values) >= cfg.budget:
            break
        record(_embed_theta(cand.dist, support), cand.dist, cand.j_value)
    n_dirichlet = min(max(2, out_size), max(0, cfg.budget - len(values)))
    # One batched draw equals as many single draws, in order, bit for bit.
    for probs in rng.dirichlet(np.ones(out_size), size=n_dirichlet):
        theta = np.log(np.maximum(probs, 1e-12))
        dist = _softmax_dist(theta, support)
        record(theta, dist, objective_j(dist, g, use_oracle))

    random_search = False
    while len(values) < cfg.budget:
        x_obs = np.array(thetas)
        y_obs = np.array(values)
        d2_obs = _sq_dists(x_obs, x_obs)
        # The expansion can leave rounding residue where a point meets itself;
        # the median heuristic must skip those zero distances.
        np.fill_diagonal(d2_obs, 0.0)
        if cfg.kernel_lengthscale == "median-heuristic":
            pos = d2_obs[d2_obs > 0]
            ls = float(np.median(np.sqrt(pos))) if pos.size else 0.0
        else:
            ls = float(cfg.kernel_lengthscale)
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
        dist = _softmax_dist(theta, support)
        record(theta, dist, objective_j(dist, g, use_oracle))

    assert best_dist is not None
    return QCandidate(best_dist, float(best_val), "bayesopt")


def select_q(
    g: GroupedData,
    out_size: int,
    cfg: BoConfig,
    use_bo: bool,
    use_oracle: bool = False,
) -> QCandidate:
    """Argmax of J over stationary candidates and, optionally, the BO solution.

    Ties break toward stationary candidates.
    """
    stationary = scan_stationary(g, out_size, use_oracle)
    best = max(stationary, key=lambda c: c.j_value)
    if use_bo:
        bo = bayes_opt_q(g, out_size, cfg, use_oracle)
        if bo.j_value > best.j_value:
            return bo
    return best
