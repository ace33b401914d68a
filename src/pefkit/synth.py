"""Synthetic grouped-data generation over disjoint finite supports.

Three settings: identical uniform distributions per group, identical
bell-shaped distributions per group, and independent symmetric-Dirichlet
draws per group (the unequal case). Supports get fresh disjoint symbol ids
by construction; sampling is fully determined by the config seed.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .dist import EXACT_TOL, Categorical, DistError, GroupedData, check_permutation_equal

SETTINGS = ("equal_uniform", "equal_gaussian", "unequal")


@dataclass(frozen=True)
class SynthConfig:
    n_groups: int
    support_per_group: int
    n_samples_per_group: int
    setting: str
    seed: int
    dirichlet_alpha: float = 1.0

    def __post_init__(self):
        if self.n_groups < 2:
            raise DistError("n_groups must be >= 2")
        if self.support_per_group < 2:
            raise DistError("support_per_group must be >= 2")
        if self.n_samples_per_group < 1:
            raise DistError("n_samples_per_group must be >= 1")
        if self.setting not in SETTINGS:
            raise DistError(f"setting must be one of {SETTINGS}")
        if not 0 < self.dirichlet_alpha < np.inf:
            raise DistError(f"dirichlet_alpha must be finite and > 0, got {self.dirichlet_alpha}")

    def to_json(self) -> dict:
        return asdict(self)


def bell_profile(k: int) -> np.ndarray:
    """Discretized bell curve over k support slots, centered and normalized.

    Width k/4 keeps the edge probabilities well above the trim threshold.
    """
    if k < 2:
        raise DistError("k must be >= 2")
    i = np.arange(k, dtype=np.float64)
    center = (k - 1) / 2.0
    width = k / 4.0
    w = np.exp(-((i - center) ** 2) / (2.0 * width**2))
    return w / w.sum()


def generate(cfg: SynthConfig) -> tuple[GroupedData, np.ndarray]:
    """Ground-truth distributions plus seeded samples for each group.

    Samples are an (n, 2) int64 array of (x, concept) rows, group by group.
    """
    k = cfg.support_per_group
    groups = []
    samples = []
    for gi in range(cfg.n_groups):
        support = np.arange(gi * k, (gi + 1) * k)
        rng = np.random.default_rng([cfg.seed, gi])
        if cfg.setting == "equal_uniform":
            probs = np.full(k, 1.0 / k)
        elif cfg.setting == "equal_gaussian":
            probs = bell_profile(k)
        else:
            probs = rng.dirichlet(np.full(k, cfg.dirichlet_alpha))
        dist = Categorical(support, probs)
        groups.append((gi, dist))
        draws = rng.choice(dist.support, size=cfg.n_samples_per_group, p=dist.probs)
        samples.append(np.column_stack([draws, np.full(draws.size, gi)]))
    priors = np.full(cfg.n_groups, 1.0 / cfg.n_groups)
    g = GroupedData(tuple(groups), priors)
    if cfg.setting == "unequal":
        if all(check_permutation_equal(g.dists[0], d, EXACT_TOL) for d in g.dists[1:]):
            warnings.warn(
                "unequal setting produced permutation-equal distributions; "
                "re-seed or adjust dirichlet_alpha"
            )
    return g, np.concatenate(samples).astype(np.int64, copy=False)
