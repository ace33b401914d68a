"""Finite categorical distributions and information measures.

Provides the core value types (Categorical, GroupedData, Permutation),
entropy / mutual information in bits, permutation-equivalence testing,
the erasure-funnel envelope, and the principal-inertia-component
feasibility diagnostics.

All quantities are in bits. Everything here is a pure function on
immutable values and safe to call concurrently.
"""

from __future__ import annotations

import json
import operator
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import entropy_bits

#: Sum-to-one must hold this tightly after renormalization.
NORM_TOL = 1e-9
#: Inputs whose mass is off by at most this much are renormalized with a warning.
RENORM_TOL = 1e-6
#: Support entries with less mass than this are trimmed on construction.
TRIM_EPS = 1e-12


class DistError(ValueError):
    """Invalid distribution or grouped data."""


class DataConstraintError(DistError):
    """Input violates a data constraint required by the erasure pipeline."""


def int_ids(values, what: str = "symbol ids") -> tuple[int, ...]:
    """``values`` as a tuple of ints; DistError if one is not an integer.

    ``int`` would truncate an id of 1.4 to 1 and parse one of "1";
    ``operator.index`` accepts Python and numpy integers only.
    """
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise DistError(f"{what} must be integers ({exc})") from None


@dataclass(frozen=True, eq=False)
class Categorical:
    """A probability distribution over an ordered finite support of symbol ids.

    The support is canonicalized to ascending symbol id; zero-mass entries
    are trimmed; mass off by at most ``RENORM_TOL`` is renormalized with a
    warning, anything worse is rejected.
    """

    support: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self):
        support = int_ids(self.support)
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or len(support) != probs.size:
            raise DistError("support and probs must be 1-d and the same length")
        if len(set(support)) != len(support):
            raise DistError("symbol ids must be unique within a support")
        if any(s < 0 for s in support):
            raise DistError("symbol ids must be non-negative")
        if np.any(probs < -TRIM_EPS):
            raise DistError("probabilities must be non-negative")
        total = float(probs.sum())
        if abs(total - 1.0) > RENORM_TOL:
            raise DistError(f"probabilities sum to {total}, outside tolerance {RENORM_TOL}")
        if abs(total - 1.0) > NORM_TOL:
            warnings.warn(
                f"renormalizing distribution with total mass {total}", stacklevel=3
            )
            probs = probs / total
        # Renormalize only when needed: keeping bit-exact values lets the
        # deterministic branch push each group exactly onto Q.
        probs = np.maximum(probs, 0.0)
        keep = probs > TRIM_EPS
        if not np.any(keep):
            raise DistError("distribution has no positive-mass support")
        support = tuple(s for s, k in zip(support, keep) if k)
        probs = probs[keep]
        if abs(float(probs.sum()) - 1.0) > NORM_TOL:
            probs = probs / probs.sum()
        order = np.argsort(support, kind="stable")
        support = tuple(support[i] for i in order)
        probs = probs[order]
        probs.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.support)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Categorical):
            return NotImplemented
        return self.support == other.support and np.array_equal(
            self.probs, other.probs
        )

    def __hash__(self) -> int:
        return hash((self.support, self.probs.tobytes()))

    def to_json(self) -> dict:
        return {"support": list(self.support), "probs": [float(p) for p in self.probs]}

    @classmethod
    def from_json(cls, obj: dict) -> "Categorical":
        return cls(tuple(obj["support"]), np.asarray(obj["probs"], dtype=np.float64))

    @classmethod
    def uniform(cls, support) -> "Categorical":
        support = tuple(support)
        return cls(support, np.full(len(support), 1.0 / len(support)))


@dataclass(frozen=True, eq=False)
class GroupedData:
    """Per-concept-group distributions plus concept priors.

    The erasure pipeline requires pairwise-disjoint supports (A4) and
    ``|X| > |A|`` (A5); those are enforced by the pipeline entry points.
    Construction only warns, because the PIC/feasibility diagnostics are
    explicitly allowed to inspect violating instances.
    """

    groups: tuple[tuple[int, Categorical], ...]
    priors: np.ndarray

    def __post_init__(self):
        concepts = int_ids((c for c, _ in self.groups), "concept ids")
        groups = tuple(zip(concepts, (d for _, d in self.groups)))
        priors = np.asarray(self.priors, dtype=np.float64)
        if priors.ndim != 1 or priors.size != len(groups):
            raise DistError("priors must be 1-d and match the number of groups")
        if len(groups) == 0:
            raise DistError("need at least one group")
        if len({c for c, _ in groups}) != len(groups):
            raise DistError("concept ids must be unique")
        if np.any(priors < -TRIM_EPS):
            raise DistError("priors must be non-negative")
        total = float(priors.sum())
        if abs(total - 1.0) > RENORM_TOL:
            raise DistError(f"priors sum to {total}, outside tolerance {RENORM_TOL}")
        if abs(total - 1.0) > NORM_TOL:
            warnings.warn(f"renormalizing priors with total mass {total}", stacklevel=3)
        priors = np.maximum(priors, 0.0) / total
        priors.setflags(write=False)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "priors", priors)
        if not self.supports_disjoint:
            warnings.warn("group supports are not pairwise disjoint (A4 violated)")
        if self.n_symbols <= len(groups):
            warnings.warn("|X| <= |A|: perfect erasure may be infeasible (A5 violated)")

    @property
    def concepts(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.groups)

    @property
    def dists(self) -> tuple[Categorical, ...]:
        return tuple(d for _, d in self.groups)

    @property
    def supports_disjoint(self) -> bool:
        seen: set[int] = set()
        for _, d in self.groups:
            s = set(d.support)
            if seen & s:
                return False
            seen |= s
        return True

    @property
    def n_symbols(self) -> int:
        return len({s for _, d in self.groups for s in d.support})

    @property
    def max_symbol_id(self) -> int:
        return max(s for _, d in self.groups for s in d.support)

    def marginal_x(self) -> Categorical:
        """Mixture distribution of X, merging mass on shared symbols."""
        mass: dict[int, float] = {}
        for prior, (_, d) in zip(self.priors, self.groups):
            for s, p in zip(d.support, d.probs):
                mass[s] = mass.get(s, 0.0) + float(prior) * float(p)
        symbols = sorted(mass)
        return Categorical(tuple(symbols), np.array([mass[s] for s in symbols]))

    def to_json(self) -> dict:
        return {
            "priors": [float(p) for p in self.priors],
            "groups": [{"concept": c, "dist": d.to_json()} for c, d in self.groups],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GroupedData":
        groups = tuple(
            (g["concept"], Categorical.from_json(g["dist"])) for g in obj["groups"]
        )
        return cls(groups, np.asarray(obj["priors"], dtype=np.float64))


@dataclass(frozen=True)
class Permutation:
    """A bijection between two equal-sized symbol supports."""

    mapping: dict[int, int]

    def __post_init__(self):
        if len(set(self.mapping.values())) != len(self.mapping):
            raise DistError("permutation must be injective")

    def __call__(self, symbol: int) -> int:
        return self.mapping[symbol]

    def inverse(self) -> "Permutation":
        return Permutation({v: k for k, v in self.mapping.items()})

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: x -> self(other(x))."""
        return Permutation({k: self.mapping[v] for k, v in other.mapping.items()})


@dataclass(frozen=True, eq=False)
class FunnelCurve:
    """Lemma-style envelope of the erasure funnel over a utility grid."""

    u_grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    h_x_given_a: float
    h_x: float
    i_ax: float

    def contains(self, utility: float, privacy: float, tol: float = 1e-9) -> bool:
        """Whether a measured (utility, privacy) point lies in the closed region."""
        if utility < -tol or utility > self.h_x + tol:
            return False
        lo = max(0.0, utility - self.h_x_given_a)
        return privacy >= lo - tol and privacy <= self.i_ax + tol

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("u,lower,upper\n")
            for u, lo, up in zip(self.u_grid, self.lower, self.upper):
                fh.write(f"{u!r},{lo!r},{up!r}\n")


@dataclass(frozen=True, eq=False)
class PicSpectrum:
    """Singular values and principal inertia components of the joint of (X, A)."""

    singular_values: np.ndarray
    pics: np.ndarray
    lambda_d: float
    shared_support: bool = False


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    reason: str


def entropy(p: Categorical) -> float:
    """Shannon entropy of ``p`` in bits."""
    return entropy_bits(p.probs)


def conditional_entropy_x_given_a(g: GroupedData) -> float:
    """H(X|A) = sum_i p(a_i) H(P_i), in bits."""
    return float(sum(pr * entropy(d) for pr, d in zip(g.priors, g.dists)))


def _joint_xa(g: GroupedData) -> np.ndarray:
    """P(X=x, A=a) with a row per symbol, ascending, and a column per group."""
    symbols = sorted({s for d in g.dists for s in d.support})
    idx = {s: k for k, s in enumerate(symbols)}
    joint = np.zeros((len(symbols), len(g.groups)))
    for a, (pr, d) in enumerate(zip(g.priors, g.dists)):
        for s, p in zip(d.support, d.probs):
            joint[idx[s], a] = pr * p
    return joint


def mutual_information_ax(g: GroupedData) -> float:
    """I(A;X) in bits; equals H(A) exactly under disjoint supports."""
    h_a = entropy_bits(g.priors)
    if g.supports_disjoint:
        return h_a
    # H(A|X) from the joint over shared symbols.
    joint = _joint_xa(g)
    p_x = joint.sum(axis=1)
    h_a_given_x = 0.0
    for row, px in zip(joint, p_x):
        if px > 0:
            h_a_given_x += px * entropy_bits(row / px)
    return float(h_a - h_a_given_x)


def funnel_bounds(g: GroupedData, n_points: int) -> FunnelCurve:
    """Envelope of the erasure funnel on a grid over [0, H(X)]."""
    if n_points < 2:
        raise DistError("n_points must be >= 2")
    h_x = entropy(g.marginal_x())
    h_xa = conditional_entropy_x_given_a(g)
    i_ax = mutual_information_ax(g)
    u = np.linspace(0.0, h_x, n_points)
    lower = np.maximum(0.0, u - h_xa)
    upper = u * (i_ax / h_x) if h_x > 0 else np.zeros_like(u)
    return FunnelCurve(u, lower, upper, h_xa, h_x, i_ax)


def sorted_symbols(p: Categorical) -> list[int]:
    """Symbols by descending probability, ties by ascending id.

    The support is in ascending-id order, so a stable sort on the negated
    probabilities keeps equal-probability symbols in id order.
    """
    return [p.support[i] for i in np.argsort(-p.probs, kind="stable")]


def check_permutation_equal(
    p: Categorical, q: Categorical, tol: float
) -> Optional[Permutation]:
    """Return a permutation carrying ``p`` onto ``q`` if their sorted
    probability vectors match elementwise within ``tol``, else ``None``.

    The returned map sends the k-th largest-probability symbol of ``p``
    (ties by ascending id) to the k-th of ``q``.
    """
    if not 0 <= tol < np.inf:
        raise DistError("tol must be finite and >= 0")
    if len(p) != len(q):
        return None
    sp = np.sort(p.probs)[::-1]
    sq = np.sort(q.probs)[::-1]
    if np.any(np.abs(sp - sq) > tol):
        return None
    return Permutation(dict(zip(sorted_symbols(p), sorted_symbols(q))))


def pic_spectrum(g: GroupedData) -> PicSpectrum:
    """Principal inertia components via the SVD of D_X^{-1/2} P D_A^{-1/2}."""
    if np.any(g.priors <= 0):
        raise DistError("pic_spectrum requires strictly positive priors")
    shared = not g.supports_disjoint
    if shared:
        warnings.warn("pic_spectrum called on shared-support data (diagnostics only)")
    joint = _joint_xa(g)
    p_x = joint.sum(axis=1)
    p_a = joint.sum(axis=0)
    if np.any(p_x <= 0) or np.any(p_a <= 0):
        raise DistError("degenerate joint: zero-probability row or column")
    qmat = joint / np.sqrt(np.outer(p_x, p_a))
    sv = np.linalg.svd(qmat, compute_uv=False)
    sv = np.sort(sv)[::-1]
    pics = np.clip(sv[1:] ** 2, 0.0, 1.0)
    d = min(joint.shape) - 1
    lambda_d = float(pics[d - 1]) if d >= 1 else 0.0
    return PicSpectrum(sv, pics, lambda_d, shared_support=shared)


def erasure_feasible(g: GroupedData) -> FeasibilityVerdict:
    """Achievability of perfect erasure: smallest PIC zero, or |X| > |A|."""
    if g.n_symbols > len(g.groups):
        return FeasibilityVerdict(True, f"|X|={g.n_symbols} > |A|={len(g.groups)}")
    spec = pic_spectrum(g)
    if abs(spec.lambda_d) <= NORM_TOL:
        return FeasibilityVerdict(True, f"smallest PIC lambda_d={spec.lambda_d:.3g} ~ 0")
    return FeasibilityVerdict(
        False,
        f"|X|={g.n_symbols} <= |A|={len(g.groups)} and lambda_d={spec.lambda_d:.3g} > 0",
    )


def load_grouped_json(path) -> GroupedData:
    with open(path) as fh:
        return GroupedData.from_json(json.load(fh))


def write_json(obj, path) -> None:
    """Write ``obj`` as key-sorted JSON, indented by 2, ending in a newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
