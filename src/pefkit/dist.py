"""Finite categorical distributions and information measures.

Provides the core value types (Categorical, GroupedData, and Permutation,
kept only as an input to ErasureFunction), entropy / mutual information in
bits, permutation-equivalence testing, the erasure-funnel envelope, and the
principal-inertia-component feasibility diagnostics. Two group forms are
derived only here: ``ranked(p)``, a group's symbols and probabilities by
descending probability (ties by ascending id), and
``GroupedData.joint_mass()``, P(X=x, A=a_i) for each entry of ``symbols``.

All quantities are in bits. Everything here is a pure function on
immutable values and safe to call concurrently.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._kernels import entropy_bits, symbol_codes

#: Sum-to-one must hold this tightly after renormalization.
NORM_TOL = 1e-9
#: Inputs whose mass is off by at most this much are renormalized with a warning.
RENORM_TOL = 1e-6
#: Support entries with less mass than this are trimmed on construction.
TRIM_EPS = 1e-12
#: Permutation-test tolerance for exactly given (not estimated) distributions.
EXACT_TOL = 1e-9


class DistError(ValueError):
    """Invalid distribution or grouped data."""


class DataConstraintError(DistError):
    """Input violates a data constraint required by the erasure pipeline."""


class AlignmentError(ValueError):
    """Inputs do not line up: erased vs original rows, or symbol sets."""


#: What indexing or iterating a malformed JSON object raises; ``from_json``
#: turns each into DistError.
MALFORMED_JSON = (KeyError, TypeError, AttributeError)


def _column(a, name: str, dtype=np.int64) -> np.ndarray:
    """``a`` as a 1-d ``dtype`` array; DistError unless it is a flat list of
    numbers that cast to ``dtype`` safely, so an id of 1.4 is never truncated
    to 1, an id past int64 is never wrapped or read as a float, neither "0.5"
    nor ``true`` reads as a number, and a nested list fails here, not deep in
    numpy.
    """
    try:
        arr = np.asarray(a)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.ndim != 1:
        raise DistError(f"{name} must be a flat list, got {arr.ndim} dimensions")
    # numpy reads [1, true] as ints and [0.5, true] as floats.
    seq = isinstance(a, (list, tuple))
    bools = arr.dtype.kind == "b" or seq and bool in map(type, a)
    if arr.size and (bools or not np.can_cast(arr.dtype, dtype)):
        kind = "integers" if dtype is np.int64 else "numbers"
        if bools:
            got = "bool"
        elif dtype is np.int64 and seq and all(isinstance(v, (int, np.integer)) for v in a):
            # numpy reads Python ints past int64 as float64 or object.
            kind, got = "integers from -2**63 to 2**63 - 1", max(a, key=abs)
        else:
            got = f"dtype {arr.dtype}"
        raise DistError(f"{name} must be {kind}, got {got}")
    return arr.astype(dtype)


@dataclass(frozen=True, eq=False)
class Categorical:
    """A probability distribution over an ordered finite support of symbol ids.

    The support is a read-only int64 array, canonicalized to ascending
    symbol id; zero-mass entries are trimmed; mass off by at most
    ``RENORM_TOL`` is renormalized with a warning, anything worse is rejected.
    """

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        support = _column(self.support, "symbol ids")
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or len(support) != probs.size:
            raise DistError("support and probs must be 1-d and the same length")
        if len(symbol_codes(support)[0]) != len(support):
            raise DistError("symbol ids must be unique within a support")
        if np.any(support < 0):
            raise DistError("symbol ids must be non-negative")
        if not np.all(np.isfinite(probs)) or np.any(probs < -TRIM_EPS):
            raise DistError("probabilities must be finite and non-negative")
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
        support, probs = support[keep], probs[keep]
        if abs(float(probs.sum()) - 1.0) > NORM_TOL:
            probs = probs / probs.sum()
        order = np.argsort(support, kind="stable")
        support, probs = support[order], probs[order]
        support.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.support)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Categorical):
            return NotImplemented
        return np.array_equal(self.support, other.support) and np.array_equal(
            self.probs, other.probs
        )

    def __hash__(self) -> int:
        return hash((self.support.tobytes(), self.probs.tobytes()))

    def to_json(self) -> dict:
        return {"support": self.support.tolist(), "probs": [float(p) for p in self.probs]}

    @classmethod
    def from_json(cls, obj: dict) -> "Categorical":
        """Parse ``to_json`` output; a malformed object raises DistError."""
        try:
            return cls(obj["support"], _column(obj["probs"], "probs", np.float64))
        except MALFORMED_JSON as exc:
            raise DistError(f"malformed distribution JSON: {exc!r}") from None

    @classmethod
    def uniform(cls, support) -> "Categorical":
        return cls(support, np.full(len(support), 1.0 / len(support)))


@dataclass(frozen=True, eq=False)
class GroupedData:
    """Per-concept-group distributions plus concept priors.

    The erasure pipeline requires pairwise-disjoint supports (A4) and
    ``|X| > |A|`` (A5); those are enforced by the pipeline entry points.
    Construction only warns, because the PIC/feasibility diagnostics are
    explicitly allowed to inspect violating instances. ``concepts`` and
    ``symbols`` (every support, concatenated in group order) are read-only
    int64 arrays.
    """

    groups: tuple[tuple[int, Categorical], ...]
    priors: np.ndarray
    concepts: np.ndarray = field(init=False, repr=False)
    symbols: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        concepts = _column([c for c, _ in self.groups], "concept ids")
        groups = tuple(zip(concepts, (d for _, d in self.groups)))
        priors = np.asarray(self.priors, dtype=np.float64)
        if priors.ndim != 1 or priors.size != len(groups):
            raise DistError("priors must be 1-d and match the number of groups")
        if len(groups) == 0:
            raise DistError("need at least one group")
        if len(symbol_codes(concepts)[0]) != len(groups):
            raise DistError("concept ids must be unique")
        if not np.all(np.isfinite(priors)) or np.any(priors < -TRIM_EPS):
            raise DistError("priors must be finite and non-negative")
        total = float(priors.sum())
        if abs(total - 1.0) > RENORM_TOL:
            raise DistError(f"priors sum to {total}, outside tolerance {RENORM_TOL}")
        if abs(total - 1.0) > NORM_TOL:
            warnings.warn(f"renormalizing priors with total mass {total}", stacklevel=3)
        priors = np.maximum(priors, 0.0) / total
        symbols = np.concatenate([d.support for _, d in groups])
        for a in (priors, concepts, symbols):
            a.setflags(write=False)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "concepts", concepts)
        object.__setattr__(self, "symbols", symbols)
        if not self.supports_disjoint:
            warnings.warn("group supports are not pairwise disjoint (A4 violated)")
        if self.n_symbols <= len(groups):
            warnings.warn("|X| <= |A|: perfect erasure may be infeasible (A5 violated)")

    @property
    def dists(self) -> tuple[Categorical, ...]:
        return tuple(d for _, d in self.groups)

    @property
    def supports_disjoint(self) -> bool:
        # Each support is distinct within itself.
        return self.n_symbols == len(self.symbols)

    @property
    def n_symbols(self) -> int:
        return len(symbol_codes(self.symbols)[0])

    @property
    def max_symbol_id(self) -> int:
        return int(self.symbols.max())

    def joint_mass(self) -> np.ndarray:
        """P(X=x, A=a_i) = p(a_i) P_i(x) for each entry of ``symbols``."""
        return np.concatenate([prior * d.probs for prior, d in zip(self.priors, self.dists)])

    def marginal_x(self) -> Categorical:
        """Mixture distribution of X, merging mass on shared symbols.

        ``bincount`` adds each symbol's ``joint_mass`` terms in group order,
        left to right from 0.0.
        """
        symbols, code = symbol_codes(self.symbols)
        mass = np.bincount(code, weights=self.joint_mass(), minlength=len(symbols))
        return Categorical(symbols, mass)

    def to_json(self) -> dict:
        return {
            "priors": [float(p) for p in self.priors],
            "groups": [
                {"concept": c, "dist": d.to_json()}
                for c, d in zip(self.concepts.tolist(), self.dists)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GroupedData":
        """Parse ``to_json`` output; a malformed object raises DistError."""
        try:
            groups = tuple(
                (g["concept"], Categorical.from_json(g["dist"])) for g in obj["groups"]
            )
            return cls(groups, _column(obj["priors"], "priors", np.float64))
        except MALFORMED_JSON as exc:
            raise DistError(f"malformed distributions JSON: {exc!r}") from None


@dataclass(frozen=True)
class Permutation:
    """A bijection between two equal-sized symbol supports.

    Only ``ErasureFunction(group_maps=...)`` reads it, and compiles it into
    the function's table; pefkit itself builds no Permutation.
    """

    mapping: dict[int, int]

    def __post_init__(self):
        if len(set(self.mapping.values())) != len(self.mapping):
            raise DistError("permutation must be injective")


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
    symbols, code = symbol_codes(g.symbols)
    group = np.repeat(np.arange(len(g.groups)), [len(d) for d in g.dists])
    joint = np.zeros((len(symbols), len(g.groups)))
    joint[code, group] = g.joint_mass()
    return joint


def mutual_information_ax(g: GroupedData) -> float:
    """I(A;X) = H(A) + H(X) - H(X, A) in bits; exactly H(A) under disjoint supports."""
    if g.supports_disjoint:
        return entropy_bits(g.priors)
    return entropy_bits(g.priors) + entropy(g.marginal_x()) - entropy_bits(g.joint_mass())


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


def ranked(p: Categorical) -> tuple[np.ndarray, np.ndarray]:
    """``p``'s symbols and probabilities by descending probability, ties by ascending id.

    The support is in ascending-id order, so a stable sort on the negated
    probabilities keeps equal-probability symbols in id order.
    """
    order = np.argsort(-p.probs, kind="stable")
    return p.support[order], p.probs[order]


def check_permutation_equal(p: Categorical, q: Categorical, tol: float) -> bool:
    """Whether the ranked probability vectors of ``p`` and ``q`` match
    elementwise within ``tol``: whether some bijection carries ``p`` onto ``q``.
    """
    if not 0 <= tol < np.inf:
        raise DistError("tol must be finite and >= 0")
    return len(p) == len(q) and not np.any(np.abs(ranked(p)[1] - ranked(q)[1]) > tol)


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
    """Write ``obj`` as key-sorted JSON on one line, ending in a newline.

    ``json.dumps`` without ``indent`` runs the C encoder; ``json.dump`` to a
    file always runs the pure-Python one.
    """
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")
