import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pefkit import (
    Categorical,
    DistError,
    GroupedData,
    build_deterministic_pef,
    check_permutation_equal,
    conditional_entropy_x_given_a,
    entropy,
    erasure_feasible,
    funnel_bounds,
    mutual_information_ax,
    pic_spectrum,
)
from pefkit._kernels import entropy_bits
from pefkit.dist import _joint_xa, ranked
from conftest import random_grouped


def cat(support, probs):
    return Categorical(tuple(support), np.asarray(probs, dtype=np.float64))


def two_groups(p1, p2, priors=(0.5, 0.5)):
    k1 = len(p1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GroupedData(
            ((0, cat(range(k1), p1)), (1, cat(range(k1, k1 + len(p2)), p2))),
            np.asarray(priors, dtype=np.float64),
        )


class TestCategorical:
    def test_trims_zero_mass(self):
        c = cat([0, 1, 2], [0.5, 0.0, 0.5])
        assert c.support.tolist() == [0, 2]

    def test_renormalizes_small_drift_with_warning(self):
        with pytest.warns(UserWarning):
            c = cat([0, 1], [0.5, 0.5 + 5e-7])
        assert math.isclose(float(c.probs.sum()), 1.0, abs_tol=1e-12)

    def test_rejects_large_drift(self):
        with pytest.raises(DistError):
            cat([0, 1], [0.5, 0.6])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(DistError):
            cat([0, 0], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_rejects_non_finite_or_negative_probs(self, bad):
        # A NaN once passed the sum check and was trimmed with its symbol.
        with pytest.raises(DistError, match="must be finite and non-negative"):
            cat([0, 1, 2], [0.5, 0.5, bad])

    def test_canonical_id_order(self):
        c = Categorical((3, 1), np.array([0.7, 0.3]))
        assert c.support.tolist() == [1, 3]
        assert c.probs[0] == 0.3

    def test_json_round_trip(self):
        c = cat([4, 7], [0.25, 0.75])
        assert Categorical.from_json(json.loads(json.dumps(c.to_json()))) == c

    @pytest.mark.parametrize(
        "obj,match",
        [
            ({"support": [0, 1]}, "KeyError"),
            ([[0, 1], [0.5, 0.5]], "TypeError"),
            ({"support": [0, True], "probs": [0.5, 0.5]}, "symbol ids must be integers"),
            ({"support": [0, 1], "probs": ["0.5", "0.5"]}, "probs must be numbers"),
            ({"support": [0, 1], "probs": [True, False]}, "probs must be numbers"),
        ],
    )
    def test_malformed_json_is_rejected(self, obj, match):
        with pytest.raises(DistError, match=match):
            Categorical.from_json(obj)

    def test_bool_ids_are_rejected(self):
        with pytest.raises(DistError, match="must be integers"):
            cat([False, True], [0.5, 0.5])
        with pytest.raises(DistError, match="must be integers"):
            cat(np.array([False, True]), [0.5, 0.5])
        with pytest.raises(DistError, match="must be integers"):
            cat((0, True), [0.5, 0.5])


class TestEntropy:
    def test_uniform_four(self):
        assert entropy(Categorical.uniform(range(4))) == pytest.approx(2.0, abs=1e-12)

    def test_point_mass(self):
        assert entropy(cat([0], [1.0])) == 0.0

    def test_derived_three_symbol(self):
        # Independent oracle: direct summation in a second order via fsum.
        probs = [0.5, 0.3, 0.2]
        expected = math.fsum(-p * math.log2(p) for p in reversed(probs))
        assert expected == pytest.approx(1.4854752972273344, abs=1e-12)
        assert entropy(cat([0, 1, 2], probs)) == pytest.approx(expected, abs=1e-12)

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, weights):
        probs = np.array(weights) / sum(weights)
        c = Categorical(tuple(range(len(probs))), probs)
        h = entropy(c)
        assert -1e-12 <= h <= math.log2(len(c)) + 1e-9


class TestGroupedMeasures:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_rejects_non_finite_or_negative_priors(self, bad):
        # A NaN prior once made every prior NaN.
        with pytest.raises(DistError, match="priors must be finite and non-negative"):
            two_groups([0.5, 0.5], [0.5, 0.5], priors=(bad, 1.0))

    @pytest.mark.parametrize("priors, match", [
        ([0.2, 0.3, 0.5], "match the number of groups"),
        ([2.0, -1.0], "finite and non-negative"),
        ([np.nan, 1.0], "finite and non-negative"),
        ([0.5, 0.4], "outside tolerance"),
    ])
    def test_rejects_bad_priors(self, priors, match):
        with pytest.raises(DistError, match=match):
            two_groups([0.5, 0.5], [0.5, 0.5], priors=priors)

    def test_cond_entropy_equal_uniform(self):
        g = two_groups([0.25] * 4, [0.25] * 4)
        assert conditional_entropy_x_given_a(g) == pytest.approx(2.0, abs=1e-12)

    def test_cond_entropy_single_group_prior(self):
        g = two_groups([0.5, 0.5], [0.25] * 4, priors=(1.0, 0.0))
        # zero-mass prior group contributes nothing
        assert conditional_entropy_x_given_a(g) == pytest.approx(1.0, abs=1e-12)

    def test_cond_entropy_weighted(self):
        g = two_groups([0.5, 0.3, 0.2], [0.25] * 4)
        assert conditional_entropy_x_given_a(g) == pytest.approx(
            0.5 * 1.4854752972273344 + 0.5 * 2.0, abs=1e-9
        )

    def test_mi_disjoint_equals_prior_entropy(self):
        g = two_groups([0.25] * 4, [0.25] * 4)
        assert mutual_information_ax(g) == pytest.approx(1.0, abs=1e-12)

    def test_mi_four_groups(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = GroupedData(
                tuple(
                    (i, cat([2 * i, 2 * i + 1], [0.5, 0.5])) for i in range(4)
                ),
                np.full(4, 0.25),
            )
        assert mutual_information_ax(g) == pytest.approx(2.0, abs=1e-12)

    def test_mi_skewed_priors(self):
        g = two_groups([0.5, 0.5], [0.5, 0.5], priors=(0.9, 0.1))
        expected = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        assert mutual_information_ax(g) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.46900, abs=1e-5)

    def test_mi_shared_support(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = GroupedData(
                ((0, cat([0, 1, 2], [0.5, 0.3, 0.2])), (1, cat([1, 2, 3], [0.1, 0.6, 0.3]))),
                np.array([0.7, 0.3]),
            )
        joint = _joint_xa(g)
        expected = (
            entropy_bits(joint.sum(axis=0)) + entropy_bits(joint.sum(axis=1)) - entropy_bits(joint)
        )
        assert mutual_information_ax(g) == pytest.approx(expected, abs=1e-12)
        assert mutual_information_ax(g) < entropy_bits(g.priors) - 0.1

    def test_conditioning_reduces_entropy(self, rng):
        for _ in range(25):
            g = random_grouped(rng)
            assert conditional_entropy_x_given_a(g) <= entropy(g.marginal_x()) + 1e-9


def marginal_x_by_dict(g: GroupedData) -> Categorical:
    """The per-symbol dict sum of ``prior * p``, kept as the oracle for ``marginal_x``."""
    mass: dict[int, float] = {}
    for prior, (_, d) in zip(g.priors, g.groups):
        for s, p in zip(d.support, d.probs):
            mass[s] = mass.get(s, 0.0) + float(prior) * float(p)
    symbols = sorted(mass)
    return Categorical(tuple(symbols), np.array([mass[s] for s in symbols]))


#: Up to five groups of (symbol, weight) cells whose supports may share
#: symbols, and five prior weights, of which the first len(groups) are used.
OVERLAPPING_GROUPS = (
    st.lists(
        st.lists(st.tuples(st.integers(0, 12), st.floats(0.01, 1.0)), min_size=1, max_size=8),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.floats(0.1, 1.0), min_size=5, max_size=5),
)


def overlapping_grouped(groups, priors) -> GroupedData:
    dists = []
    for cells in groups:
        support = sorted(dict(cells))
        w = np.array([dict(cells)[x] for x in support])
        dists.append(cat(support, w / w.sum()))
    pr = np.array(priors[: len(dists)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GroupedData(tuple(enumerate(dists)), pr / pr.sum())


@settings(max_examples=200, deadline=None)
@given(*OVERLAPPING_GROUPS)
def test_marginal_x_matches_dict_sum(groups, priors):
    # Supports may share symbols, so some masses sum several groups' terms.
    g = overlapping_grouped(groups, priors)
    got, want = g.marginal_x(), marginal_x_by_dict(g)
    assert got.support.tolist() == want.support.tolist()
    assert got.probs.tolist() == want.probs.tolist()


def mutual_information_by_rows(g: GroupedData) -> float:
    """H(A) - sum_x P(X=x) H(A|X=x), row by row of the joint; the oracle for
    ``mutual_information_ax``."""
    h = entropy_bits(g.priors)
    for row in _joint_xa(g):
        if row.sum() > 0:
            h -= row.sum() * entropy_bits(row / row.sum())
    return h


@settings(max_examples=200, deadline=None)
@given(*OVERLAPPING_GROUPS)
def test_mutual_information_matches_row_sum(groups, priors):
    # The two sum in different orders; float64 rounding on at most 13
    # symbols and 5 groups stays far below 1e-12 bits.
    g = overlapping_grouped(groups, priors)
    assert mutual_information_ax(g) == pytest.approx(mutual_information_by_rows(g), abs=1e-12)


class TestFunnel:
    def test_endpoints_and_midpoint(self):
        g = two_groups([0.25] * 4, [0.25] * 4)
        curve = funnel_bounds(g, 7)  # grid includes u=2.5
        assert curve.h_x == pytest.approx(3.0, abs=1e-12)
        assert curve.upper[-1] == pytest.approx(1.0, abs=1e-12)
        assert curve.lower[0] == curve.upper[0] == 0.0
        u = curve.u_grid[5]
        assert u == pytest.approx(2.5, abs=1e-12)
        assert curve.lower[5] == pytest.approx(0.5, abs=1e-12)
        assert curve.upper[5] == pytest.approx(2.5 / 3.0, abs=1e-9)

    def test_lower_below_upper_randomized(self, rng):
        for _ in range(30):
            curve = funnel_bounds(random_grouped(rng), 33)
            assert np.all(curve.lower <= curve.upper + 1e-12)

    def test_rejects_tiny_grid(self):
        with pytest.raises(DistError):
            funnel_bounds(two_groups([0.5, 0.5], [0.5, 0.5]), 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ranked_is_a_stable_descending_gather(data):
    # Weights from a set of three force ties, which must keep id order.
    ids = data.draw(st.lists(st.integers(0, 50), min_size=1, max_size=12, unique=True))
    w = np.array(data.draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=len(ids),
                                    max_size=len(ids))))
    p = cat(ids, w / w.sum())
    order = np.argsort(-p.probs, kind="stable")
    symbols, probs = ranked(p)
    assert symbols.tolist() == p.support[order].tolist()
    assert probs.tolist() == p.probs[order].tolist()
    assert probs.tobytes() == np.sort(p.probs)[::-1].tobytes()


class TestPermutationCheck:
    def test_same_multiset(self):
        p = cat([0, 1, 2], [0.2, 0.3, 0.5])
        q = cat([5, 6, 7], [0.5, 0.2, 0.3])
        assert check_permutation_equal(p, q, 1e-9) is True
        f = build_deterministic_pef(GroupedData(((0, p), (1, q)), np.array([0.5, 0.5])))
        assert f.map_symbol(2) == f.map_symbol(5)  # largest prob of p -> largest of q

    def test_different_multiset(self):
        p = cat([0, 1], [0.5, 0.5])
        q = cat([2, 3], [0.6, 0.4])
        assert check_permutation_equal(p, q, 1e-9) is False

    def test_uniform_tie_rule_gives_id_order(self):
        p = Categorical.uniform(range(4))
        q = Categorical.uniform(range(4, 8))
        f = build_deterministic_pef(GroupedData(((0, p), (1, q)), np.array([0.5, 0.5])))
        support = list(f.output_support)
        assert [f.map_symbol(x) for x in range(4)] == support
        assert [f.map_symbol(x) for x in range(4, 8)] == support

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_acceptance(self, seed):
        r = np.random.default_rng(seed)
        k = int(r.integers(2, 6))
        p = Categorical(tuple(range(k)), r.dirichlet(np.ones(k)))
        perm = r.permutation(len(p))
        q = Categorical(tuple(range(10, 10 + len(p))), p.probs[perm])
        assert check_permutation_equal(p, q, 1e-9) is True
        assert check_permutation_equal(q, p, 1e-9) is True


class TestPicSpectrum:
    def test_independence_all_zero(self):
        shared = cat([0, 1, 2], [0.5, 0.3, 0.2])
        with pytest.warns(UserWarning):
            g = GroupedData(((0, shared), (1, shared)), np.array([0.5, 0.5]))
            spec = pic_spectrum(g)
        assert spec.shared_support
        assert np.all(spec.pics <= 1e-9)

    def test_disjoint_two_groups_lambda1_is_one(self):
        g = two_groups([0.5, 0.5], [0.7, 0.3])
        spec = pic_spectrum(g)
        assert spec.pics[0] == pytest.approx(1.0, abs=1e-9)

    def test_top_singular_value_is_one(self, rng):
        for _ in range(25):
            spec = pic_spectrum(random_grouped(rng))
            assert spec.singular_values[0] == pytest.approx(1.0, abs=1e-9)
            assert np.all((spec.pics >= -1e-12) & (spec.pics <= 1 + 1e-12))


class TestFeasibility:
    def test_feasible_by_support_size(self):
        g = two_groups([0.25] * 4, [0.25] * 4)
        verdict = erasure_feasible(g)
        assert verdict.feasible and "|X|=8" in verdict.reason

    def test_infeasible_square_correlated(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = GroupedData(
                ((0, cat([0], [1.0])), (1, cat([1], [1.0]))), np.array([0.5, 0.5])
            )
        verdict = erasure_feasible(g)
        assert not verdict.feasible

    def test_feasible_by_zero_pic(self):
        shared = cat([0, 1], [0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = GroupedData(((0, shared), (1, shared)), np.array([0.5, 0.5]))
            verdict = erasure_feasible(g)
        assert verdict.feasible and "lambda_d" in verdict.reason


def test_grouped_json_round_trip():
    g = two_groups([0.5, 0.3, 0.2], [0.25] * 4, priors=(0.4, 0.6))
    g2 = GroupedData.from_json(g.to_json())
    assert g2.concepts.tolist() == g.concepts.tolist()
    np.testing.assert_allclose(g2.priors, g.priors)
    for a, b in zip(g.dists, g2.dists):
        assert a.support.tolist() == b.support.tolist()
        np.testing.assert_allclose(a.probs, b.probs)
