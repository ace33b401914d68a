import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pefkit import (
    AlignmentError,
    Categorical,
    GroupedData,
    JointCounts,
    Sample,
    TradeoffPoint,
    apply,
    build_pef,
    emit_tradeoff_csv,
    empirical_dist,
    evaluate_run,
    funnel_bounds,
    plugin_mi,
    tv_distance,
)
from pefkit import _kernels
from pefkit.evaluate import check_symbols_known, write_report_json


def grouped(p1, p2, priors=(0.5, 0.5)):
    k1 = len(p1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GroupedData(
            (
                (0, Categorical(tuple(range(k1)), np.asarray(p1, dtype=np.float64))),
                (
                    1,
                    Categorical(
                        tuple(range(k1, k1 + len(p2))),
                        np.asarray(p2, dtype=np.float64),
                    ),
                ),
            ),
            np.asarray(priors, dtype=np.float64),
        )


class TestJointCounts:
    def test_from_pairs(self):
        j = JointCounts.from_pairs([(0, 5), (0, 5), (1, 6)])
        assert j.rows.tolist() == [0, 1] and j.cols.tolist() == [5, 6]
        # only the non-zero cells of [[2, 0], [0, 1]] are stored
        np.testing.assert_array_equal(j.cells, [[0, 0], [1, 1]])
        np.testing.assert_array_equal(j.counts, [2, 1])
        assert j.n == 3

    def test_from_pairs_accepts_array(self):
        pairs = [(7, 5), (0, 5), (7, 5), (2**40, -1)]
        a = JointCounts.from_pairs(np.array(pairs))
        b = JointCounts.from_pairs(pairs)
        assert a.rows.tolist() == b.rows.tolist() == [0, 7, 2**40]
        assert a.cols.tolist() == b.cols.tolist() == [-1, 5]
        np.testing.assert_array_equal(a.cells, b.cells)
        np.testing.assert_array_equal(a.counts, [1, 2, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            JointCounts((0,), (1,), [[0, 0]], [0])
        with pytest.raises(ValueError):
            JointCounts.from_pairs([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            JointCounts((0,), (1,), [[0, 0]], [-1])

    def test_rejects_bad_cells(self):
        with pytest.raises(ValueError, match="inside"):
            JointCounts((0,), (1,), [[0, 1]], [1])
        with pytest.raises(ValueError, match="distinct"):
            JointCounts((0,), (1,), [[0, 0], [0, 0]], [1, 1])
        with pytest.raises(ValueError, match="ascending row-major"):
            JointCounts((0, 1), (1,), [[1, 0], [0, 0]], [1, 1])


class TestPluginMi:
    def test_independent_table_zero(self):
        j = JointCounts((0, 1), (0, 1), [[0, 0], [0, 1], [1, 0], [1, 1]], [25] * 4)
        assert plugin_mi(j) == 0.0

    def test_perfectly_dependent_one_bit(self):
        j = JointCounts((0, 1), (0, 1), [[0, 0], [1, 1]], [50, 50])
        assert plugin_mi(j) == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_table(self):
        # joint [[0.4, 0.1], [0.2, 0.3]] over n=10
        j = JointCounts.from_pairs(
            [(0, 0)] * 4 + [(0, 1)] * 1 + [(1, 0)] * 2 + [(1, 1)] * 3
        )
        expected = (
            0.4 * math.log2(0.4 / (0.5 * 0.6))
            + 0.1 * math.log2(0.1 / (0.5 * 0.4))
            + 0.2 * math.log2(0.2 / (0.5 * 0.6))
            + 0.3 * math.log2(0.3 / (0.5 * 0.4))
        )
        assert plugin_mi(j) == pytest.approx(expected, abs=1e-12)

    def test_miller_madow_reduces_estimate(self):
        rng = np.random.default_rng(0)
        pairs = [(int(rng.integers(3)), int(rng.integers(3))) for _ in range(200)]
        j = JointCounts.from_pairs(pairs)
        assert plugin_mi(j, miller_madow=True) <= plugin_mi(j)

    def test_never_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pairs = [
                (int(rng.integers(4)), int(rng.integers(4))) for _ in range(40)
            ]
            assert plugin_mi(JointCounts.from_pairs(pairs)) >= 0.0
            assert plugin_mi(JointCounts.from_pairs(pairs), miller_madow=True) >= 0.0


def plugin_mi_dense(pairs) -> float:
    """The dense-table plug-in estimate, kept as the oracle for the sparse one."""
    pairs = np.asarray(pairs)
    _, ri = np.unique(pairs[:, 0], return_inverse=True)
    _, ci = np.unique(pairs[:, 1], return_inverse=True)
    counts = np.zeros((ri.max() + 1, ci.max() + 1))
    np.add.at(counts, (ri, ci), 1)
    p = counts / len(pairs)
    mask = p > 0
    ratio = p[mask] / np.outer(p.sum(axis=1), p.sum(axis=0))[mask]
    return max(0.0, float(np.sum(p[mask] * np.log2(ratio))))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2**40), st.integers(-5, 5)), min_size=1, max_size=200
    )
)
def test_sparse_plugin_mi_matches_dense(pairs):
    assert plugin_mi(JointCounts.from_pairs(pairs)) == pytest.approx(
        plugin_mi_dense(pairs), abs=1e-12
    )


class TestTv:
    def test_identical_zero(self):
        c = Categorical((0, 1), np.array([0.5, 0.5]))
        assert tv_distance(c, c) == 0.0

    def test_disjoint_one(self):
        a = Categorical((0,), np.array([1.0]))
        b = Categorical((1,), np.array([1.0]))
        assert tv_distance(a, b) == 1.0

    def test_hand_value(self):
        a = Categorical((0, 1), np.array([0.5, 0.5]))
        b = Categorical((0, 1), np.array([0.8, 0.2]))
        assert tv_distance(a, b) == pytest.approx(0.3, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = Categorical((0, 1, 2), rng.dirichlet(np.ones(3)))
            b = Categorical((1, 2, 3), rng.dirichlet(np.ones(3)))
            assert tv_distance(a, b) == pytest.approx(tv_distance(b, a), abs=1e-15)


def test_empirical_dist():
    d = empirical_dist([3, 3, 5, 3])
    assert d.support.tolist() == [3, 5]
    np.testing.assert_allclose(d.probs, [0.75, 0.25])


class TestEvaluateRun:
    def _run(self, n=2000):
        g = grouped([0.5, 0.5], [0.6, 0.4])
        f, _ = build_pef(g, tol=1e-9)
        rng = np.random.default_rng(0)
        samples = []
        for i in range(n):
            c = int(rng.integers(2))
            d = g.dists[c]
            samples.append(Sample(int(rng.choice(d.support, p=d.probs)), c))
        erased = apply(f, samples, seed=0)
        return g, f, erased, samples

    def test_points_and_tvs(self):
        g, f, erased, samples = self._run()
        points, tvs, report = evaluate_run(g, f, erased, samples)
        assert [p.mode for p in points] == ["analytic", "plugin"]
        assert points[0].privacy_bits == pytest.approx(0.0, abs=1e-12)
        assert points[1].privacy_bits <= 0.05
        assert len(tvs) == 2 and all(t <= 0.1 for t in tvs)
        assert report.branch == "unequal"

    def test_length_mismatch(self):
        g, f, erased, samples = self._run(200)
        with pytest.raises(AlignmentError):
            evaluate_run(g, f, erased[:-1], samples)

    def test_concept_mismatch(self):
        g, f, erased, samples = self._run(200)
        bad = [(z, 1 - c) for z, c in erased]
        with pytest.raises(AlignmentError):
            evaluate_run(g, f, bad, samples)

    def test_csv_and_json_outputs(self, tmp_path):
        g, f, erased, samples = self._run(500)
        points, tvs, report = evaluate_run(g, f, erased, samples)
        curve = funnel_bounds(g, 17)
        emit_tradeoff_csv(points, curve, tmp_path)
        assert (tmp_path / "funnel.csv").exists()
        lines = (tmp_path / "tradeoff.csv").read_text().strip().splitlines()
        assert lines[0] == "method,mode,utility_bits,privacy_bits"
        assert len(lines) == 3
        write_report_json(report, tvs, points, tmp_path / "report.json")
        obj = json.loads((tmp_path / "report.json").read_text())
        assert obj["report"]["branch"] == "unequal"
        assert len(obj["points"]) == 2

    def test_numpy_points_write_plain_floats(self, tmp_path):
        """Points built from numpy scalars, as a caller's own MI estimate may
        be, write cells that ``float()`` parses and a report that loads."""
        g, f, erased, samples = self._run(200)
        _, tvs, report = evaluate_run(g, f, erased, samples)
        points = [TradeoffPoint(np.float64(0.3), np.float64(0.1), "pef", "plugin"),
                  TradeoffPoint(np.float32(0.25), np.float32(0.5), "pef", "plugin")]
        emit_tradeoff_csv(points, funnel_bounds(g, 3), tmp_path)
        lines = (tmp_path / "tradeoff.csv").read_text().splitlines()
        assert lines[1:] == ["pef,plugin,0.3,0.1", "pef,plugin,0.25,0.5"]
        write_report_json(report, tvs, points, tmp_path / "report.json")
        obj = json.loads((tmp_path / "report.json").read_text())
        assert [p["utility_bits"] for p in obj["points"]] == [0.3, 0.25]


def from_pairs_by_sorting(pairs) -> JointCounts:
    """The three-``np.unique`` count, kept as the oracle for ``from_pairs``."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    rows, ri = np.unique(pairs[:, 0], return_inverse=True)
    cols, ci = np.unique(pairs[:, 1], return_inverse=True)
    codes, counts = np.unique(ri * len(cols) + ci, return_counts=True)
    cells = np.column_stack(np.divmod(codes, len(cols)))
    return JointCounts(tuple(rows.tolist()), tuple(cols.tolist()), cells, counts)


def _pairs(spread):
    return st.lists(
        st.tuples(st.integers(-spread, spread), st.integers(-spread, spread)),
        min_size=1,
        max_size=120,
    )


@settings(max_examples=200, deadline=None)
@given(st.one_of(_pairs(3), _pairs(40), _pairs(2**62)))
def test_from_pairs_matches_sorting(pairs):
    got, want = JointCounts.from_pairs(pairs), from_pairs_by_sorting(pairs)
    assert got.rows.tolist() == want.rows.tolist() and got.cols.tolist() == want.cols.tolist()
    assert got.n == want.n
    np.testing.assert_array_equal(got.cells, want.cells)
    np.testing.assert_array_equal(got.counts, want.counts)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_pairs(3), _pairs(40), _pairs(2**62)), st.integers(1, 7))
def test_from_pairs_does_not_depend_on_chunk_size(pairs, chunk):
    """Both call forms, coded ``chunk`` pairs at a time, equal the single-chunk
    count bit for bit; spreads of 3, 40 and 2**62 send the cells to the
    ``bincount`` and to the sort, and the labels to the table and the sort."""
    rows = np.array(pairs, dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "CODE_CHUNK", len(rows))
        want = JointCounts.from_pairs(rows)
        mp.setattr(_kernels, "CODE_CHUNK", chunk)
        listed = JointCounts.from_pairs(pairs)
        columns = JointCounts.from_pairs(rows[:, 0], col_labels=rows[:, 1])
    for got in (listed, columns):
        assert got.n == want.n
        for name in ("rows", "cols", "cells", "counts"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def evaluate_inputs(draw):
    """Distributions, a function built on them, and samples erased by it.

    Concepts are drawn per row from 0..n_groups, so a concept of the
    distributions may have no rows and concept n_groups is absent from them.
    """
    n_groups = draw(st.integers(2, 4))
    # Up to 12 symbols per group: a TV sum of 8 or more terms rounds
    # differently unless it is taken left to right.
    sizes = draw(st.lists(st.integers(1, 12), min_size=n_groups, max_size=n_groups))
    weights = st.floats(0.05, 1.0)
    groups, base = [], draw(st.integers(0, 50))
    for c, k in enumerate(sizes):
        p = np.array(draw(st.lists(weights, min_size=k, max_size=k)))
        groups.append((c, Categorical(tuple(range(base, base + k)), p / p.sum())))
        base += k + draw(st.integers(0, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = GroupedData(tuple(groups), np.full(n_groups, 1.0 / n_groups))
    f, _ = build_pef(g, tol=draw(st.sampled_from([1e-9, 1.0])))
    n = draw(st.integers(1, 200))
    x = draw(st.lists(st.sampled_from(f.ids.tolist()), min_size=n, max_size=n))
    concept = draw(st.lists(st.integers(0, n_groups), min_size=n, max_size=n))
    samples = np.column_stack([x, concept])
    return g, f, apply(f, samples, seed=draw(st.integers(0, 3))), samples


def assert_evaluate_run_matches_sorting(g, f, erased, samples):
    """``evaluate_run``'s plug-in point and TVs equal (==) the sorting way's."""
    points, tvs, _ = evaluate_run(g, f, erased, samples)
    z, concept = erased[:, 0], erased[:, 1]
    za = from_pairs_by_sorting(erased)
    zx = from_pairs_by_sorting(np.column_stack([z, samples[:, 0]]))
    assert points[1] == TradeoffPoint(plugin_mi(zx), plugin_mi(za), "pef", "plugin")
    pooled = empirical_dist(z)
    want = []
    for c in g.concepts:
        zs = z[concept == c]
        want.append(tv_distance(empirical_dist(zs), pooled) if zs.size else 1.0)
    assert tvs == want
    return tvs


@settings(max_examples=150, deadline=None)
@given(evaluate_inputs())
def test_evaluate_run_matches_sorting_reference(inputs):
    assert_evaluate_run_matches_sorting(*inputs)


def test_evaluate_run_concept_without_rows_and_concept_outside_dists():
    # Concept 1 of the distributions has no rows; concept 7 has rows but no group.
    rng = np.random.default_rng(4)
    g = grouped(rng.dirichlet(np.ones(40)), rng.dirichlet(np.ones(30)))
    f, _ = build_pef(g, tol=1e-9)
    x = rng.choice(f.ids, size=3000)
    samples = np.column_stack([x, np.where(rng.random(3000) < 0.5, 0, 7)])
    tvs = assert_evaluate_run_matches_sorting(g, f, apply(f, samples, seed=2), samples)
    assert tvs[1] == 1.0 and 0.0 < tvs[0] < 1.0


@pytest.mark.parametrize("known", [[5, 7, 5, 7], [5, 7, 10**15]])
def test_check_symbols_known_counts_distinct_missing(known):
    # Repeated missing ids count once, a repeated known id does not break the
    # check, and the message names the smallest missing id (table and search
    # paths of symbol_codes).
    symbols = np.array([9, 5, 3, 9, 12, 3, 7, 12, 3])
    with pytest.raises(AlignmentError) as exc:
        check_symbols_known(symbols, known, "the samples", "--dists")
    assert str(exc.value) == "3 symbol(s) of the samples missing from --dists, first 3"
    check_symbols_known(symbols[[1, 6]], known, "the samples", "--dists")


def test_tradeoff_point_clamps():
    p = TradeoffPoint(-0.01, -0.002, "pef", "plugin")
    assert p.utility_bits == 0.0 and p.privacy_bits == 0.0
