import dataclasses
import hashlib
import json
import math
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pefkit import (
    BoConfig,
    Categorical,
    DataConstraintError,
    ErasureFunction,
    GroupedData,
    JointCounts,
    Permutation,
    Sample,
    SynthConfig,
    analyze,
    apply,
    build_deterministic_pef,
    build_pef,
    build_stochastic_pef,
    default_tol,
    entropy,
    generate,
    greedy_mec,
    grouped_from_samples,
    load_function_json,
    objective_j,
    read_erased_csv,
    read_samples_csv,
    run_algorithm1,
    save_function_json,
    select_q,
    write_erased_csv,
    write_samples_csv,
)
from pefkit.dist import EXACT_TOL, NORM_TOL, RENORM_TOL, TRIM_EPS, DistError, ranked
from pefkit import _kernels, coupling, pef, qopt
from pefkit._kernels import LOCKSTEP_MIN, greedy_cells, greedy_fill
from pefkit.sample_io import CSV_WRITE_CHUNK, _loadtxt_pairs
from pefkit.qopt import QCandidate, output_support
from conftest import random_grouped


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


def estimate_distribution(rows: np.ndarray, concept: int) -> Categorical:
    """Empirical frequencies of the symbols observed for one concept, by sorting."""
    symbols, counts = np.unique(rows[rows[:, 1] == concept, 0], return_counts=True)
    return Categorical(symbols, counts / counts.sum())


def row_of(f: ErasureFunction, x: int) -> Categorical:
    """P(Z|X=x) read off the table (a point mass when deterministic)."""
    r = int(np.searchsorted(f.ids, x))
    assert f.ids[r] == x
    cells = slice(f.bounds[r], f.bounds[r + 1])
    return Categorical(f.out[cells], f.probs[cells])


def image(f: ErasureFunction, x: int) -> int:
    """The image of ``x`` under a deterministic function, read off the table."""
    (z,) = row_of(f, x).support.tolist()
    return z


def grouped_by_sorting(rows: np.ndarray) -> GroupedData:
    """``grouped_from_samples`` by ``np.unique`` sorts, kept as its oracle."""
    if not len(rows):
        raise DataConstraintError("empty sample set")
    x, concept = rows[:, 0], rows[:, 1]
    concepts, counts = np.unique(concept, return_counts=True)
    if len(concepts) < 2:
        raise DataConstraintError("need samples from at least two concepts")
    _, first, inverse = np.unique(x, return_index=True, return_inverse=True)
    owner = concept[first][inverse]
    clash = np.flatnonzero(owner != concept)
    if clash.size:
        i = clash[0]
        raise DataConstraintError(
            f"symbol {x[i]} appears under concepts {owner[i]} and {concept[i]} "
            "(disjoint-support assumption violated)"
        )
    dists = [estimate_distribution(rows, c) for c in concepts.tolist()]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GroupedData(
            tuple(zip(concepts.tolist(), dists)), counts.astype(np.float64) / len(rows)
        )


class TestEstimation:
    def test_grouped_from_samples_priors(self):
        samples = [Sample(0, 0)] * 3 + [Sample(5, 1)] * 1
        with pytest.warns(UserWarning, match="A5 violated"):
            g = grouped_from_samples(samples)
        np.testing.assert_allclose(g.priors, [0.75, 0.25])

    def test_grouped_rejects_shared_symbol(self):
        with pytest.raises(DataConstraintError, match="symbol 7"):
            grouped_from_samples([Sample(7, 0), Sample(7, 1)])

    def test_grouped_rejects_single_concept(self):
        with pytest.raises(DataConstraintError):
            grouped_from_samples([Sample(0, 0), Sample(1, 0)])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-3, 40), st.integers(0, 3)), min_size=1, max_size=60),
        st.sampled_from([1, 2**40]),
    )
    def test_grouped_from_samples_matches_sorting(self, pairs, scale):
        # Symbols spread by ``scale`` take the table path or the sort.
        rows = np.array(pairs, dtype=np.int64) * np.array([scale, 1])
        try:
            want = grouped_by_sorting(rows)
        except DistError as exc:  # a clash, one concept, or a negative symbol
            with pytest.raises(type(exc)) as got:
                grouped_from_samples(rows)
            assert str(got.value) == str(exc)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = grouped_from_samples(rows)
        assert g.concepts.tolist() == want.concepts.tolist()
        assert g.priors.tolist() == want.priors.tolist()
        for d, w in zip(g.dists, want.dists):
            assert d.support.tolist() == w.support.tolist() and d.probs.tolist() == w.probs.tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-3, 40), st.integers(0, 3)), min_size=1, max_size=60),
        st.sampled_from([1, 2**40]),
        st.integers(1, 7),
    )
    # Symbol 2 is filed under concept 0 in the first chunk; row 4, in the
    # third chunk, holds it under concept 1.
    @example(pairs=[(0, 0), (1, 1), (2, 0), (3, 1), (2, 1)], scale=1, chunk=2)
    def test_grouped_from_samples_does_not_depend_on_chunk_size(self, pairs, scale, chunk):
        rows = np.array(pairs, dtype=np.int64) * np.array([scale, 1])

        def estimate():
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    return grouped_from_samples(rows)
            except DistError as exc:
                return exc

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "CODE_CHUNK", len(rows))
            want = estimate()
            mp.setattr(_kernels, "CODE_CHUNK", chunk)
            got = estimate()
        if isinstance(want, DistError):
            assert type(got) is type(want) and str(got) == str(want)
            return
        assert got.concepts.tobytes() == want.concepts.tobytes()
        assert got.priors.tobytes() == want.priors.tobytes()
        for d, w in zip(got.dists, want.dists, strict=True):
            assert d.support.tobytes() == w.support.tobytes()
            assert d.probs.tobytes() == w.probs.tobytes()

    def test_clash_in_a_later_chunk_names_its_row(self, monkeypatch):
        # The first chunk files symbol 1 under concept 1; row 6, alone in the
        # third chunk, holds it under concept 0.
        rows = np.array([(0, 0), (1, 1), (2, 0), (3, 1), (4, 0), (5, 1), (1, 0)])
        monkeypatch.setattr(_kernels, "CODE_CHUNK", 3)
        message = "symbol 1 appears under concepts 1 and 0 (disjoint-support assumption violated)"
        with pytest.raises(DataConstraintError) as err:
            grouped_from_samples(rows)
        assert str(err.value) == message

    def test_default_tol_value(self):
        # 2 * sqrt(ln(200) / 2000) at n_min=1000, delta=0.01
        assert default_tol(1000) == pytest.approx(
            2.0 * math.sqrt(math.log(200.0) / 2000.0), abs=1e-15
        )


class TestDeterministicBranch:
    def test_maps_rank_to_rank(self):
        g = grouped([0.5, 0.3, 0.2], [0.2, 0.5, 0.3])
        f = build_deterministic_pef(g)
        assert f.variant == "deterministic"
        assert f.output_support.tolist() == [6, 7, 8]
        # group 0 sorted: 0(.5), 1(.3), 2(.2); group 1 sorted: 4(.5), 5(.3), 3(.2)
        assert image(f, 0) == 6 and image(f, 4) == 6
        assert image(f, 1) == 7 and image(f, 5) == 7
        assert image(f, 2) == 8 and image(f, 3) == 8
        np.testing.assert_allclose(f.q.probs, [0.5, 0.3, 0.2])

    def test_rejects_unequal_groups(self):
        g = grouped([0.5, 0.5], [0.6, 0.4])
        with pytest.raises(DataConstraintError):
            build_deterministic_pef(g)

    def test_pushforward_equals_q_exactly(self, rng):
        # Bitwise equality needs identical normalization order, so both
        # groups share the same probability vector here.
        for _ in range(20):
            k = int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(k))
            g = grouped(probs, probs)
            f = build_deterministic_pef(g)
            for d in g.dists:
                np.testing.assert_array_equal(f.induced_outputs([d])[0], f.q.probs)

    def test_pushforward_permuted_groups_close(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(k))
            g = grouped(probs, probs[rng.permutation(k)])
            f = build_deterministic_pef(g)
            for d in g.dists:
                np.testing.assert_allclose(f.induced_outputs([d])[0], f.q.probs, atol=1e-14)

    def test_reconstruction_from_z_and_a(self):
        g = grouped([0.5, 0.3, 0.2], [0.2, 0.5, 0.3])
        f = build_deterministic_pef(g)
        concept_of = {x: c for c, d in g.groups for x in d.support}
        inverse = {(z, concept_of[x]): x for x, z in zip(f.ids.tolist(), f.out.tolist())}
        for concept, d in g.groups:
            for x in d.support:
                assert inverse[(image(f, x), concept)] == x

    def test_report_values(self):
        g = grouped([0.5, 0.3, 0.2], [0.2, 0.5, 0.3])
        _, report = build_pef(g, tol=1e-9)
        assert report.branch == "equal"
        assert report.i_za_analytic == pytest.approx(0.0, abs=1e-12)
        assert report.i_zx_analytic == pytest.approx(1.4854752972273344, abs=1e-12)
        assert report.j_value == 0.0


class TestBranchTest:
    """``build_pef`` runs the permutation test once, through ``build_deterministic_pef``."""

    @staticmethod
    def record_checks(monkeypatch) -> list[Categorical]:
        """The second argument of every ``check_permutation_equal`` call ``pef`` makes."""
        tested, check = [], pef.check_permutation_equal

        def counting(p, q, tol):
            tested.append(q)
            return check(p, q, tol)

        monkeypatch.setattr(pef, "check_permutation_equal", counting)
        return tested

    @staticmethod
    def groups(*probs) -> GroupedData:
        supports = np.cumsum([0] + [len(p) for p in probs])
        return GroupedData(
            tuple((i, Categorical(range(supports[i], supports[i + 1]), p))
                  for i, p in enumerate(probs)),
            np.full(len(probs), 1.0 / len(probs)),
        )

    def test_equal_groups_are_tested_once_each(self, monkeypatch):
        g = self.groups([0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5])
        tested = self.record_checks(monkeypatch)
        f, report = build_pef(g, tol=1e-9)
        assert f.variant == "deterministic" and report.branch == "equal"
        assert [id(d) for d in tested] == [id(d) for d in g.dists[1:]]

    def test_unequal_groups_stop_at_the_first_unequal_group(self, monkeypatch):
        g = self.groups([0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.6, 0.3, 0.1], [0.7, 0.2, 0.1])
        tested = self.record_checks(monkeypatch)
        f, report = build_pef(g, tol=1e-9)
        assert f.variant == "stochastic" and report.branch == "unequal"
        assert [id(d) for d in tested] == [id(d) for d in g.dists[1:3]]


class TestStochasticBranch:
    def test_branch_selected_and_erasure_exact(self):
        g = grouped([0.5, 0.5], [0.6, 0.4])
        f, report = build_pef(g, tol=1e-9)
        assert f.variant == "stochastic"
        assert report.branch == "unequal"
        assert report.i_za_analytic == pytest.approx(0.0, abs=1e-12)
        assert report.j_value == pytest.approx(-0.18048202372184052, abs=1e-9)
        assert report.i_zx_analytic == pytest.approx(
            report.h_x_given_a + report.j_value, abs=1e-12
        )

    def test_every_group_pushes_to_q(self, rng):
        for _ in range(15):
            g = random_grouped(rng)
            f, report = build_pef(g, tol=0.0)
            for d in g.dists:
                np.testing.assert_allclose(f.induced_outputs([d])[0], f.q.probs, atol=1e-9)
            assert abs(report.i_za_analytic) <= 1e-8

    def test_rows_cover_all_symbols(self):
        g = grouped([0.5, 0.5], [0.6, 0.4])
        q = select_q(g, 2)
        f = build_stochastic_pef(g, q)
        assert f.ids.tolist() == [0, 1, 2, 3]
        assert set(f.out.tolist()) <= set(f.output_support.tolist())

    def test_utility_identity_randomized(self, rng):
        for _ in range(10):
            g = random_grouped(rng)
            _, report = build_pef(g, tol=0.0)
            assert report.i_zx_analytic == pytest.approx(
                report.h_x_given_a + report.j_value, abs=1e-9
            )
            assert report.j_value <= 1e-12

    # analyze reads J off the compiled table; objective_j computes it again
    # from the dense greedy coupling of each group with Q.
    def test_j_matches_objective_j_on_random_groups(self, rng):
        for _ in range(10):
            g = random_grouped(rng)
            f, report = build_pef(g, tol=0.0)
            assert report.j_value == pytest.approx(objective_j(f.q, g), abs=1e-9)

    @pytest.mark.parametrize("groups,support", [(2, 50), (4, 200), (8, 1000)])
    def test_j_matches_objective_j_on_generated_groups(self, groups, support):
        cfg = SynthConfig(n_groups=groups, support_per_group=support,
                          n_samples_per_group=1, setting="unequal", seed=1)
        g, _ = generate(cfg)
        f, report = build_pef(g, tol=1e-9)
        assert report.branch == "unequal"
        assert report.j_value == pytest.approx(objective_j(f.q, g), abs=1e-9)


def build_stochastic_reference(g: GroupedData, q: QCandidate) -> ErasureFunction:
    """The dense construction the batched build replaced, kept as the oracle:
    ``greedy_fill`` of each group's ranked probabilities onto Q, one row per
    ranked symbol, then each row's non-zero cells divided by the row's numpy
    sum, cells of TRIM_EPS or less dropped."""
    ids, sizes, out, probs = [], [], [], []
    for d in g.dists:
        symbols, ranked_probs = ranked(d)
        for x, row in zip(symbols, greedy_fill(ranked_probs, q.dist.probs)):
            cols = np.flatnonzero(row)
            p = row[cols] / row.sum()
            keep = p > TRIM_EPS
            ids.append(x)
            sizes.append(np.count_nonzero(keep))
            out.extend(np.array(q.dist.support)[cols[keep]].tolist())
            probs.extend(p[keep].tolist())
    return ErasureFunction("stochastic", q.dist.support, q.dist, ids=ids,
                           bounds=np.cumsum([0, *sizes]), out=out, probs=probs)


# Weights from 1..3 tie often; weights up to 10**6 seldom do.
_weights = st.lists(st.one_of(st.integers(1, 3), st.integers(1, 10**6)), min_size=1, max_size=12)


@given(groups=st.lists(_weights, min_size=2, max_size=5), q_weights=_weights,
       extra=st.integers(0, 3), prior_weights=st.lists(st.integers(1, 5), min_size=5, max_size=5))
@example(groups=[[1], [1, 2]], q_weights=[1], extra=1, prior_weights=[1, 1, 1, 1, 1])
@settings(max_examples=150, deadline=None)
def test_batched_build_matches_dense_reference(groups, q_weights, extra, prior_weights):
    dists, base = [], 0
    for w in groups:
        dists.append(Categorical(tuple(range(base, base + len(w))), np.array(w) / sum(w)))
        base += len(w)
    priors = np.array(prior_weights[: len(dists)], dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small groups may violate A5
        g = GroupedData(tuple(enumerate(dists)), priors / priors.sum())
    # Q spans at least the largest group, so the groups of other sizes are padded.
    q_w = (q_weights * (max(map(len, groups)) + extra))[: max(map(len, groups)) + extra]
    support = output_support(g, len(q_w))
    q = qopt._j_values([Categorical(support, np.array(q_w) / sum(q_w))], g, "stationary")[0]
    f = build_stochastic_pef(g, q)
    ref = build_stochastic_reference(g, q)
    for name in ("ids", "bounds", "out"):
        np.testing.assert_array_equal(getattr(f, name), getattr(ref, name))
    np.testing.assert_allclose(f.probs, ref.probs, rtol=0, atol=1e-15)
    assert np.all(np.abs(np.add.reduceat(f.probs, f.bounds[:-1]) - 1.0) <= NORM_TOL)
    for d in g.dists:
        assert np.abs(f.induced_outputs([d])[0] - q.dist.probs).max() <= RENORM_TOL
    assert analyze(f, g).i_za_analytic <= 1e-12


def build_from_fresh_couplings(g: GroupedData, q: QCandidate) -> ErasureFunction:
    """The build as it ran before the Q search handed over its couplings,
    kept as the oracle: every group coupled onto Q again, in one
    ``greedy_cells`` call of ``len(g.dists)`` couplings, each group by its
    ranked probabilities."""
    cells = greedy_cells([ranked(d)[1] for d in g.dists], [q.dist.probs] * len(g.dists))
    return build_stochastic_pef(g, dataclasses.replace(q, cells=cells))


def build_from_support_order(g: GroupedData, q: QCandidate) -> ErasureFunction:
    """The build as it ran while the Q search mapped each coupling's rows
    from rank positions back to support positions, kept as the oracle: the
    cells re-sorted row-major by one stable sort on their new rows, and
    each group's rows handed over in id order with ``d.probs``."""
    parts = []
    for d, (rows, cols, mass) in zip(g.dists, q.cells, strict=True):
        rows = np.searchsorted(d.support, ranked(d)[0])[rows]
        order = np.argsort(rows, kind="stable")
        bounds, cols, probs = coupling.conditional_rows(
            rows[order], cols[order], mass[order], d.probs
        )
        parts.append((d.support, np.diff(bounds), cols, probs))
    ids, sizes, cols, probs = (np.concatenate(a) for a in zip(*parts))
    return ErasureFunction("stochastic", q.dist.support, q.dist, ids=ids,
                           bounds=np.concatenate([[0], np.cumsum(sizes)]),
                           out=q.dist.support[cols], probs=probs)


def assert_same_table(f: ErasureFunction, ref: ErasureFunction) -> None:
    assert f.variant == ref.variant and f.q == ref.q
    for name in ("output_support", "ids", "bounds", "out", "probs", "cdfs"):
        a, b = getattr(f, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@given(groups=st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=10), min_size=2,
                       max_size=8),
       extra=st.integers(0, 2), bo_seed=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_scan_couplings_build_the_same_table(groups, extra, bo_seed):
    # Weights from {1, 2, 3} tie often. From 7 groups the scan's
    # n(n-1)/2 couplings run in lockstep, while the oracle's n run on heaps.
    dists, base = [], 0
    for w in groups:
        dists.append(Categorical(tuple(range(base, base + len(w))), np.array(w) / sum(w)))
        base += len(w)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small groups may violate A5
        g = GroupedData(tuple(enumerate(dists)), np.full(len(dists), 1 / len(dists)))
    n = len(groups)
    assert (n * (n - 1) // 2 >= LOCKSTEP_MIN) == (n >= 7)
    out_size = max(map(len, groups)) + extra
    bo = BoConfig(budget=len(groups) + 6, n_acq_candidates=32, seed=bo_seed)
    for q in (select_q(g, out_size), select_q(g, out_size, bo)):
        assert len(q.cells) == len(groups)
        assert_same_table(build_stochastic_pef(g, q), build_from_fresh_couplings(g, q))


@given(groups=st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=10), min_size=2,
                       max_size=8),
       extra=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_rank_order_cells_build_the_support_order_table(groups, extra, seed):
    # Weights from {1, 2, 3} tie often; from 7 groups the scan runs in
    # lockstep, below that on heaps. The table sorts the rows by id, so
    # cells on rank positions build it byte for byte as cells moved back to
    # support positions did, for scan and Dirichlet-design candidates alike.
    dists, base = [], 0
    for w in groups:
        dists.append(Categorical(tuple(range(base, base + len(w))), np.array(w) / sum(w)))
        base += len(w)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small groups may violate A5
        g = GroupedData(tuple(enumerate(dists)), np.full(len(dists), 1 / len(dists)))
    out_size = max(map(len, groups)) + extra
    support = output_support(g, out_size)
    design = [
        qopt._softmax_dist(np.log(np.maximum(p, 1e-12)), support)
        for p in np.random.default_rng(seed).dirichlet(np.ones(out_size), size=2)
    ]
    for q in qopt.scan_stationary(g, out_size) + qopt._j_values(design, g, "bayesopt"):
        assert_same_table(build_stochastic_pef(g, q), build_from_support_order(g, q))


@pytest.mark.parametrize("support,seed", [(4, 4), (10, 1)])
def test_gp_round_winner_builds_the_same_table(monkeypatch, support, seed):
    # On these inputs the best Q is a GP-UCB round's proposal, scored alone;
    # at 2 x 10 the Dirichlet design before it runs in lockstep.
    g, _ = generate(SynthConfig(2, support, 10, "unequal", seed=seed))
    batches, score = [], qopt._scored

    def recorded(qs, cells, g, source):
        batches.append(score(qs, cells, g, source))
        return batches[-1]

    monkeypatch.setattr(qopt, "_scored", recorded)
    q = select_q(g, support, BoConfig(budget=support + 12, n_acq_candidates=64, seed=0))
    rounds = [c for batch in batches[2:] for c in batch]
    assert q.source == "bayesopt" and any(c is q for c in rounds)
    assert_same_table(build_stochastic_pef(g, q), build_from_fresh_couplings(g, q))


def test_unequal_build_pef_couples_once(monkeypatch):
    # The scan couples each of the 4 groups' 6 pairs once, in one call; the
    # build takes the winner's couplings from it and couples nothing again.
    original, batches = _kernels.greedy_cells, []

    def counted(ps, qs):
        batches.append(len(ps))
        return original(ps, qs)

    for module in (_kernels, coupling, pef, qopt):
        if getattr(module, "greedy_cells", None) is original:
            monkeypatch.setattr(module, "greedy_cells", counted)
    g, _ = generate(SynthConfig(4, 30, 10, "unequal", seed=1))
    _, report = build_pef(g, tol=EXACT_TOL)
    assert report.branch == "unequal"
    assert batches == [6]


def test_golden_eight_by_fifty_function_json(tmp_path):
    # Pinned from the build that coupled the winner again, on heaps, after
    # the scan had coupled all 64 pairs in lockstep.
    g, _ = generate(SynthConfig(8, 50, 10, "unequal", seed=1))
    f, report = build_pef(g, tol=EXACT_TOL)
    assert report.branch == "unequal"
    save_function_json(f, tmp_path / "function.json")
    assert hashlib.sha256((tmp_path / "function.json").read_bytes()).hexdigest() == (
        "9653b47fa534d47ed53c685025696174b28f3d8faa996d8fe647e2933d2c927e"
    )


def test_analyze_hand_built_table_with_zero_cell():
    # Symbol 0 goes to 10 (its row also holds a zero cell for 11), 1 and 3 go
    # to 11, and 2 goes to 10 or 11 at odds 2:1. Both groups push onto
    # Q = (1/2, 1/2), and only row 2 is uncertain, so
    # I(Z;X) = H(Q) - p(X=2) h(1/3) = 1 - 0.375 (log2 3 - 2/3).
    g = GroupedData(
        ((0, Categorical((0, 1), [0.5, 0.5])), (1, Categorical((2, 3), [0.75, 0.25]))),
        [0.5, 0.5],
    )
    f = ErasureFunction(
        "stochastic", (10, 11), Categorical.uniform((10, 11)), ids=[0, 1, 2, 3],
        bounds=[0, 2, 3, 5, 6], out=[10, 11, 11, 10, 11, 11],
        probs=[1.0, 0.0, 1.0, 2 / 3, 1 / 3, 1.0],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the zero cell must not reach log2
        report = analyze(f, g)
    assert report.i_zx_analytic == pytest.approx(1 - 0.375 * (math.log2(3) - 2 / 3), abs=1e-12)
    assert report.j_value == pytest.approx(-0.25, abs=1e-12)
    assert report.i_za_analytic == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", [4, 5])
def test_analyze_never_reports_negative_i_za(seed):
    # H(Z) - H(Z|A) read -1.8e-15 on these 8x1000 groups before the clamp.
    g, _ = generate(SynthConfig(8, 1000, 10, "unequal", seed=seed))
    _, report = build_pef(g, tol=EXACT_TOL)
    assert report.branch == "unequal"
    assert report.i_za_analytic == 0.0


def test_analyze_rejects_q_off_the_pushforward():
    g = grouped([0.5, 0.5], [0.6, 0.4])
    f, _ = build_pef(g, tol=1e-9)
    wrong = Categorical(f.q.support, [0.9, 0.1])
    edited = ErasureFunction(
        "stochastic", f.output_support, wrong, ids=f.ids, bounds=f.bounds, out=f.out, probs=f.probs
    )
    with pytest.raises(DistError, match="differs from the pushforward of group"):
        analyze(edited, g)


def test_q_outside_output_support_is_rejected():
    g = grouped([0.5, 0.5], [0.6, 0.4])
    f, _ = build_pef(g, tol=1e-9)
    outside = Categorical.uniform((100, 101))
    with pytest.raises(DistError, match="q has symbol 100 outside output_support"):
        ErasureFunction(
            "stochastic", f.output_support, outside, ids=f.ids, bounds=f.bounds, out=f.out,
            probs=f.probs,
        )


def test_group_maps_is_not_kept():
    # group_maps is compiled into the table; no instance reads it back,
    # whichever way the function was built.
    maps = {0: Permutation({0: 10, 1: 11}), 1: Permutation({2: 10, 3: 11})}
    q = Categorical.uniform((10, 11))
    built = [
        ErasureFunction("deterministic", [10, 11], q, group_maps=maps),
        ErasureFunction("deterministic", [10, 11], q, ids=[0, 1, 2, 3],
                        bounds=[0, 1, 2, 3, 4], out=[10, 11, 10, 11], probs=[1.0] * 4),
    ]
    for f in built:
        assert f.ids.tolist() == [0, 1, 2, 3] and f.out.tolist() == [10, 11, 10, 11]
        assert not hasattr(f, "group_maps")


def test_load_function_json_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique checks np.ma.is_masked on numpy 2.4, importing numpy.ma (10-15 ms)
    # in every fresh erase or evaluate process; the load must not call it.
    import subprocess
    import sys

    import pefkit

    f, _ = build_pef(grouped([0.5, 0.5], [0.6, 0.4]), tol=1e-9)
    path = tmp_path / "function.json"
    save_function_json(f, path)
    script = (
        "import sys\n"
        "from pefkit import load_function_json\n"
        "before = 'numpy.ma' in sys.modules\n"
        f"load_function_json({str(path)!r})\n"
        "assert ('numpy.ma' in sys.modules) == before, before\n"
    )
    src = os.path.dirname(os.path.dirname(pefkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", script], check=True, env=env)


@pytest.mark.parametrize(
    "ids,out",
    [([0.4, 1.7], [10, 11]), ([0, 1], [10.6, 11.2]), ([0.4, 1.7], [10.6, 11.2])],
)
def test_fractional_table_ids_are_rejected(ids, out):
    # They were once truncated to [0, 1] and [10, 11] without an error.
    with pytest.raises(DistError, match="must be integers"):
        ErasureFunction(
            "stochastic", (10, 11), Categorical.uniform((10, 11)),
            ids=ids, bounds=[0, 1, 2], out=out, probs=[1.0, 1.0],
        )


@pytest.mark.parametrize(
    "ids,bounds,out,probs,match",
    [
        ([0, 1], [1, 2, 3], [10, 11], [1.0, 1.0], "from 0 to len"),
        ([0, 1], [0, 1], [10, 11], [1.0, 1.0], r"len\(ids\) \+ 1 = 3 entries"),
        ([0, 1], [0, 1, 3], [10, 11], [1.0, 1.0], r"to len\(out\) = 2"),
        ([[0, 1]], [0, 1, 2], [10, 11], [1.0, 1.0], "ids must be a flat list"),
        ([0, 1], [0, 1, 2], [[10], [11]], [1.0, 1.0], "out must be a flat list"),
        ([0, 1], [0, [1], 2], [10, 11], [1.0, 1.0], "bounds must be a flat list"),
        ([0, 1], [0, 1, 2], [10, 11], 1.0, "probs must be a flat list"),
        ([0, 1], [0, 1, 2], [10, 11], [1.0], "one probability per output"),
        ([0, 1], [0, 1, 2], [10, 11], ["1", "1"], "probs must be numbers"),
        ([True, False], [0, 1, 2], [10, 11], [1.0, 1.0], "ids must be integers"),
        # numpy reads these mixed lists as [0, 1] and [1.0, 1.0].
        ([0, True], [0, 1, 2], [10, 11], [1.0, 1.0], "ids must be integers, got bool"),
        ([0, 1], [0, 1, 2], [10, 11], [1.0, True], "probs must be numbers, got bool"),
    ],
)
def test_malformed_table_shape_is_rejected(ids, bounds, out, probs, match):
    # Mismatched bounds once raised numpy's "all keys need to be the same
    # shape", and a 2-d ids array "has more than one row".
    with pytest.raises(DistError, match=match):
        ErasureFunction(
            "stochastic", (10, 11), Categorical.uniform((10, 11)),
            ids=ids, bounds=bounds, out=out, probs=probs,
        )


def induced_output_reference(f, d):
    """The per-symbol, per-cell loop the bincount replaced, kept as the oracle."""
    out = np.zeros(len(f.output_support))
    idx = {z: k for k, z in enumerate(f.output_support)}
    for s, p in zip(d.support, d.probs):
        row = row_of(f, s)
        for z, rp in zip(row.support, row.probs):
            out[idx[z]] += float(p) * float(rp)
    return out


def test_induced_output_matches_reference(rng):
    variants = set()
    for _ in range(15):
        probs = rng.dirichlet(np.ones(int(rng.integers(2, 6))))
        for g in (random_grouped(rng), grouped(probs, probs[::-1])):
            f, _ = build_pef(g, tol=1e-9)
            variants.add(f.variant)
            # Two distributions that share the symbols in the middle of the
            # table, as shared-support `evaluate --dists` groups do.
            half = len(f.ids) // 2
            shared = [
                Categorical(ids, rng.dirichlet(np.ones(len(ids))))
                for ids in (f.ids[: half + 1], f.ids[half - 1 :])
            ]
            for dists in (g.dists, shared):
                outputs = f.induced_outputs(dists)
                assert outputs.shape == (len(dists), len(f.output_support))
                for d, row in zip(dists, outputs):
                    assert row.tobytes() == induced_output_reference(f, d).tobytes()
    assert variants == {"deterministic", "stochastic"}


class TestApply:
    def test_deterministic_apply(self):
        g = grouped([0.5, 0.3, 0.2], [0.2, 0.5, 0.3])
        f = build_deterministic_pef(g)
        samples = [Sample(0, 0), Sample(4, 1), Sample(2, 0)]
        erased = apply(f, samples, seed=0)
        assert erased.dtype == np.int64
        assert erased.tolist() == [[6, 0], [6, 1], [8, 0]]
        # Point-mass rows draw nothing, so any seed, even an invalid one, works.
        np.testing.assert_array_equal(apply(f, samples, seed=-1), erased)

    def test_stochastic_apply_reproducible(self):
        g = grouped([0.5, 0.5], [0.6, 0.4])
        f, _ = build_pef(g, tol=1e-9)
        samples = [Sample(int(x), int(x > 1)) for x in [0, 1, 2, 3] * 25]
        a = apply(f, samples, seed=42)
        b = apply(f, samples, seed=42)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, apply(f, samples, seed=43))

    def test_stochastic_apply_order_independent(self):
        g = grouped([0.5, 0.5], [0.6, 0.4])
        f, _ = build_pef(g, tol=1e-9)
        samples = [Sample(int(x), int(x > 1)) for x in [0, 1, 2, 3] * 10]
        full = apply(f, samples, seed=7)
        # draw for index k depends only on (seed, k), not on earlier samples
        np.testing.assert_array_equal(apply(f, samples[:5], seed=7), full[:5])

    def test_stochastic_apply_frequencies(self):
        g = grouped([0.5, 0.5], [0.6, 0.4])
        f, _ = build_pef(g, tol=1e-9)
        n = 20000
        erased = apply(f, [Sample(2, 1)] * n, seed=1)
        row = row_of(f, 2)
        for z, p in zip(row.support, row.probs):
            freq = np.count_nonzero(erased[:, 0] == z) / n
            assert freq == pytest.approx(float(p), abs=0.02)

    def test_unknown_symbol_raises(self):
        g = grouped([0.5, 0.5], [0.6, 0.4])
        f, _ = build_pef(g, tol=1e-9)
        with pytest.raises(KeyError):
            apply(f, [Sample(99, 0)], seed=0)


def _sparse_ids_grouped(p1, p2):
    """Two groups on the symbols 10, 20, 30 and 40, 50, 60."""
    return GroupedData(
        (
            (0, Categorical((10, 20, 30), np.asarray(p1, dtype=np.float64))),
            (1, Categorical((40, 50, 60), np.asarray(p2, dtype=np.float64))),
        ),
        np.array([0.5, 0.5]),
    )


class TestApplyLookup:
    VARIANTS = {
        "deterministic": ([0.5, 0.3, 0.2], [0.3, 0.2, 0.5]),
        "stochastic": ([0.5, 0.3, 0.2], [0.6, 0.3, 0.1]),
    }

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("symbol", [5, 15, 45, 70], ids=["below", "between", "gap", "above"])
    def test_unknown_symbol_raises(self, variant, symbol):
        f, _ = build_pef(_sparse_ids_grouped(*self.VARIANTS[variant]), tol=1e-9)
        assert f.variant == variant
        samples = [(10, 0), (symbol, 0), (60, 1)]
        with pytest.raises(KeyError, match=f"unknown symbol {symbol}"):
            apply(f, samples, seed=0)

    def test_deterministic_apply_matches_table(self, rng):
        f, _ = build_pef(_sparse_ids_grouped(*self.VARIANTS["deterministic"]), tol=1e-9)
        x = rng.choice([10, 20, 30, 40, 50, 60], size=300)
        samples = np.column_stack([x, x >= 40])
        erased = apply(f, samples, seed=0)
        assert erased[:, 0].tolist() == [image(f, s) for s in x.tolist()]
        np.testing.assert_array_equal(erased[:, 1], samples[:, 1])


@st.composite
def _functions(draw, variant="stochastic"):
    """The table of a function of ``variant`` on random sparse ids, as plain
    values that Hypothesis can print, and samples over its ids; ``_build``
    makes the function."""
    out = tuple(range(10**6, 10**6 + 8))
    ids = draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=6, unique=True))
    cells = 8 if variant == "stochastic" else 1
    sizes, outs, probs = [], [], []
    for _ in ids:
        support = draw(st.lists(st.sampled_from(out), min_size=1, max_size=cells, unique=True))
        w = np.array(
            draw(st.lists(st.floats(1e-3, 1.0), min_size=len(support), max_size=len(support)))
        )
        sizes.append(len(support))
        outs += support
        probs += (w / w.sum()).tolist()
    table = dict(variant=variant, output_support=out, ids=ids,
                 bounds=np.cumsum([0, *sizes]).tolist(), out=outs, probs=probs)
    xs = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=300))
    return table, np.column_stack([xs, np.arange(len(xs)) % 3])


def _build(table):
    return ErasureFunction(q=Categorical.uniform(table["output_support"]), **table)


@settings(max_examples=150, deadline=None)
@given(_functions(), st.integers(0, 2**64 - 1), st.data())
def test_stochastic_apply_is_exact_inverse_cdf(fs, seed, data):
    table, samples = fs
    f = _build(table)
    erased = apply(f, samples, seed)
    u = np.random.Generator(np.random.Philox(key=seed)).random(len(samples))
    for (x, _), z, ui in zip(samples.tolist(), erased[:, 0].tolist(), u):
        row = row_of(f, x)
        k = int(np.searchsorted(np.cumsum(row.probs), ui, side="right"))
        assert z == row.support[min(k, len(row) - 1)]
    np.testing.assert_array_equal(erased[:, 1], samples[:, 1])
    for a, b in zip(f.bounds[:-1], f.bounds[1:]):
        assert f.cdfs[a:b].tobytes() == np.cumsum(f.probs[a:b]).tobytes()
    m = data.draw(st.integers(0, len(samples)))
    np.testing.assert_array_equal(apply(f, samples[:m], seed), erased[:m])
    text = json.dumps(f.to_json(), sort_keys=True)
    reloaded = ErasureFunction.from_json(json.loads(text))
    np.testing.assert_array_equal(apply(reloaded, samples, seed), erased)
    assert json.dumps(reloaded.to_json(), sort_keys=True) == text


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["deterministic", "stochastic"]).flatmap(_functions),
    st.integers(0, 2**64 - 1),
    st.integers(1, 7),
)
def test_apply_does_not_depend_on_chunk_size(fs, seed, chunk):
    table, samples = fs
    f = _build(table)
    before = samples.copy()
    assert len(samples) <= pef.APPLY_CHUNK
    whole = apply(f, samples, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pef, "APPLY_CHUNK", chunk)
        chunked = apply(f, samples, seed)
    assert chunked.dtype == whole.dtype == np.int64
    assert chunked.tobytes() == whole.tobytes()
    np.testing.assert_array_equal(samples, before)


@pytest.mark.parametrize("variant", sorted(TestApplyLookup.VARIANTS))
def test_apply_names_the_first_unknown_symbol_in_a_later_chunk(monkeypatch, variant):
    f, _ = build_pef(_sparse_ids_grouped(*TestApplyLookup.VARIANTS[variant]), tol=1e-9)
    assert f.variant == variant
    monkeypatch.setattr(pef, "APPLY_CHUNK", 2)
    samples = np.array([(10, 0), (20, 0), (40, 1), (60, 1), (30, 0), (15, 0), (70, 0), (5, 0)])
    before = samples.copy()
    with pytest.raises(KeyError, match="unknown symbol 15"):
        apply(f, samples, seed=0)
    np.testing.assert_array_equal(samples, before)


class TestEndToEnd:
    def test_run_algorithm1_equal_data(self):
        rng = np.random.default_rng(0)
        samples = []
        for i in range(4000):
            c = int(rng.integers(2))
            x = int(rng.integers(4)) + 4 * c
            samples.append(Sample(x, c))
        f, report = run_algorithm1(samples)
        assert f.variant == "deterministic"
        # The report is computed against the empirical group distributions,
        # which are only approximately equal, so leakage is small but nonzero.
        assert 0.0 <= report.i_za_analytic <= 1e-3

    def test_run_algorithm1_forced_stochastic(self):
        rng = np.random.default_rng(0)
        samples = []
        for i in range(500):
            c = int(rng.integers(2))
            x = int(rng.integers(4)) + 4 * c
            samples.append(Sample(x, c))
        f, _ = run_algorithm1(samples, tol=0.0)
        assert f.variant == "stochastic"


class TestSerialization:
    def test_function_json_round_trip(self, tmp_path):
        g = grouped([0.5, 0.5], [0.6, 0.4])
        f, _ = build_pef(g, tol=1e-9)
        path = tmp_path / "f.json"
        save_function_json(f, path)
        assert sorted(json.loads(path.read_text())) == [
            "bounds", "ids", "out", "output_support", "probs", "q", "variant",
        ]
        f2 = load_function_json(path)
        assert f2.variant == f.variant
        assert f2.output_support.tolist() == f.output_support.tolist()
        samples = [Sample(int(x), int(x > 1)) for x in [0, 1, 2, 3]]
        np.testing.assert_array_equal(apply(f2, samples, seed=5), apply(f, samples, seed=5))
        save_function_json(f2, tmp_path / "f2.json")
        assert (tmp_path / "f2.json").read_bytes() == path.read_bytes()

    def test_slightly_off_row_is_renormalized_on_load(self):
        f, _ = build_pef(grouped([0.5, 0.3, 0.2], [0.6, 0.3, 0.1]), tol=1e-9)
        obj = f.to_json()
        obj["probs"][0] += 1e-8
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            f2 = ErasureFunction.from_json(obj)
        assert [str(w.message) for w in caught] == ["renormalizing 1 row(s)"]
        assert np.add.reduceat(f2.probs, f2.bounds[:-1]) == pytest.approx(1.0, abs=1e-15)

    def test_deterministic_json_round_trip(self, tmp_path):
        g = grouped([0.5, 0.3, 0.2], [0.2, 0.5, 0.3])
        f = build_deterministic_pef(g)
        save_function_json(f, tmp_path / "f.json")
        assert sorted(json.loads((tmp_path / "f.json").read_text())) == [
            "bounds", "ids", "out", "output_support", "probs", "q", "variant",
        ]
        f2 = load_function_json(tmp_path / "f.json")
        for x in range(6):
            assert image(f2, x) == image(f, x)
        save_function_json(f2, tmp_path / "f2.json")
        assert (tmp_path / "f2.json").read_bytes() == (tmp_path / "f.json").read_bytes()

    def test_sample_csv_round_trip(self, tmp_path):
        samples = [Sample(0, 0), Sample(5, 1), Sample(1, 0)]
        write_samples_csv(samples, tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_text() == "x,concept\n0,0\n5,1\n1,0\n"
        back = read_samples_csv(tmp_path / "s.csv")
        assert back.dtype == np.int64
        assert back.tolist() == [list(s) for s in samples]

    def test_erased_csv_round_trip(self, tmp_path):
        erased = [(10, 0), (11, 1)]
        write_erased_csv(erased, tmp_path / "z.csv")
        assert (tmp_path / "z.csv").read_text() == "z,concept\n10,0\n11,1\n"
        assert read_erased_csv(tmp_path / "z.csv").tolist() == [list(e) for e in erased]

    @pytest.mark.parametrize("extra", [-1, 0, 1, 3])
    def test_csv_round_trip_across_write_chunks(self, tmp_path, extra):
        n = 2 * CSV_WRITE_CHUNK + extra
        rows = np.random.default_rng(n).integers(-5, 10**6, size=(n, 2))
        write_samples_csv(rows, tmp_path / "s.csv")
        expected = "x,concept\n" + "".join(f"{x},{c}\n" for x, c in rows.tolist())
        assert (tmp_path / "s.csv").read_text() == expected
        with open(tmp_path / "s.csv", "a") as fh:
            fh.write("\n \t\n")
        assert np.array_equal(read_samples_csv(tmp_path / "s.csv"), rows)


def _loadtxt_samples(path):
    with open(path) as fh:
        return _loadtxt_pairs(fh, "x,concept", "sample")


def _rows_or_error(read, path):
    """What a reader returns, or the type and message of what it raises."""
    try:
        return read(path)
    except Exception as exc:  # the comparison is the point, whatever is raised
        return type(exc), str(exc)


def _csv_bodies(field, min_fields=2, max_fields=2):
    """CSV bodies of blank lines and lines of comma-separated fields."""
    fields = st.lists(field, min_size=min_fields, max_size=max_fields)
    line = st.one_of(st.just(""), fields.map(",".join))
    return st.tuples(st.lists(line, max_size=12), st.booleans()).map(
        lambda t: "\n".join(t[0]) + "\n" * t[1]
    )


#: Fields of 1-18 digits and an optional "-", as the CSV writer spells them.
_CANONICAL_FIELDS = st.from_regex(r"-?[0-9]{1,18}", fullmatch=True)
#: Canonical fields and near misses: extra or "+" signs, 19 digits, no
#: digit, whitespace, a trailing mark.
_NEAR_CANONICAL_FIELDS = st.one_of(
    _CANONICAL_FIELDS, st.from_regex(r"[-+ ]{0,2}[0-9]{0,19}[-. \t\r]?", fullmatch=True)
)


def _percent_d_body(rows) -> bytes:
    """The reference CSV body: ``%d,%d`` per row, formatted by Python."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    return (("%d,%d\n" * len(rows)) % tuple(rows.ravel().tolist())).encode()


#: int64 extremes, 0 and -1, and 10**k - 1, 10**k and 10**k + 1 in both signs.
_EDGE_IDS = [-2**63, 2**63 - 1, 0, -1] + [
    sign * (10**k + step) for k in range(19) for step in (-1, 0, 1) for sign in (1, -1)
]
_WRITERS = [(write_samples_csv, b"x,concept\n"), (write_erased_csv, b"z,concept\n")]


class TestCsvWriter:
    """The CSV writers against ``%d`` formatting, byte for byte."""

    @staticmethod
    def _assert_writes(tmp_dir, rows):
        for write, header in _WRITERS:
            path = tmp_dir / "w.csv"
            write(rows, path)
            data = path.read_bytes()
            assert b"\r" not in data
            assert data == header + _percent_d_body(rows)

    @pytest.mark.parametrize("rows", [
        np.column_stack([_EDGE_IDS, _EDGE_IDS[::-1]]),
        -np.arange(1, 2001).reshape(-1, 2) * 99991,
        [[-7, 3]],
        np.zeros((0, 2), dtype=np.int64),
    ], ids=["edges", "all_negative", "one_row", "no_rows"])
    def test_matches_percent_d(self, tmp_path, rows):
        self._assert_writes(tmp_path, rows)

    def test_chunks_of_different_widths(self, tmp_path):
        # One chunk of 1-digit ids, then one of 19-digit ids.
        small = np.arange(CSV_WRITE_CHUNK * 2).reshape(-1, 2) % 10
        large = -9 * 10**18 - np.arange(CSV_WRITE_CHUNK).reshape(-1, 2)
        self._assert_writes(tmp_path, np.concatenate([small, large]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(*[st.one_of(st.integers(-99, 99), st.integers(-2**63, 2**63 - 1))] * 2),
        max_size=30,
    ))
    def test_random_int64_rows(self, tmp_path_factory, rows):
        rows = np.array(rows, dtype=np.int64).reshape(-1, 2)
        self._assert_writes(tmp_path_factory.getbasetemp(), rows)


class TestCsvReader:
    """The CSV reader against the line-by-line np.loadtxt read it falls back to."""

    @settings(max_examples=200, deadline=None)
    @given(
        header=st.sampled_from(["x,concept\n", "x,concept\r\n", " x,concept\n", "z,concept\n"]),
        body=st.one_of(
            st.text(st.sampled_from("0123456789,\n-+. \t\r"), max_size=40),
            _csv_bodies(_CANONICAL_FIELDS),
            _csv_bodies(_NEAR_CANONICAL_FIELDS, 1, 4),
        ),
    )
    @example(header="x,concept\n", body="1,2,3,4\n")
    @example(header="x,concept\n", body="--1,2\n")
    @example(header="x,concept\n", body="1,\n2\n")
    @example(header="x,concept\n", body="1,2-3,4\n")
    def test_matches_loadtxt(self, tmp_path_factory, header, body):
        path = tmp_path_factory.getbasetemp() / "reader.csv"
        path.write_bytes((header + body).encode())
        got = _rows_or_error(read_samples_csv, path)
        want = _rows_or_error(_loadtxt_samples, path)
        if isinstance(want, tuple):
            assert isinstance(got, tuple) and got == want
        else:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_stream_that_cannot_seek_is_read_by_loadtxt(self, tmp_path):
        # The header check would consume a pipe, so np.loadtxt could not
        # read it again from its start; it is read line by line instead.
        fifo = tmp_path / "s.csv"
        os.mkfifo(fifo)
        rows = []
        reader = threading.Thread(target=lambda: rows.append(read_samples_csv(fifo)), daemon=True)
        reader.start()
        fifo.write_bytes(b"x,concept\r\n1,2\r\n 3,4\r\n")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert rows[0].tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    def test_plain_file_with_a_compressed_name_is_read(self, tmp_path, suffix):
        # np.loadtxt given such a path decompresses it, and fails.
        path = tmp_path / f"s.csv{suffix}"
        path.write_text("x,concept\n1,2\n3,4\n")
        assert read_samples_csv(path).tolist() == [[1, 2], [3, 4]]


def test_ids_are_read_only_int64_arrays():
    # One id representation in every value type, whatever form the ids came in.
    g, samples = generate(
        SynthConfig(n_groups=2, support_per_group=4, n_samples_per_group=200,
                    setting="unequal", seed=1)
    )
    f, _ = build_pef(g, tol=1e-9)
    c = greedy_mec(g.dists[0], Categorical.uniform([7, 8]))
    j = JointCounts((0, 1), [5, 6], [[0, 0], [1, 1]], [1, 1])
    ids = {
        "Categorical.support": Categorical((3, 1), [0.5, 0.5]).support,
        "GroupedData.symbols": g.symbols,
        "GroupedData.concepts": g.concepts,
        "ErasureFunction.output_support": f.output_support,
        "JointCounts.rows": j.rows,
        "JointCounts.cols": j.cols,
        "JointCounts.from_pairs rows": JointCounts.from_pairs(samples).rows,
        "Coupling.row_support": c.row_support,
        "Coupling.col_support": c.col_support,
    }
    for name, a in ids.items():
        assert isinstance(a, np.ndarray) and a.dtype == np.int64, name
        assert not a.flags.writeable, name
    others = {
        "Categorical.probs": Categorical((3, 1), [0.5, 0.5]).probs,
        "GroupedData.priors": g.priors,
        "Coupling.mass": c.mass,
        **{f"ErasureFunction.{name}": getattr(f, name)
           for name in ("ids", "bounds", "out", "probs", "cdfs")},
        "JointCounts.cells": j.cells,
        "JointCounts.counts": j.counts,
    }
    for name, a in others.items():
        assert not a.flags.writeable, name
