import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pefkit import (
    BoConfig,
    Categorical,
    GroupedData,
    bayes_opt_q,
    coupling_entropy,
    default_out_size,
    entropy,
    mec_oracle,
    objective_j,
    output_support,
    scan_stationary,
    select_q,
)
from pefkit import dist as dist_module
from pefkit import qopt, synth
from pefkit.pef import build_stochastic_pef
from pefkit._kernels import LOCKSTEP_MIN, greedy_cells
from pefkit.dist import ranked
from pefkit.qopt import _gp_posterior, _sq_dists
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


class TestObjective:
    def test_equal_groups_attain_zero(self):
        g = grouped([0.5, 0.5], [0.5, 0.5])
        q = Categorical.uniform(output_support(g, 2))
        assert objective_j(q, g) == pytest.approx(0.0, abs=1e-12)

    def test_worked_two_group_value(self):
        # H(Q)=1 minus the two greedy coupling entropies 1 and 1.360964...
        g = grouped([0.5, 0.5], [0.6, 0.4])
        q = Categorical.uniform(output_support(g, 2))
        expected = 1.0 - 0.5 * 1.0 - 0.5 * 1.3609640474436813
        assert objective_j(q, g) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.18048202372184052, abs=1e-12)

    def test_nonpositive_randomized(self, rng):
        for _ in range(40):
            g = random_grouped(rng)
            nz = default_out_size(g)
            q = Categorical(
                output_support(g, nz), rng.dirichlet(np.ones(nz))
            )
            assert objective_j(q, g) <= 1e-12

    def test_oracle_flag_tightens(self, rng):
        # The exact H_min of the oracle coupling gives a J no smaller than
        # the greedy surrogate's.
        for _ in range(10):
            g = random_grouped(rng, n_groups=2, support_per_group=3)
            q = Categorical(output_support(g, 3), rng.dirichlet(np.ones(3)))
            h_min = [coupling_entropy(mec_oracle(d, q)) for d in g.dists]
            oracle_j = entropy(q) - float(np.dot(g.priors, h_min))
            assert oracle_j >= objective_j(q, g) - 1e-9


class TestStationaryScan:
    def test_candidates_are_reindexed_inputs(self):
        g = grouped([0.5, 0.3, 0.2], [0.25, 0.25, 0.25, 0.25])
        cands = scan_stationary(g, 4)
        assert len(cands) == 2
        sup = output_support(g, 4)
        for c in cands:
            assert set(c.dist.support) <= set(sup)
            assert c.source == "stationary"
        probs = {tuple(np.round(c.dist.probs, 9)) for c in cands}
        assert (0.5, 0.3, 0.2) in probs
        assert (0.25, 0.25, 0.25, 0.25) in probs

    def test_two_point_worked_values(self):
        g = grouped([0.5, 0.5], [0.6, 0.4])
        cands = {tuple(np.round(c.dist.probs, 6)): c.j_value for c in scan_stationary(g, 2)}
        assert cands[(0.5, 0.5)] == pytest.approx(-0.18048202372184052, abs=1e-9)
        assert cands[(0.6, 0.4)] == pytest.approx(-0.19500672649450623, abs=1e-9)

    def test_j_equals_objective_j_bit_for_bit(self, rng):
        # Mixed support sizes, so the batched couplings run on zero padding.
        for _ in range(30):
            g = random_grouped(rng, n_groups=int(rng.integers(2, 6)))
            for out_size in (default_out_size(g), default_out_size(g) + 2):
                for c in scan_stationary(g, out_size):
                    assert c.j_value == objective_j(c.dist, g)

    def test_golden_eight_by_two_hundred(self):
        # Pinned from the scan that called objective_j once per candidate and
        # re-pinned when the cells stayed in rank order: a change in how the
        # coupling entropies are summed moves the last bits.
        g, _ = synth.generate(synth.SynthConfig(8, 200, 10, "unequal", seed=1))
        assert [c.j_value for c in scan_stationary(g, 200)] == [
            -0.15753799579833827,
            -0.14541982817273436,
            -0.12796370469966867,
            -0.16609815230553304,
            -0.1306645209958165,
            -0.11149981177882629,
            -0.14586231808252093,
            -0.11569451705360922,
        ]

    def test_best_stationary_selected_without_bo(self):
        g = grouped([0.5, 0.5], [0.6, 0.4])
        sel = select_q(g, 2)
        assert sel.source == "stationary"
        np.testing.assert_allclose(np.sort(sel.dist.probs), [0.5, 0.5])


def assert_same_cells(cells, ref):
    for a, b in zip(cells, ref, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def id_order(d: Categorical, cells):
    """Cells on ``d``'s rank positions, moved to support positions and
    sorted row-major again."""
    rows, cols, mass = cells
    rows = np.searchsorted(d.support, ranked(d)[0])[rows]
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], mass[order]


@given(groups=st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=10), min_size=2,
                       max_size=8),
       extra=st.integers(0, 2))
@example(groups=[[3, 1, 2, 2], [2, 2, 1], [1, 3, 3, 1], [2, 1], [3, 3], [1, 2, 1], [2], [1, 1, 3]],
         extra=0)
@example(groups=[[1, 2], [1, 1, 2, 2]], extra=0)
@settings(max_examples=80, deadline=None)
def test_scan_couples_ranked_groups_each_pair_once(groups, extra):
    # Weights from {1, 2, 3} tie often; from 7 groups the scan's n(n-1)/2
    # couplings run in lockstep, below that on heaps. objective_j couples
    # by the same rule, so it scores every candidate as the scan does.
    dists, base = [], 0
    for w in groups:
        dists.append(Categorical(tuple(range(base, base + len(w))), np.array(w) / sum(w)))
        base += len(w)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small groups may violate A5
        g = GroupedData(tuple(enumerate(dists)), np.full(len(dists), 1 / len(dists)))
    n = len(groups)
    assert (n * (n - 1) // 2 >= LOCKSTEP_MIN) == (n >= 7)
    cands = scan_stationary(g, max(map(len, groups)) + extra)
    for c, cand in enumerate(cands):
        assert cand.dist.probs.tobytes() == ranked(g.dists[c])[1].tobytes()
        assert cand.j_value == objective_j(cand.dist, g)
        for i, d in enumerate(g.dists):
            # A fresh coupling of ranked(P_i) onto ranked(P_c).
            fresh = greedy_cells([ranked(d)[1]], [ranked(g.dists[c])[1]])[0]
            assert_same_cells(cand.cells[i], fresh)
            # Group c onto candidate i is the transpose.
            rows, cols, mass = cand.cells[i]
            t_rows, t_cols, t_mass = cands[i].cells[c]
            ji = np.lexsort((t_rows, t_cols))
            assert np.array_equal(rows, t_cols[ji]) and np.array_equal(cols, t_rows[ji])
            assert mass.tobytes() == t_mass[ji].tobytes()
        # The diagonal is the identity: the k-th ranked symbol goes to output k.
        k = np.arange(len(g.dists[c]))
        assert_same_cells(cand.cells[c], (k, k, ranked(g.dists[c])[1]))


@pytest.mark.parametrize("seed", range(6))
def test_scan_cells_without_ties_equal_id_order_couplings(seed):
    # Dirichlet draws never tie, so coupling a group by its ranked
    # probabilities and moving the rows to support positions gives the
    # cells of coupling it in support order, both in the scan and in the
    # Dirichlet design of the GP-UCB search.
    rng = np.random.default_rng(seed)
    small = random_grouped(rng, n_groups=int(rng.integers(2, 9)))
    wide, _ = synth.generate(synth.SynthConfig(8, 50, 10, "unequal", seed=seed + 1))
    cases = [(small, default_out_size(small)), (small, default_out_size(small) + 2), (wide, 50)]
    for g, out_size in cases:
        sup = output_support(g, out_size)
        design = [
            qopt._softmax_dist(np.log(np.maximum(p, 1e-12)), sup)
            for p in rng.dirichlet(np.ones(out_size), size=3)
        ]
        for cand in scan_stationary(g, out_size) + qopt._j_values(design, g, "bayesopt"):
            for d, cells in zip(g.dists, cand.cells, strict=True):
                assert_same_cells(id_order(d, cells), greedy_cells([d.probs], [cand.dist.probs])[0])


class TestBayesOpt:
    def test_never_below_stationary(self, rng):
        for seed in range(4):
            g = random_grouped(rng, n_groups=2)
            nz = default_out_size(g)
            best_stat = max(c.j_value for c in scan_stationary(g, nz))
            bo = bayes_opt_q(g, nz, BoConfig(budget=25, seed=seed))
            assert bo.j_value >= best_stat - 1e-9

    def test_deterministic_given_seed(self, rng):
        g = random_grouped(rng, n_groups=2, support_per_group=3)
        a = bayes_opt_q(g, 3, BoConfig(budget=30, seed=7))
        b = bayes_opt_q(g, 3, BoConfig(budget=30, seed=7))
        assert a.j_value == b.j_value
        np.testing.assert_array_equal(a.dist.probs, b.dist.probs)

    def test_single_acquisition_candidate(self, rng):
        g = random_grouped(rng, n_groups=2, support_per_group=3)
        bo = bayes_opt_q(g, 3, BoConfig(budget=12, n_acq_candidates=1, seed=0))
        assert bo.j_value >= max(c.j_value for c in scan_stationary(g, 3)) - 1e-9

    def test_search_and_build_rank_each_group_once(self, rng, monkeypatch):
        # The Dirichlet design, every GP-UCB round, the scan and the build all
        # read g.ranked, so the whole search ranks each group once.
        calls = []
        original = dist_module.ranked
        monkeypatch.setattr(dist_module, "ranked", lambda d: calls.append(d) or original(d))
        g = random_grouped(rng, n_groups=3, support_per_group=4)
        q = select_q(g, 4, BoConfig(budget=20, n_acq_candidates=16, seed=0))
        build_stochastic_pef(g, q)
        assert calls == list(g.dists)
        for (symbols, probs), d in zip(g.ranked, g.dists, strict=True):
            want_symbols, want_probs = original(d)
            assert symbols.tobytes() == want_symbols.tobytes()
            assert probs.tobytes() == want_probs.tobytes()
            assert not symbols.flags.writeable and not probs.flags.writeable
        assert g.ranked is g.ranked

    def test_golden_two_by_fifty(self):
        # Q pinned from the per-row proposal loops and the broadcast kernel
        # that the batched draws and the Gram expansion replaced; J re-pinned
        # when the cells stayed in rank order, which sums its entropies in
        # another order.
        g, _ = synth.generate(synth.SynthConfig(2, 50, 10, "unequal", seed=1))
        bo = bayes_opt_q(g, 50, BoConfig(budget=100, n_acq_candidates=1024, seed=0))
        assert bo.j_value == -0.14097648063610224
        assert hashlib.sha256(bo.dist.probs.tobytes()).hexdigest() == (
            "f0e610fa0dd058cbf4414a633112bb6ab5fa9334fa41ae03ddc267058572de14"
        )

    @staticmethod
    def count_scored_candidates(monkeypatch):
        # Every J goes through _scored: the scan and the Dirichlet design
        # in batches, each GP-UCB round's one Q alone.
        scored, scans = [], []
        scan, batch = qopt.scan_stationary, qopt._scored

        def counted_scan(*args, **kwargs):
            scans.append(1)
            return scan(*args, **kwargs)

        def counted_batch(qs, cells, g, source):
            scored.extend(qs)
            return batch(qs, cells, g, source)

        monkeypatch.setattr(qopt, "scan_stationary", counted_scan)
        monkeypatch.setattr(qopt, "_scored", counted_batch)
        return scored, scans

    @pytest.mark.parametrize("n_groups,budget", [(2, 2), (2, 9), (4, 4), (4, 10)])
    def test_budget_counts_every_scored_candidate(self, monkeypatch, n_groups, budget):
        # The stationary scan seeds the GP, so it counts toward the budget
        # and is not scored a second time.
        g, _ = synth.generate(synth.SynthConfig(n_groups, 4, 10, "unequal", seed=2))
        scored, scans = self.count_scored_candidates(monkeypatch)
        select_q(g, default_out_size(g), BoConfig(budget=budget, seed=0))
        assert len(scored) == budget
        assert len(scans) == 1

    def test_budget_below_groups_returns_best_stationary(self, monkeypatch):
        g, _ = synth.generate(synth.SynthConfig(5, 4, 10, "unequal", seed=3))
        nz = default_out_size(g)
        best = max(scan_stationary(g, nz), key=lambda c: c.j_value)
        scored, scans = self.count_scored_candidates(monkeypatch)
        sel = select_q(g, nz, BoConfig(budget=2, seed=0))
        assert len(scored) == 5
        assert len(scans) == 1
        assert sel.source == "stationary"
        assert sel.j_value == best.j_value
        assert sel.dist == best.dist

    @pytest.mark.parametrize("above", [0.0, 0.25], ids=["tie", "above"])
    def test_first_best_candidate_wins(self, monkeypatch, above):
        # Every proposal scores the best stationary J plus ``above``: a tie
        # goes to the stationary candidate, and above it the first proposal
        # beats the later ones it ties with.
        g, _ = synth.generate(synth.SynthConfig(2, 6, 10, "unequal", seed=1))
        nz = default_out_size(g)
        best = max(scan_stationary(g, nz), key=lambda c: c.j_value)
        j_values, proposals = qopt._j_values, []

        def pinned(qs, g, source):
            scored = [dataclasses.replace(c, j_value=best.j_value + above)
                      for c in j_values(qs, g, source)]
            proposals.extend(scored)
            return scored

        monkeypatch.setattr(qopt, "_j_values", pinned)
        sel = bayes_opt_q(g, nz, BoConfig(budget=12, seed=0))
        assert len(proposals) == 12 - len(g.dists)
        if above:
            assert sel is proposals[0]
        else:
            assert sel.source == "stationary" and sel.dist == best.dist
            assert sel.j_value == best.j_value

    def test_single_point_simplex_returns_best_stationary(self):
        # At out_size 1 every theta is the same point, so no kernel can be
        # fitted: the best stationary candidate is returned, without warning.
        g = grouped([1.0], [1.0], priors=(0.3, 0.7))
        best = max(scan_stationary(g, 1), key=lambda c: c.j_value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sel = bayes_opt_q(g, 1, BoConfig(budget=10, seed=0))
        assert sel == best
        assert sel.source == "stationary"

    @pytest.mark.parametrize("n_groups,support", [(2, 50), (4, 8)])
    def test_dirichlet_design_j_equals_objective_j_bit_for_bit(self, n_groups, support):
        g, _ = synth.generate(synth.SynthConfig(n_groups, support, 10, "unequal", seed=5))
        sup = output_support(g, support)
        draws = np.random.default_rng(1).dirichlet(np.ones(support), size=support)
        dists = [qopt._softmax_dist(np.log(np.maximum(p, 1e-12)), sup) for p in draws]
        scored = qopt._j_values(dists, g, "bayesopt")
        assert [c.j_value for c in scored] == [objective_j(q, g) for q in dists]

    def test_rounds_keep_only_the_chosen_proposal(self):
        # Each round's 1024 x 50 proposal matrix is 400 KiB; the search keeps
        # only the chosen row of each, so its traced peak stays a few MiB
        # rather than growing by a matrix per round.
        g, _ = synth.generate(synth.SynthConfig(2, 50, 10, "unequal", seed=1))
        tracemalloc.start()
        try:
            bayes_opt_q(g, 50, BoConfig(budget=100, n_acq_candidates=1024, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_budget_one_falls_back_to_stationary(self, rng):
        g = random_grouped(rng, n_groups=2, support_per_group=2)
        bo = bayes_opt_q(g, 2, BoConfig(budget=1, seed=0))
        best_stat = max(c.j_value for c in scan_stationary(g, 2))
        assert bo.j_value >= best_stat - 1e-9


def test_default_out_size_is_max_group_support():
    g = grouped([0.5, 0.3, 0.2], [0.5, 0.5])
    assert default_out_size(g) == 3


def test_output_support_fresh_ids():
    g = grouped([0.5, 0.5], [0.6, 0.4])
    assert output_support(g, 3).tolist() == [4, 5, 6]


def test_bo_config_round_trip():
    cfg = BoConfig(budget=42, seed=9)
    assert BoConfig(**cfg.to_json()) == cfg


def test_bo_config_validation():
    with pytest.raises(ValueError):
        BoConfig(budget=0)
    with pytest.raises(ValueError, match="n_acq_candidates"):
        BoConfig(n_acq_candidates=0)


def test_equal_uniform_select_reaches_log_k():
    g = grouped([0.25] * 4, [0.25] * 4)
    sel = select_q(g, 4)
    assert sel.j_value == pytest.approx(0.0, abs=1e-12)
    assert math.isclose(float(sel.dist.probs[0]), 0.25)


def test_sq_dists_matches_broadcast(rng):
    for n, m, k in [(1, 1, 1), (7, 3, 5), (40, 100, 50)]:
        a = np.log(rng.dirichlet(np.ones(k), size=n))
        b = np.concatenate([a[: min(n, m)], rng.normal(size=(max(0, m - n), k))])
        ref = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        d2 = _sq_dists(a, b)
        assert d2.shape == (n, m)
        assert np.all(d2 >= 0.0)
        np.testing.assert_allclose(d2, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())


def test_batched_proposals_equal_per_row_draws():
    # bayes_opt_q draws each round's proposals in two batched calls; they
    # must consume the stream exactly as one call per proposal did.
    for k, n in [(2, 1), (5, 7), (50, 512)]:
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        batched = a.dirichlet(np.ones(k), size=n)
        rows = np.array([b.dirichlet(np.ones(k)) for _ in range(n)])
        assert batched.tobytes() == rows.tobytes()
        batched = a.standard_normal((n, k))
        rows = np.array([b.standard_normal(k) for _ in range(n)])
        assert batched.tobytes() == rows.tobytes()
        assert a.random() == b.random()


def test_gp_posterior_matches_dense_solve(rng):
    for n_obs, n_new, dim in [(2, 1, 3), (10, 37, 5), (40, 256, 20), (100, 1024, 50)]:
        x_obs = np.log(rng.dirichlet(np.ones(dim), size=n_obs))
        y_obs = rng.normal(-0.2, 0.05, size=n_obs)
        x_new = np.concatenate([
            np.log(rng.dirichlet(np.ones(dim), size=n_new - n_new // 2)),
            x_obs[0] + 0.25 * rng.standard_normal((n_new // 2, dim)),
        ])
        d2_obs = _sq_dists(x_obs, x_obs)
        np.fill_diagonal(d2_obs, 0.0)
        ls = float(np.median(np.sqrt(d2_obs[d2_obs > 0])))
        mean, std = _gp_posterior(x_obs, y_obs, x_new, ls, d2_obs)

        y_c = y_obs - y_obs.mean()
        sig2 = max(float(y_c.var()), 1e-12)
        k_xx = sig2 * np.exp(-0.5 * d2_obs / ls**2) + 1e-8 * sig2 * np.eye(n_obs)
        k_sx = sig2 * np.exp(-0.5 * _sq_dists(x_new, x_obs) / ls**2)
        ref_mean = y_obs.mean() + k_sx @ np.linalg.solve(k_xx, y_c)
        ref_var = np.maximum(
            sig2 - np.sum(k_sx.T * np.linalg.solve(k_xx, k_sx.T), axis=0), 1e-18
        )
        assert mean.shape == std.shape == (n_new,)
        assert np.all(std > 0)
        np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=1e-9 * sig2)
        np.testing.assert_allclose(std**2, ref_var, rtol=0, atol=1e-9 * sig2)
