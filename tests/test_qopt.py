import hashlib
import math
import warnings

import numpy as np
import pytest

from pefkit import (
    BoConfig,
    Categorical,
    GroupedData,
    bayes_opt_q,
    default_out_size,
    objective_j,
    output_support,
    scan_stationary,
    select_q,
)
from pefkit import qopt, synth
from pefkit.qopt import _sq_dists
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
        for _ in range(10):
            g = random_grouped(rng, n_groups=2, support_per_group=3)
            q = Categorical(output_support(g, 3), rng.dirichlet(np.ones(3)))
            assert objective_j(q, g, use_oracle=True) >= objective_j(q, g) - 1e-9


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
        # Pinned from the scan that called objective_j once per candidate; a
        # change in how the coupling entropies are summed moves the last bits.
        g, _ = synth.generate(synth.SynthConfig(8, 200, 10, "unequal", seed=1))
        assert [c.j_value for c in scan_stationary(g, 200)] == [
            -0.15753799579833883,
            -0.14541982817273402,
            -0.12796370469966822,
            -0.16609815230553238,
            -0.13066452099581638,
            -0.11149981177882617,
            -0.14586231808252081,
            -0.11569451705360911,
        ]

    def test_best_stationary_selected_without_bo(self):
        g = grouped([0.5, 0.5], [0.6, 0.4])
        sel = select_q(g, 2)
        assert sel.source == "stationary"
        np.testing.assert_allclose(np.sort(sel.dist.probs), [0.5, 0.5])


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

    def test_golden_two_by_fifty(self):
        # Pinned from the per-row proposal loops and the broadcast kernel
        # that the batched draws and the Gram expansion replaced.
        g, _ = synth.generate(synth.SynthConfig(2, 50, 10, "unequal", seed=1))
        bo = bayes_opt_q(g, 50, BoConfig(budget=100, n_acq_candidates=1024, seed=0))
        assert bo.j_value == -0.14097648063610357
        assert hashlib.sha256(bo.dist.probs.tobytes()).hexdigest() == (
            "f0e610fa0dd058cbf4414a633112bb6ab5fa9334fa41ae03ddc267058572de14"
        )

    @staticmethod
    def count_scored_candidates(monkeypatch):
        # The scan scores its candidates in one batch, GP-UCB one
        # objective_j call at a time; both count.
        scored, scans = [], []
        scan, objective = qopt.scan_stationary, qopt.objective_j

        def counted_scan(*args, **kwargs):
            candidates = scan(*args, **kwargs)
            scans.append(1)
            scored.extend(candidates)
            return candidates

        def counted_objective(*args, **kwargs):
            scored.append(1)
            return objective(*args, **kwargs)

        monkeypatch.setattr(qopt, "scan_stationary", counted_scan)
        monkeypatch.setattr(qopt, "objective_j", counted_objective)
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
    assert output_support(g, 3) == (4, 5, 6)


def test_bo_config_round_trip():
    cfg = BoConfig(budget=42, kappa=1.5, seed=9)
    assert BoConfig(**cfg.to_json()) == cfg


def test_bo_config_validation():
    with pytest.raises(ValueError):
        BoConfig(budget=0)
    with pytest.raises(ValueError):
        BoConfig(kappa=-1.0)
    for kappa in (math.nan, math.inf):
        with pytest.raises(ValueError, match="kappa must be finite"):
            BoConfig(kappa=kappa)
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
