import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pefkit import (
    Categorical,
    Coupling,
    CouplingError,
    InstanceTooLarge,
    PgdProblem,
    conditional_rows,
    coupling_entropy,
    entropy,
    greedy_mec,
    mec_oracle,
    pgd_solve,
)


def cat(support, probs):
    return Categorical(tuple(support), np.asarray(probs, dtype=np.float64))


def random_pair(r, max_k=4):
    m = int(r.integers(2, max_k + 1))
    n = int(r.integers(2, max_k + 1))
    p = Categorical(tuple(range(m)), r.dirichlet(np.ones(m)))
    q = Categorical(tuple(range(100, 100 + n)), r.dirichlet(np.ones(n)))
    return p, q


class TestGreedyMec:
    def test_identical_marginals_diagonal(self):
        p = cat([0, 1, 2], [0.5, 0.3, 0.2])
        c = greedy_mec(p, p)
        np.testing.assert_allclose(c.mass, np.diag([0.5, 0.3, 0.2]), atol=1e-15)
        assert coupling_entropy(c) == pytest.approx(1.4854752972273344, abs=1e-12)

    def test_two_by_two_example(self):
        c = greedy_mec(cat([0, 1], [0.6, 0.4]), cat([2, 3], [0.5, 0.5]))
        np.testing.assert_allclose(c.mass, [[0.5, 0.1], [0.0, 0.4]], atol=1e-15)
        assert coupling_entropy(c) == pytest.approx(1.3609640474436813, abs=1e-12)

    def test_single_row_forced(self):
        c = greedy_mec(cat([0], [1.0]), cat([1, 2], [0.7, 0.3]))
        np.testing.assert_allclose(c.mass, [[0.7, 0.3]], atol=1e-15)
        assert coupling_entropy(c) == pytest.approx(0.8812908992306927, abs=1e-12)

    def test_marginals_preserved(self, rng):
        for _ in range(50):
            p, q = random_pair(rng)
            c = greedy_mec(p, q)
            np.testing.assert_allclose(c.row_marginal, p.probs, atol=1e-8)
            np.testing.assert_allclose(c.col_marginal, q.probs, atol=1e-8)

    @given(st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_entropy_lower_bound(self, seed):
        r = np.random.default_rng(seed)
        p, q = random_pair(r, max_k=6)
        h = coupling_entropy(greedy_mec(p, q))
        assert h >= max(entropy(p), entropy(q)) - 1e-9

    def test_transpose_symmetry(self, rng):
        for _ in range(30):
            p, q = random_pair(rng)
            c_pq = greedy_mec(p, q)
            c_qp = greedy_mec(q, p)
            np.testing.assert_allclose(c_pq.mass, c_qp.mass.T, atol=1e-12)


class TestOracle:
    def test_matches_polytope_sweep_2x2(self):
        # Independent oracle: one-parameter sweep of the 2x2 transportation
        # polytope; the free cell a = mass[0,0] ranges over an interval.
        p = [0.6, 0.4]
        q = [0.5, 0.5]
        lo, hi = max(0.0, p[0] + q[0] - 1.0), min(p[0], q[0])
        best = math.inf
        for a in np.linspace(lo, hi, 20001):
            cells = [a, p[0] - a, q[0] - a, p[1] - q[0] + a]
            h = -sum(v * math.log2(v) for v in cells if v > 1e-15)
            best = min(best, h)
        c = mec_oracle(cat([0, 1], p), cat([2, 3], q))
        assert coupling_entropy(c) == pytest.approx(best, abs=1e-9)
        assert coupling_entropy(c) == pytest.approx(1.3609640474436813, abs=1e-12)

    def test_uniform_three_attains_log3(self):
        u = Categorical.uniform(range(3))
        c = mec_oracle(u, Categorical.uniform(range(10, 13)))
        assert coupling_entropy(c) == pytest.approx(math.log2(3), abs=1e-12)

    def test_oracle_below_greedy_within_guarantee(self, rng):
        for _ in range(60):
            p, q = random_pair(rng, max_k=3)
            hg = coupling_entropy(greedy_mec(p, q))
            ho = coupling_entropy(mec_oracle(p, q))
            assert ho <= hg + 1e-9
            assert hg - ho <= 0.53
            assert ho >= max(entropy(p), entropy(q)) - 1e-9

    def test_rejects_large_instance(self):
        p = Categorical.uniform(range(5))
        q = Categorical.uniform(range(10, 15))
        with pytest.raises(InstanceTooLarge):
            mec_oracle(p, q, max_cells=20)


def cells(c: Coupling):
    """A dense coupling's non-zero cells in row-major order: conditional_rows' input."""
    rows, cols = np.nonzero(c.mass)
    return rows, cols, c.mass[rows, cols]


def conditional_rows_reference(c: Coupling, p: Categorical) -> list[Categorical]:
    """One validated Categorical per row over the whole column support,
    the construction the sparse rows replace, kept as the oracle. Each
    row's mass is summed left to right, the order of its cells."""
    return [Categorical(c.col_support, row / np.cumsum(row)[-1]) for row in c.mass]


def assert_rows_match_reference(c: Coupling, p: Categorical) -> None:
    bounds, cols, probs = conditional_rows(*cells(c), p)
    reference = conditional_rows_reference(c, p)
    assert len(bounds) == len(reference) + 1
    support = np.array(c.col_support)
    for row, a, b in zip(reference, bounds[:-1], bounds[1:]):
        assert row.support == tuple(support[cols[a:b]].tolist())
        assert row.probs.tobytes() == probs[a:b].tobytes()


class TestConditionalRows:
    def test_normalization_example(self):
        c = greedy_mec(cat([0, 1], [0.6, 0.4]), cat([2, 3], [0.5, 0.5]))
        bounds, cols, probs = conditional_rows(*cells(c), cat([0, 1], [0.6, 0.4]))
        assert bounds.tolist() == [0, 2, 3]
        assert cols.tolist() == [0, 1, 1]  # the zero cell (1, 0) is absent
        np.testing.assert_allclose(probs[:2], [5 / 6, 1 / 6], atol=1e-12)
        np.testing.assert_allclose(probs[2:], [1.0], atol=1e-12)

    def test_diagonal_gives_point_masses(self):
        p = cat([0, 1, 2], [0.5, 0.3, 0.2])
        bounds, cols, probs = conditional_rows(*cells(greedy_mec(p, p)), p)
        assert bounds.tolist() == [0, 1, 2, 3]
        assert cols.tolist() == [0, 1, 2]
        np.testing.assert_array_equal(probs, [1.0, 1.0, 1.0])

    def test_round_trip_remix(self, rng):
        for _ in range(20):
            p, q = random_pair(rng)
            c = greedy_mec(p, q)
            bounds, cols, probs = conditional_rows(*cells(c), p)
            rebuilt = np.zeros_like(c.mass)
            rows = np.repeat(np.arange(len(p)), np.diff(bounds))
            rebuilt[rows, cols] = p.probs[rows] * probs
            np.testing.assert_allclose(rebuilt, c.mass, atol=1e-9)

    def test_trims_cells_like_categorical(self):
        # 1e-13 / 0.5 is below TRIM_EPS, 1e-12 / 0.5 is above it.
        p = cat([0, 1], [0.5, 0.5])
        mass = np.array([[0.5 - 1e-13, 1e-13, 0.0], [0.0, 1e-12, 0.5 - 1e-12]])
        c = Coupling((0, 1), (2, 3, 4), mass)
        bounds, cols, _ = conditional_rows(*cells(c), p)
        assert bounds.tolist() == [0, 1, 3] and cols.tolist() == [0, 1, 2]
        assert_rows_match_reference(c, p)

    def test_rejects_mismatched_marginals(self):
        c = Coupling((0, 1), (2, 3), np.array([[0.5, 0.0], [0.0, 0.5]]))
        with pytest.raises(CouplingError):
            conditional_rows(*cells(c), cat([0, 1], [0.6, 0.4]))

    # Each case breaks one condition and keeps the ones checked before it.
    @pytest.mark.parametrize("rows,cols,mass,match", [
        ([0, 0, 1], [0, 1, 1], [0.6, -0.1, 0.5], "non-negative"),
        ([0, 1], [0, 1], [0.5, 0.6], "total coupling mass"),
        ([0, 1], [0, 1], [0.6, 0.4], "row marginals"),
        ([0, 1, 3], [0, 1, 1], [0.25, 0.25, 0.5], "inside the supports"),
        ([1, 0], [1, 0], [0.5, 0.5], "row-major"),
        ([0, 0, 1], [0, 0, 1], [0.25, 0.25, 0.5], "row-major"),
        ([0, 1], [0], [0.5, 0.5], "one row, column and mass"),
    ])
    def test_rejects_malformed_cells(self, rows, cols, mass, match):
        with pytest.raises(CouplingError, match=match):
            conditional_rows(rows, cols, mass, cat([0, 1], [0.5, 0.5]))

    def test_rejects_zero_mass_row(self):
        # Row 2's marginal is within MARGINAL_TOL of 0, but it holds no cell.
        p = cat([0, 1, 2], [0.5, 0.5 - 1e-9, 1e-9])
        with pytest.raises(CouplingError, match="zero-mass row"):
            conditional_rows([0, 1], [0, 1], [0.5, 0.5], p)

    @pytest.mark.parametrize("k", [None, 1000])
    def test_matches_reference_bit_for_bit(self, rng, k):
        for _ in range(200 if k is None else 2):
            if k is None:
                p, q = random_pair(rng, max_k=8)
            else:
                p = Categorical(tuple(range(k)), rng.dirichlet(np.ones(k)))
                q = Categorical(tuple(range(k, 2 * k)), rng.dirichlet(np.ones(k)))
            assert_rows_match_reference(greedy_mec(p, q), p)
            assert_rows_match_reference(greedy_mec(q, p), q)


class TestPgd:
    def test_identical_uniform_groups_reach_zero(self):
        d1 = Categorical.uniform([0, 1])
        d2 = Categorical.uniform([2, 3])
        res = pgd_solve(
            PgdProblem((d1, d2), np.array([0.5, 0.5]), out_size=2), rng_seed=0
        )
        assert res.objective == pytest.approx(0.0, abs=1e-6)
        assert res.constraint_residual <= 1e-6

    def test_single_group_reduces_to_self_coupling(self):
        d = cat([0, 1], [0.5, 0.5])
        res = pgd_solve(PgdProblem((d,), np.array([1.0]), out_size=2), rng_seed=0)
        assert res.objective == pytest.approx(0.0, abs=1e-6)
        assert coupling_entropy(res.couplings[0]) == pytest.approx(1.0, abs=1e-6)

    def test_competitive_with_greedy_pipeline(self, rng):
        from pefkit import select_q
        from conftest import random_grouped

        for _ in range(5):
            g = random_grouped(rng, n_groups=2, support_per_group=3)
            sel = select_q(g, 3)
            init = np.zeros(3)
            init[: len(sel.dist)] = np.sort(sel.dist.probs)[::-1]
            res = pgd_solve(
                PgdProblem(g.dists, g.priors, out_size=3, max_iters=300),
                rng_seed=0,
                init_q=init,
            )
            assert res.constraint_residual <= 1e-6
            assert res.objective >= sel.j_value - 0.05

    def test_constraints_hold_after_projection(self, rng):
        from conftest import random_grouped

        g = random_grouped(rng, n_groups=2, support_per_group=4)
        res = pgd_solve(
            PgdProblem(g.dists, g.priors, out_size=4, max_iters=100), rng_seed=1
        )
        for d, c in zip(g.dists, res.couplings):
            np.testing.assert_allclose(c.row_marginal, d.probs, atol=1e-6)
        np.testing.assert_allclose(
            res.couplings[0].col_marginal, res.couplings[1].col_marginal, atol=1e-6
        )


def test_coupling_csv_and_json_round_trip(tmp_path, rng):
    p = cat([0, 1], [0.6, 0.4])
    q = cat([2, 3], [0.5, 0.5])
    c = greedy_mec(p, q)
    c2 = Coupling.from_json(c.to_json())
    np.testing.assert_allclose(c2.mass, c.mass)
    path = tmp_path / "coupling.csv"
    c.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "row_symbol,2,3"
    assert len(lines) == 3
