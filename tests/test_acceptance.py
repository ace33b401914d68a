"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v``; the verbose listing and the
explicit ``criterion N ...: PASS``/``FAIL`` lines both identify criteria.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from pefkit import (
    BoConfig,
    Categorical,
    GroupedData,
    JointCounts,
    apply,
    build_pef,
    coupling_entropy,
    entropy,
    erasure_feasible,
    funnel_bounds,
    generate,
    greedy_mec,
    mec_oracle,
    pgd_solve,
    pic_spectrum,
    plugin_mi,
    select_q,
)
from pefkit._kernels import entropy_bits
from pefkit.synth import SynthConfig, bell_profile
from conftest import random_grouped

# Analytic tradeoff points and instances from criteria 1-3, consumed by the
# funnel-envelope check in criterion 5.
_COLLECTED: list[tuple[GroupedData, float, float]] = []


@contextlib.contextmanager
def criterion(num: int, name: str, capsys):
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"criterion {num} ({name}): FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"criterion {num} ({name}): PASS")


def _plugin_points(f, samples, erased):
    za = JointCounts.from_pairs(erased)
    zx = JointCounts.from_pairs(np.column_stack([erased[:, 0], samples[:, 0]]))
    return plugin_mi(za), plugin_mi(zx)


def _equal_setting_run(setting: str, h_expected: float, capsys, num: int, name: str):
    with criterion(num, name, capsys):
        start = time.perf_counter()
        cfg = SynthConfig(
            n_groups=2,
            support_per_group=100,
            n_samples_per_group=10_000,
            setting=setting,
            seed=0,
        )
        g, samples = generate(cfg)
        f, report = build_pef(g, tol=1e-9)
        assert report.branch == "equal"
        assert report.i_za_analytic == 0.0
        assert report.i_zx_analytic == pytest.approx(h_expected, abs=1e-9)
        erased = apply(f, samples, seed=0)
        mi_za, mi_zx = _plugin_points(f, samples, erased)
        assert mi_za <= 0.02
        assert abs(mi_zx - h_expected) <= 0.15
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        _COLLECTED.append((g, report.i_zx_analytic, report.i_za_analytic))


def test_criterion_1_equal_uniform(capsys):
    _equal_setting_run(
        "equal_uniform", math.log2(100), capsys, 1, "equal-uniform reproduction"
    )


def test_criterion_2_equal_gaussian(capsys):
    h = entropy_bits(bell_profile(100))
    _equal_setting_run(
        "equal_gaussian", h, capsys, 2, "equal-gaussian reproduction"
    )


def test_criterion_3_unequal(capsys):
    with criterion(3, "unequal reproduction", capsys):
        start = time.perf_counter()
        cfg = SynthConfig(
            n_groups=2,
            support_per_group=50,
            n_samples_per_group=10_000,
            setting="unequal",
            seed=1,
        )
        g, samples = generate(cfg)
        f, report = build_pef(g, tol=1e-9)
        assert report.branch == "unequal"
        assert abs(report.i_za_analytic) <= 1e-8
        assert report.j_value < 0.0
        assert report.i_zx_analytic == pytest.approx(
            report.h_x_given_a + report.j_value, abs=1e-9
        )
        # strictly inside the funnel on the epsilon=0 axis
        assert 0.0 < report.i_zx_analytic < report.h_x_given_a
        bo = select_q(g, 50, BoConfig(budget=100, seed=0))
        stationary = select_q(g, 50)
        assert bo.j_value >= stationary.j_value - 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
        _COLLECTED.append((g, report.i_zx_analytic, report.i_za_analytic))


def test_criterion_4_greedy_mec_gap(capsys):
    with criterion(4, "greedy MEC gap", capsys):
        start = time.perf_counter()
        for seed in range(500):
            r = np.random.default_rng([4, seed])
            m = int(r.integers(2, 5))
            n = int(r.integers(2, 5))
            p = Categorical(tuple(range(m)), r.dirichlet(np.ones(m)))
            q = Categorical(tuple(range(50, 50 + n)), r.dirichlet(np.ones(n)))
            hg = coupling_entropy(greedy_mec(p, q))
            ho = coupling_entropy(mec_oracle(p, q))
            assert 0.0 <= hg - ho + 1e-12
            assert hg - ho <= 0.53
            assert ho >= max(entropy(p), entropy(q)) - 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_5_funnel_envelope(capsys):
    with criterion(5, "funnel envelope", capsys):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = random_grouped(rng)
            curve = funnel_bounds(g, 65)
            assert np.all(curve.lower <= curve.upper + 1e-12)
            # closed-form endpoints
            assert curve.u_grid[0] == 0.0
            assert abs(curve.lower[0]) <= 1e-12 and abs(curve.upper[0]) <= 1e-12
            assert curve.u_grid[-1] == pytest.approx(curve.h_x, abs=1e-12)
            assert curve.lower[-1] == pytest.approx(
                curve.h_x - curve.h_x_given_a, abs=1e-12
            )
            assert curve.upper[-1] == pytest.approx(curve.i_ax, abs=1e-12)
        assert len(_COLLECTED) == 3, "criteria 1-3 must have produced points"
        for g, u, eps in _COLLECTED:
            curve = funnel_bounds(g, 101)
            assert curve.contains(u, eps)


def test_criterion_6_bijectivity(capsys):
    with criterion(6, "bijectivity and exact pushforward", capsys):
        for setting in ("equal_uniform", "equal_gaussian"):
            cfg = SynthConfig(
                n_groups=2,
                support_per_group=100,
                n_samples_per_group=2_000,
                setting=setting,
                seed=6,
            )
            g, samples = generate(cfg)
            f, _ = build_pef(g, tol=1e-9)
            erased = apply(f, samples, seed=0)
            # One cell per row, and one input per (output, concept): each
            # group's map is a bijection, inverted here through the table.
            np.testing.assert_array_equal(f.bounds, np.arange(len(f.ids) + 1))
            concept_of = {x: c for c, d in g.groups for x in d.support}
            inverse = {(z, concept_of[x]): x for x, z in zip(f.ids.tolist(), f.out.tolist())}
            assert len(inverse) == len(f.ids)
            for (z, c), (x, _) in zip(erased.tolist(), samples.tolist()):
                assert inverse[(z, c)] == x
            for d in g.dists:
                np.testing.assert_array_equal(f.induced_outputs([d])[0], f.q.probs)


def test_criterion_7_pic_diagnostics(capsys):
    with criterion(7, "PIC diagnostics", capsys):
        rng = np.random.default_rng(7)
        for _ in range(100):
            spec = pic_spectrum(random_grouped(rng))
            assert spec.singular_values[0] == pytest.approx(1.0, abs=1e-9)
        # independence fixture: identical conditionals => all pics vanish
        shared = Categorical((0, 1, 2), np.array([0.5, 0.3, 0.2]))
        with pytest.warns(UserWarning):
            g_ind = GroupedData(((0, shared), (1, shared)), np.array([0.5, 0.5]))
            spec = pic_spectrum(g_ind)
        assert np.all(spec.pics <= 1e-9)
        # |X| <= |A| counterexample: fully correlated point masses
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g_bad = GroupedData(
                (
                    (0, Categorical((0,), np.array([1.0]))),
                    (1, Categorical((1,), np.array([1.0]))),
                ),
                np.array([0.5, 0.5]),
            )
        assert not erasure_feasible(g_bad).feasible
        # |X| <= |A| but independent: feasible via the vanishing-PIC clause
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            shared2 = Categorical((0, 1), np.array([0.5, 0.5]))
            g_ok = GroupedData(((0, shared2), (1, shared2)), np.array([0.5, 0.5]))
            assert erasure_feasible(g_ok).feasible


def test_criterion_8_pgd_solver(capsys):
    with criterion(8, "PGD solver", capsys):
        for seed in range(20):
            r = np.random.default_rng([8, seed])
            k = int(r.integers(2, 5))
            g = random_grouped(r, n_groups=2, support_per_group=k)
            sel = select_q(g, k)
            res = pgd_solve(g, k, rng_seed=0)
            assert res.constraint_residual <= 1e-6
            assert res.objective >= sel.j_value - 0.05
            # The greedy couplings onto the scan's Q are PGD's first
            # candidate, and no feasible point scores above J = 0.
            assert res.objective >= sel.j_value - 1e-9
            assert res.objective <= 1e-9


def test_criterion_9_determinism(capsys, tmp_path, monkeypatch):
    from pefkit.cli import main

    def one_run(root):
        root.mkdir()
        monkeypatch.chdir(root)
        assert (
            main(
                [
                    "generate",
                    "--setting",
                    "unequal",
                    "--support",
                    "8",
                    "--samples",
                    "500",
                    "--seed",
                    "2",
                    "--out-dir",
                    "gen",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "erase",
                    "--samples",
                    "gen/samples.csv",
                    "--dists",
                    "gen/true_dists.json",
                    "--seed",
                    "3",
                    "--out-dir",
                    "erased",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "evaluate",
                    "--dists",
                    "gen/true_dists.json",
                    "--function",
                    "erased/function.json",
                    "--erased",
                    "erased/erased.csv",
                    "--samples",
                    "gen/samples.csv",
                    "--out-dir",
                    "eval",
                ]
            )
            == 0
        )
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    with criterion(9, "determinism", capsys):
        a = one_run(tmp_path / "a")
        b = one_run(tmp_path / "b")
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], f"{name} differs between identical runs"
