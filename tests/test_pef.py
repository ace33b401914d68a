import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pefkit import (
    Categorical,
    DataConstraintError,
    ErasureFunction,
    ErasureReport,
    GroupedData,
    Sample,
    SynthConfig,
    analyze,
    apply,
    build_deterministic_pef,
    build_pef,
    build_stochastic_pef,
    default_tol,
    entropy,
    estimate_distribution,
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
from pefkit.dist import NORM_TOL, RENORM_TOL, TRIM_EPS, DistError
from pefkit.pef import CSV_WRITE_CHUNK
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


class TestEstimation:
    def test_estimate_distribution_counts(self):
        samples = [Sample(0, 0), Sample(0, 0), Sample(1, 0), Sample(5, 1)]
        d = estimate_distribution(samples, 0)
        assert d.support == (0, 1)
        np.testing.assert_allclose(d.probs, [2 / 3, 1 / 3])

    def test_estimate_missing_concept(self):
        with pytest.raises(DataConstraintError):
            estimate_distribution([Sample(0, 0)], 3)

    def test_grouped_from_samples_priors(self):
        samples = [Sample(0, 0)] * 3 + [Sample(5, 1)] * 1
        g = grouped_from_samples(samples)
        np.testing.assert_allclose(g.priors, [0.75, 0.25])

    def test_grouped_rejects_shared_symbol(self):
        with pytest.raises(DataConstraintError, match="symbol 7"):
            grouped_from_samples([Sample(7, 0), Sample(7, 1)])

    def test_grouped_rejects_single_concept(self):
        with pytest.raises(DataConstraintError):
            grouped_from_samples([Sample(0, 0), Sample(1, 0)])

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
        assert f.output_support == (6, 7, 8)
        # group 0 sorted: 0(.5), 1(.3), 2(.2); group 1 sorted: 4(.5), 5(.3), 3(.2)
        assert f.map_symbol(0) == 6 and f.map_symbol(4) == 6
        assert f.map_symbol(1) == 7 and f.map_symbol(5) == 7
        assert f.map_symbol(2) == 8 and f.map_symbol(3) == 8
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
                np.testing.assert_array_equal(f.induced_output(d), f.q.probs)

    def test_pushforward_permuted_groups_close(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(k))
            g = grouped(probs, probs[rng.permutation(k)])
            f = build_deterministic_pef(g)
            for d in g.dists:
                np.testing.assert_allclose(f.induced_output(d), f.q.probs, atol=1e-14)

    def test_reconstruction_from_z_and_a(self):
        g = grouped([0.5, 0.3, 0.2], [0.2, 0.5, 0.3])
        f = build_deterministic_pef(g)
        for concept, d in g.groups:
            inv = f.group_maps[concept].inverse()
            for x in d.support:
                assert inv(f.map_symbol(x)) == x

    def test_report_values(self):
        g = grouped([0.5, 0.3, 0.2], [0.2, 0.5, 0.3])
        _, report = build_pef(g, tol=1e-9)
        assert report.branch == "equal"
        assert report.i_za_analytic == pytest.approx(0.0, abs=1e-12)
        assert report.i_zx_analytic == pytest.approx(1.4854752972273344, abs=1e-12)
        assert report.j_value == 0.0


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
                np.testing.assert_allclose(f.induced_output(d), f.q.probs, atol=1e-9)
            assert abs(report.i_za_analytic) <= 1e-8

    def test_rows_cover_all_symbols(self):
        g = grouped([0.5, 0.5], [0.6, 0.4])
        q = select_q(g, 2)
        f = build_stochastic_pef(g, q)
        assert f.input_symbols().tolist() == [0, 1, 2, 3]
        for x in f.input_symbols().tolist():
            assert set(f.row_for(x).support) <= set(f.output_support)

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
    ``greedy_mec`` of each group onto Q, then each row's non-zero cells
    divided by the row's numpy sum, cells of TRIM_EPS or less dropped."""
    ids, sizes, out, probs = [], [], [], []
    for d in g.dists:
        for x, row in zip(d.support, greedy_mec(d, q.dist).mass):
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
    q = QCandidate(Categorical(support, np.array(q_w) / sum(q_w)), 0.0, "user")
    f = build_stochastic_pef(g, q)
    ref = build_stochastic_reference(g, q)
    for name in ("ids", "bounds", "out"):
        np.testing.assert_array_equal(getattr(f, name), getattr(ref, name))
    np.testing.assert_allclose(f.probs, ref.probs, rtol=0, atol=1e-15)
    assert np.all(np.abs(np.add.reduceat(f.probs, f.bounds[:-1]) - 1.0) <= NORM_TOL)
    for d in g.dists:
        assert np.abs(f.induced_output(d) - q.dist.probs).max() <= RENORM_TOL
    assert analyze(f, g).i_za_analytic <= 1e-12


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


def induced_output_reference(f, d):
    """The per-symbol, per-cell loop the bincount replaced, kept as the oracle."""
    out = np.zeros(len(f.output_support))
    idx = {z: k for k, z in enumerate(f.output_support)}
    for s, p in zip(d.support, d.probs):
        row = f.row_for(s)
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
            for d in g.dists:
                assert f.induced_output(d).tobytes() == induced_output_reference(f, d).tobytes()
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
        row = f.row_for(2)
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

    def test_deterministic_apply_matches_map_symbol(self, rng):
        f, _ = build_pef(_sparse_ids_grouped(*self.VARIANTS["deterministic"]), tol=1e-9)
        x = rng.choice([10, 20, 30, 40, 50, 60], size=300)
        samples = np.column_stack([x, x >= 40])
        erased = apply(f, samples, seed=0)
        assert erased[:, 0].tolist() == [f.map_symbol(s) for s in x.tolist()]
        np.testing.assert_array_equal(erased[:, 1], samples[:, 1])


@st.composite
def _stochastic_functions(draw):
    """A stochastic function on random sparse ids, and samples over its ids."""
    out = tuple(range(10**6, 10**6 + 8))
    ids = draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=6, unique=True))
    sizes, outs, probs = [], [], []
    for _ in ids:
        support = draw(st.lists(st.sampled_from(out), min_size=1, max_size=8, unique=True))
        w = np.array(
            draw(st.lists(st.floats(1e-3, 1.0), min_size=len(support), max_size=len(support)))
        )
        sizes.append(len(support))
        outs += support
        probs += (w / w.sum()).tolist()
    f = ErasureFunction(
        "stochastic", out, Categorical.uniform(out),
        ids=ids, bounds=np.cumsum([0, *sizes]), out=outs, probs=probs,
    )
    xs = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=300))
    return f, np.column_stack([xs, np.arange(len(xs)) % 3])


@settings(max_examples=150, deadline=None)
@given(_stochastic_functions(), st.integers(0, 2**64 - 1), st.data())
def test_stochastic_apply_is_exact_inverse_cdf(fs, seed, data):
    f, samples = fs
    erased = apply(f, samples, seed)
    u = np.random.Generator(np.random.Philox(key=seed)).random(len(samples))
    for (x, _), z, ui in zip(samples.tolist(), erased[:, 0].tolist(), u):
        row = f.row_for(x)
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
        f2 = load_function_json(path)
        assert f2.variant == f.variant
        assert f2.output_support == f.output_support
        samples = [Sample(int(x), int(x > 1)) for x in [0, 1, 2, 3]]
        np.testing.assert_array_equal(apply(f2, samples, seed=5), apply(f, samples, seed=5))

    def test_deterministic_json_round_trip(self, tmp_path):
        g = grouped([0.5, 0.3, 0.2], [0.2, 0.5, 0.3])
        f = build_deterministic_pef(g)
        save_function_json(f, tmp_path / "f.json")
        f2 = load_function_json(tmp_path / "f.json")
        for x in range(6):
            assert f2.map_symbol(x) == f.map_symbol(x)
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

    def test_report_json_round_trip(self):
        r = ErasureReport("equal", 0.0, 2.0, 2.0, 0.0)
        assert ErasureReport.from_json(r.to_json()) == r
