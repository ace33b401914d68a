import numpy as np
import pytest

from pefkit import DistError, bell_profile, check_permutation_equal, generate
from pefkit.synth import SETTINGS, SynthConfig


def cfg(**kw):
    base = dict(
        n_groups=2,
        support_per_group=4,
        n_samples_per_group=100,
        setting="equal_uniform",
        seed=0,
    )
    base.update(kw)
    return SynthConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DistError):
            cfg(n_groups=1)
        with pytest.raises(DistError):
            cfg(support_per_group=1)
        with pytest.raises(DistError):
            cfg(n_samples_per_group=0)
        with pytest.raises(DistError):
            cfg(setting="nope")

    # 0 and NaN once failed later, in the Dirichlet draw, with a message
    # about probabilities; a negative alpha passed for an equal setting.
    @pytest.mark.parametrize("setting", ["unequal", "equal_uniform"])
    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_dirichlet_alpha(self, setting, alpha):
        with pytest.raises(DistError, match="dirichlet_alpha must be finite and > 0"):
            cfg(setting=setting, dirichlet_alpha=alpha)

    def test_json(self):
        c = cfg(setting="unequal", dirichlet_alpha=0.5)
        obj = c.to_json()
        assert SynthConfig(**obj) == c


class TestBellProfile:
    def test_normalized_symmetric_unimodal(self):
        for k in (2, 5, 8, 101):
            w = bell_profile(k)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(w, w[::-1], atol=1e-15)
            mid = np.argmax(w)
            assert abs(mid - (k - 1) / 2) <= 0.5
            assert np.all(np.diff(w[: k // 2]) > 0)

    def test_edges_above_trim(self):
        assert bell_profile(100).min() > 1e-6

    def test_rejects_k1(self):
        with pytest.raises(DistError):
            bell_profile(1)


class TestGenerate:
    def test_disjoint_supports_and_equal_priors(self):
        g, _ = generate(cfg(n_groups=3))
        assert g.supports_disjoint
        np.testing.assert_allclose(g.priors, [1 / 3] * 3)
        assert g.dists[0].support.tolist() == [0, 1, 2, 3]
        assert g.dists[2].support.tolist() == [8, 9, 10, 11]

    def test_equal_settings_are_permutation_equal(self):
        for setting in ("equal_uniform", "equal_gaussian"):
            g, _ = generate(cfg(setting=setting))
            assert check_permutation_equal(g.dists[0], g.dists[1], 1e-12) is True

    def test_equal_uniform_is_uniform(self):
        g, _ = generate(cfg())
        np.testing.assert_allclose(g.dists[0].probs, [0.25] * 4)

    def test_unequal_differs_across_groups(self):
        g, _ = generate(cfg(setting="unequal", support_per_group=6, seed=3))
        assert check_permutation_equal(g.dists[0], g.dists[1], 1e-9) is False

    def test_samples_respect_group_supports(self):
        g, samples = generate(cfg(n_groups=2, n_samples_per_group=50))
        assert samples.shape == (100, 2) and samples.dtype == np.int64
        for x, c in samples.tolist():
            assert x in g.dists[c].support

    def test_deterministic_given_seed(self):
        g1, s1 = generate(cfg(setting="unequal", seed=11))
        g2, s2 = generate(cfg(setting="unequal", seed=11))
        np.testing.assert_array_equal(s1, s2)
        for a, b in zip(g1.dists, g2.dists):
            np.testing.assert_array_equal(a.probs, b.probs)

    def test_seed_changes_output(self):
        _, s1 = generate(cfg(seed=1))
        _, s2 = generate(cfg(seed=2))
        assert not np.array_equal(s1, s2)

    def test_all_settings_listed(self):
        assert SETTINGS == ("equal_uniform", "equal_gaussian", "unequal")
