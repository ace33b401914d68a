import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pefkit._kernels import RESIDUAL_EPS, entropy_bits, greedy_fill


def greedy_fill_reference(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The O((m+n)^2) argmax form of the greedy coupling, kept as the oracle.

    ``np.argmax`` returns the first maximum, so ties go to the lowest index.
    """
    rp = p.copy()
    rq = q.copy()
    mass = np.zeros((p.size, q.size))
    for _ in range(p.size + q.size):
        i = int(np.argmax(rp))
        j = int(np.argmax(rq))
        m = min(rp[i], rq[j])
        if m <= RESIDUAL_EPS:
            break
        mass[i, j] += m
        rp[i] -= m
        rq[j] -= m
    return mass


def test_entropy_handles_zeros():
    assert entropy_bits(np.array([0.5, 0.0, 0.5])) == 1.0


def _instances():
    rng = np.random.default_rng(2)
    for _ in range(50):
        yield (
            rng.dirichlet(np.ones(int(rng.integers(1, 8)))),
            rng.dirichlet(np.ones(int(rng.integers(1, 8)))),
        )
    # The instance generator of criterion 4 in tests/test_acceptance.py.
    for seed in range(500):
        r = np.random.default_rng([4, seed])
        m = int(r.integers(2, 5))
        n = int(r.integers(2, 5))
        yield r.dirichlet(np.ones(m)), r.dirichlet(np.ones(n))
    for m, n in ((1000, 1000), (1000, 700)):
        yield rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))


def test_greedy_fill_paths_agree():
    # The heap kernel against the argmax reference, bit for bit.
    for p, q in _instances():
        np.testing.assert_array_equal(greedy_fill(p, q), greedy_fill_reference(p, q))


def test_greedy_fill_tie_breaks_lowest_index():
    cases = [
        ([0.5, 0.5], [0.5, 0.5], np.diag([0.5, 0.5])),
        (
            [0.25] * 4,
            [0.5, 0.5],
            np.array([[0.25, 0.0], [0.0, 0.25], [0.25, 0.0], [0.0, 0.25]]),
        ),
    ]
    for p, q, expected in cases:
        p, q = np.array(p), np.array(q)
        np.testing.assert_array_equal(greedy_fill(p, q), expected)
        np.testing.assert_array_equal(greedy_fill_reference(p, q), expected)


_weights = st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(_weights, _weights)
def test_greedy_fill_property(a, b):
    p = np.array(a) / sum(a)
    q = np.array(b) / sum(b)
    mass = greedy_fill(p, q)
    np.testing.assert_array_equal(mass, greedy_fill_reference(p, q))
    np.testing.assert_allclose(mass.sum(axis=1), p, rtol=0, atol=1e-12)
    np.testing.assert_allclose(mass.sum(axis=0), q, rtol=0, atol=1e-12)
    assert np.count_nonzero(mass) <= p.size + q.size - 1
