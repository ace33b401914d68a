import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pefkit._kernels import (
    RESIDUAL_EPS,
    entropy_bits,
    greedy_fill,
    greedy_fill_batch,
    row_searchsorted,
)


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


def assert_batch_matches_reference(ps: list, qs: list) -> None:
    """Stack the problems zero-padded, run the batch kernel once, and compare
    every problem's cells with the argmax reference, bit for bit."""
    p = np.zeros((len(ps), max(a.size for a in ps)))
    q = np.zeros((len(qs), max(a.size for a in qs)))
    for b, (a, c) in enumerate(zip(ps, qs)):
        p[b, : a.size] = a
        q[b, : c.size] = c
    rows, cols, mass = greedy_fill_batch(p, q)
    assert mass.shape[0] <= p.shape[1] + q.shape[1]
    for b, (a, c) in enumerate(zip(ps, qs)):
        live = mass[:, b] > 0
        cells = list(zip(rows[live, b].tolist(), cols[live, b].tolist()))
        assert len(set(cells)) == len(cells)
        # A cell in the padding would fall outside the problem's own shape.
        dense = np.zeros((a.size, c.size))
        dense[rows[live, b], cols[live, b]] = mass[live, b]
        np.testing.assert_array_equal(dense, greedy_fill_reference(a, c))


_problem = st.tuples(_weights, _weights, st.booleans(), st.booleans())


@settings(max_examples=200, deadline=None)
@given(st.lists(_problem, min_size=1, max_size=6))
def test_greedy_fill_batch_property(problems):
    # Mixed support sizes, so shorter problems run on zero padding, and
    # uniform sides, so every step meets ties.
    ps, qs = [], []
    for a, b, uniform_p, uniform_q in problems:
        ps.append(np.full(len(a), 1.0 / len(a)) if uniform_p else np.array(a) / sum(a))
        qs.append(np.full(len(b), 1.0 / len(b)) if uniform_q else np.array(b) / sum(b))
    assert_batch_matches_reference(ps, qs)


def test_greedy_fill_batch_wide_stack():
    # The size of the 8 x 1000 stationary scan: 64 problems, 1000 wide.
    rng = np.random.default_rng(5)
    ps = [rng.dirichlet(np.ones(int(rng.integers(500, 1001)))) for _ in range(64)]
    qs = [rng.dirichlet(np.ones(int(rng.integers(500, 1001)))) for _ in range(64)]
    ps[0] = np.full(1000, 1e-3)
    assert_batch_matches_reference(ps, qs)


def test_greedy_fill_batch_leaves_inputs_alone():
    p = np.broadcast_to(np.array([0.5, 0.3, 0.2]), (2, 3))
    q = np.array([[0.6, 0.4, 0.0], [1.0, 0.0, 0.0]])
    before = q.copy()
    rows, cols, mass = greedy_fill_batch(p, q)
    np.testing.assert_array_equal(q, before)
    np.testing.assert_array_equal(mass.sum(axis=0), [1.0, 1.0])


def test_row_searchsorted_exact_at_cdf_values():
    # Rows whose CDFs end above 1, below 1 and exactly at 1, and a point mass.
    rows = [
        np.cumsum([0.1] * 10),  # ends at 0.9999999999999999
        np.array([0.3, 0.7000000000000001, 1.0000000000000002]),
        np.array([0.5, 1.0]),
        np.array([1.0]),
    ]
    cdfs = np.concatenate(rows)
    ends = np.cumsum([len(r) for r in rows])
    for i, row in enumerate(rows):
        # Every stored CDF value, its float neighbours, and both ends of [0, 1).
        u = np.concatenate(
            [row, np.nextafter(row, 0.0), np.nextafter(row, 2.0), [0.0, np.nextafter(1.0, 0.0)]]
        )
        u = u[(u >= 0.0) & (u < 1.0)]
        lo = np.full(u.size, ends[i] - len(row))
        got = row_searchsorted(cdfs, lo, lo + len(row) - 1, u)
        want = lo + np.minimum(np.searchsorted(row, u, side="right"), len(row) - 1)
        np.testing.assert_array_equal(got, want)
