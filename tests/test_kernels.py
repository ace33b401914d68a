import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pefkit import _kernels
from pefkit._kernels import (
    LOCKSTEP_MIN,
    RESIDUAL_EPS,
    entropy_bits,
    greedy_fill,
    greedy_cells,
    row_searchsorted,
    symbol_codes,
    symbol_counts,
)
from pefkit.pef import _positions


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
    """Run ``greedy_cells`` once on all problems and compare every
    problem's cells with the argmax reference, bit for bit and in order."""
    cells = greedy_cells(ps, qs)
    assert len(cells) == len(ps)
    for a, c, got in zip(ps, qs, cells):
        # Each nonzero cell of the reference once, in np.nonzero's row-major
        # order; a cell in the padding would fall outside it.
        reference = greedy_fill_reference(a, c)
        want = (*np.nonzero(reference), reference[reference > 0])
        for got_part, want_part in zip(got, want, strict=True):
            np.testing.assert_array_equal(got_part, want_part)


_problem = st.tuples(_weights, _weights, st.booleans(), st.booleans())


def _batch(problems) -> tuple[list, list]:
    ps, qs = [], []
    for a, b, uniform_p, uniform_q in problems:
        ps.append(np.full(len(a), 1.0 / len(a)) if uniform_p else np.array(a) / sum(a))
        qs.append(np.full(len(b), 1.0 / len(b)) if uniform_q else np.array(b) / sum(b))
    return ps, qs


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 2 * LOCKSTEP_MIN).flatmap(lambda n: st.lists(_problem, min_size=n, max_size=n))
)
def test_greedy_fill_batch_property(problems):
    # Batches on both sides of LOCKSTEP_MIN, mixed support sizes, so
    # shorter problems run on zero padding in lockstep, and uniform sides,
    # so every step meets ties.
    assert_batch_matches_reference(*_batch(problems))


@settings(max_examples=50, deadline=None)
@given(st.lists(_problem, min_size=LOCKSTEP_MIN, max_size=LOCKSTEP_MIN))
def test_heap_and_lockstep_give_the_same_cells(problems):
    # LOCKSTEP_MIN - 1 problems run on heaps, LOCKSTEP_MIN in lockstep.
    ps, qs = _batch(problems)
    heap = greedy_cells(ps[:-1], qs[:-1])
    lockstep = greedy_cells(ps, qs)
    heap.append(greedy_cells(ps[-1:], qs[-1:])[0])
    for got, want in zip(lockstep, heap, strict=True):
        for got_part, want_part in zip(got, want, strict=True):
            assert got_part.dtype == want_part.dtype
            np.testing.assert_array_equal(got_part, want_part)


def test_batch_size_picks_the_kernel(monkeypatch):
    calls = []
    heap, lockstep = _kernels._heap_steps, _kernels._lockstep_steps
    monkeypatch.setattr(_kernels, "_heap_steps", lambda *a: calls.append("heap") or heap(*a))
    monkeypatch.setattr(
        _kernels, "_lockstep_steps", lambda *a: calls.append("lockstep") or lockstep(*a)
    )
    p = np.array([0.5, 0.5])
    for n, want in ((LOCKSTEP_MIN - 1, ["heap"] * (LOCKSTEP_MIN - 1)), (LOCKSTEP_MIN, ["lockstep"])):
        calls.clear()
        greedy_cells([p] * n, [p] * n)
        assert calls == want


def test_greedy_fill_batch_wide_stack():
    # The size of the 8 x 1000 stationary scan: 64 problems, 1000 wide.
    rng = np.random.default_rng(5)
    ps = [rng.dirichlet(np.ones(int(rng.integers(500, 1001)))) for _ in range(64)]
    qs = [rng.dirichlet(np.ones(int(rng.integers(500, 1001)))) for _ in range(64)]
    ps[0] = np.full(1000, 1e-3)
    assert_batch_matches_reference(ps, qs)


def test_greedy_fill_batch_leaves_inputs_alone():
    p = np.array([0.5, 0.3, 0.2])
    qs = [np.array([0.6, 0.4]), np.array([1.0])]
    before = [q.copy() for q in qs]
    cells = greedy_cells([p, p], qs)
    np.testing.assert_array_equal(p, [0.5, 0.3, 0.2])
    for q, b in zip(qs, before):
        np.testing.assert_array_equal(q, b)
    assert [mass.sum() for _, _, mass in cells] == [1.0, 1.0]
    assert greedy_cells([], []) == []


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


INT64_MIN, INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


@st.composite
def id_columns(draw, max_size=60):
    """An int64 column: its values span ``spread`` above a base anywhere in int64.

    A small spread with enough values takes ``symbol_codes``' table path;
    a spread above the length forces the sort/search fallback.
    """
    n = draw(st.integers(0, max_size))
    spread = draw(st.sampled_from([0, 1, 3, 10, 50, 10**6, 2**62, 2**64 - 1]))
    base = draw(st.integers(INT64_MIN, INT64_MAX - spread))
    offsets = draw(st.lists(st.integers(0, spread), min_size=n, max_size=n))
    return np.array([base + o for o in offsets], dtype=np.int64)


def _lookup_reference(ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    pos = np.searchsorted(ids, values)
    found = ids[np.minimum(pos, len(ids) - 1)] == values if len(ids) else pos < 0
    return np.where(found, pos, -1)


@settings(max_examples=300, deadline=None)
@given(id_columns())
@example(np.array([INT64_MIN, INT64_MAX, INT64_MIN], dtype=np.int64))
@example(np.array([INT64_MAX - 1, INT64_MAX, INT64_MAX], dtype=np.int64))
@example(np.array([INT64_MIN, INT64_MIN + 1, INT64_MIN], dtype=np.int64))
@example(np.array([-3, -1, -3, -2], dtype=np.int64))
@example(np.zeros(0, dtype=np.int64))
def test_symbol_codes_match_unique(values):
    ids, codes = symbol_codes(values)
    want_ids, want_codes = np.unique(values, return_inverse=True)
    np.testing.assert_array_equal(ids, want_ids)
    np.testing.assert_array_equal(codes, want_codes.reshape(-1))
    assert ids.dtype == np.int64 and codes.shape == values.shape
    labels, counts = symbol_counts(values)
    want_labels, want_counts = np.unique(values, return_counts=True)
    np.testing.assert_array_equal(labels, want_labels)
    np.testing.assert_array_equal(counts, want_counts)


@settings(max_examples=300, deadline=None)
@given(id_columns(max_size=20), id_columns())
@example(
    np.array([INT64_MIN + 1, INT64_MIN + 3], dtype=np.int64),
    np.array([INT64_MAX, INT64_MIN, INT64_MIN + 3, INT64_MIN + 1], dtype=np.int64),
)
@example(
    np.array([INT64_MAX - 2, INT64_MAX], dtype=np.int64),
    np.array([INT64_MIN, INT64_MAX, INT64_MAX - 1, INT64_MAX - 2], dtype=np.int64),
)
@example(np.zeros(0, dtype=np.int64), np.array([4, -4], dtype=np.int64))
@example(np.array([-2, 5], dtype=np.int64), np.zeros(0, dtype=np.int64))
def test_symbol_codes_against_ids_match_searchsorted(ids, values):
    ids = np.unique(ids)
    # Every other id is looked up too, so found and absent values both occur.
    values = np.concatenate([values, ids[::2]])
    want = _lookup_reference(ids, values)
    np.testing.assert_array_equal(symbol_codes(values, ids)[1], want)
    if (want < 0).any():
        with pytest.raises(KeyError) as err:
            _positions(ids, values)
        # The first unknown symbol in row order, as the sorted search names it.
        assert err.value.args[0] == f"unknown symbol {values[np.argmax(want < 0)]}"
    else:
        np.testing.assert_array_equal(_positions(ids, values), want)


def test_dense_ids_take_no_sort_or_search(monkeypatch):
    # 200 values over 8 ids: the table paths alone, never a sort or search.
    def refuse(*args, **kwargs):
        raise AssertionError("sorted or searched")

    values = np.random.default_rng(3).integers(-4, 4, size=200)
    ids = np.arange(-4, 4)
    for name in ("unique", "searchsorted", "sort", "argsort"):
        monkeypatch.setattr(np, name, refuse)
    assert symbol_codes(values)[1].tolist() == (values + 4).tolist()
    assert symbol_codes(values, ids)[1].tolist() == (values + 4).tolist()
    assert symbol_counts(values)[0].tolist() == list(range(-4, 4))
    # A wide span falls back to the sort.
    with pytest.raises(AssertionError, match="sorted or searched"):
        symbol_codes(np.array([0, 1000]))


def _same(got, want):
    """Arrays equal bit for bit, with the same dtype and shape."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(id_columns(), st.integers(1, 7))
@example(np.array([INT64_MIN, INT64_MAX, INT64_MIN], dtype=np.int64), 1)
@example(np.array([5, 3, 5, 4, 3, 9, 9, 5], dtype=np.int64), 3)
def test_symbol_codes_and_counts_do_not_depend_on_chunk_size(values, chunk):
    """Coded and counted ``chunk`` values at a time, every result equals the
    single-chunk one, on the table path (a spread within the length) and on
    the sort/search path (a wider one)."""
    # Every other distinct value as the given ids, so found and absent values both occur.
    ids = np.unique(values)[::2]

    def results():
        scratch = values.copy()
        return (*symbol_codes(values), symbol_codes(values, ids)[1], *symbol_counts(values),
                *symbol_counts(scratch, overwrite=True))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "CODE_CHUNK", max(1, values.size))
        whole = results()
        mp.setattr(_kernels, "CODE_CHUNK", chunk)
        chunked = results()
    for got, want in zip(chunked, whole, strict=True):
        _same(got, want)
    # The in-place count equals the copying one.
    for got, want in zip(whole[5:], whole[3:5], strict=True):
        _same(got, want)


def test_table_rule_reads_the_whole_column(monkeypatch):
    # 200 values over 8 ids fit a table; chunks of 3 values would not, but the
    # rule is applied to the column, so no chunk sorts or searches.
    def refuse(*args, **kwargs):
        raise AssertionError("sorted or searched")

    values = np.random.default_rng(3).integers(-4, 4, size=200)
    scratch = values.copy()
    monkeypatch.setattr(_kernels, "CODE_CHUNK", 3)
    for name in ("unique", "searchsorted", "sort", "argsort"):
        monkeypatch.setattr(np, name, refuse)
    assert symbol_codes(values)[1].tolist() == (values + 4).tolist()
    assert symbol_codes(values, np.arange(-4, 4))[1].tolist() == (values + 4).tolist()
    assert symbol_counts(values)[0].tolist() == list(range(-4, 4))
    assert symbol_counts(scratch, overwrite=True)[1].sum() == 200
