"""Working memory of the sample path, per row, on a 200k-row Algorithm 1 input.

``apply`` holds its output plus fixed-size chunk temporaries, so it stays
within 32 bytes per row above its input: the output alone is 16.
``grouped_from_samples`` and ``evaluate_run`` code and count the sample
columns in fixed-size chunks: the first holds only per-label arrays and
chunks, the second one 8-byte code per row besides, so each stays within
16 bytes per row above its inputs. tracemalloc sees every numpy buffer,
and the same calls on the same input allocate the same buffers, so the
peaks are deterministic.
"""

import tracemalloc

import numpy as np
import pytest

from pefkit import SynthConfig, apply, evaluate_run, generate, grouped_from_samples, run_algorithm1

BYTES_PER_ROW = 32
CODED_BYTES_PER_ROW = 16


@pytest.fixture(scope="module")
def alg1_run():
    """4 groups x 200 symbols x 50k samples, its --tol 0 function and erased rows."""
    _, samples = generate(SynthConfig(n_groups=4, support_per_group=200,
                                      n_samples_per_group=50_000, setting="unequal", seed=1))
    f, _ = run_algorithm1(samples, tol=0.0)
    assert f.variant == "stochastic"
    return samples, f, grouped_from_samples(samples), apply(f, samples, seed=0)


def traced_peak(fn):
    """``fn()`` and the peak bytes it allocates above what is live when it starts."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - live
    finally:
        if not tracing:
            tracemalloc.stop()


def test_apply_holds_its_output_and_fixed_temporaries(alg1_run):
    samples, f, _, erased = alg1_run
    assert len(samples) == 200_000
    out, peak = traced_peak(lambda: apply(f, samples, seed=0))
    np.testing.assert_array_equal(out, erased)
    assert peak / len(samples) <= BYTES_PER_ROW


def test_evaluate_run_holds_no_stacked_copy(alg1_run):
    samples, f, g, erased = alg1_run
    _, peak = traced_peak(lambda: evaluate_run(g, f, erased, samples))
    assert peak / len(samples) <= CODED_BYTES_PER_ROW


def test_grouped_from_samples_holds_no_full_length_codes(alg1_run):
    samples, _, g, _ = alg1_run
    got, peak = traced_peak(lambda: grouped_from_samples(samples))
    assert got.priors.tobytes() == g.priors.tobytes()
    assert peak / len(samples) <= CODED_BYTES_PER_ROW
