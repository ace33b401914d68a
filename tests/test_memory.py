"""Working memory of the sample path, per row, on a 200k-row Algorithm 1 input.

``apply`` holds its output plus fixed-size chunk temporaries, and
``evaluate_run`` counts (z, x) from the two columns it is given, so each
stays within 32 bytes per row above its inputs: the output alone of
``apply`` is 16. tracemalloc sees every numpy buffer, and the same calls
on the same input allocate the same buffers, so the peaks are
deterministic.
"""

import tracemalloc

import numpy as np
import pytest

from pefkit import SynthConfig, apply, evaluate_run, generate, grouped_from_samples, run_algorithm1

BYTES_PER_ROW = 32


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
    assert peak / len(samples) <= BYTES_PER_ROW
