"""Fastest-repetition timing and host-factor scaling of a run's passes."""

import pytest

from run import REFERENCE_S, fastest_timings, host_factors, setup_times


def make_pass(chunks, references, latencies, slices):
    return {
        "counters": {"sent": len(latencies)},
        "chunks_s": chunks,
        "reference_s": references,
        "latencies_s": latencies,
        "latency_slices": slices,
    }


def test_host_factor_is_the_local_median_reference_time():
    refs = [REFERENCE_S] * 20 + [3 * REFERENCE_S] * 20
    factors = host_factors(make_pass([1.0] * 40, refs, [], []))
    assert factors[0] == pytest.approx(1.0)
    assert factors[39] == pytest.approx(3.0)
    # The window straddles the change: six of its eleven slices ran slow.
    assert factors[20] == pytest.approx(3.0)


def test_each_slice_and_request_counts_at_its_fastest_repetition():
    quiet = make_pass([1.0, 2.0], [REFERENCE_S] * 2,
                      [0.1, 0.2, 0.3, 0.4], [0, 0, 1, 1])
    busy = make_pass([3.0, 2.0], [2 * REFERENCE_S] * 2,
                     [0.4, 0.4, 0.2, 0.2], [0, 0, 1, 1])

    unscaled = fastest_timings([quiet, busy], scaled=False)
    assert unscaled["requests_per_s"] == pytest.approx(4 / (1.0 + 2.0))
    # Fastest latencies 0.1, 0.2, 0.2, 0.2 s; the nearest-rank p50 is 0.2 s.
    assert unscaled["setup_p50_us"] == pytest.approx(0.2e6)

    # The busy pass ran at half speed: its times count halved.
    scaled = fastest_timings([quiet, busy], scaled=True)
    assert scaled["requests_per_s"] == pytest.approx(4 / (1.0 + 1.0))
    assert scaled["setup_p50_us"] == pytest.approx(0.1e6)


def test_each_build_is_scaled_by_the_references_right_after_it():
    p = {"setup_s": [0.2, 0.4], "setup_reference_s": [REFERENCE_S, 2 * REFERENCE_S]}
    assert setup_times([p], scaled=False) == [0.2, 0.4]
    assert setup_times([p], scaled=True) == pytest.approx([0.2, 0.2])
