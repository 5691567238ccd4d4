"""Percentile estimates of the server's latency histograms.

The estimator interpolates inside the quantile's power-of-two bucket and
clamps to the observed range, so every percentile is a value the
histogram could actually have seen.
"""

from __future__ import annotations

import random

import pytest

from repro.server.metrics import LatencyHistogram


def _snapshot(samples_ms):
    histogram = LatencyHistogram()
    for ms in samples_ms:
        histogram.record(ms / 1000.0)
    return histogram.as_dict()


@pytest.mark.parametrize("seed", range(5))
def test_percentiles_are_ordered_and_inside_the_observed_range(seed):
    rng = random.Random(seed)
    samples = [rng.lognormvariate(3.0, 1.5) for _ in range(rng.randint(1, 400))]
    stats = _snapshot(samples)
    assert stats["min_ms"] <= stats["p50_ms"] <= stats["p90_ms"]
    assert stats["p90_ms"] <= stats["p99_ms"] <= stats["max_ms"]


def test_a_single_sample_reports_itself():
    stats = _snapshot([300.0])
    assert stats["p50_ms"] == stats["p90_ms"] == stats["p99_ms"] == 300.0


def test_quantiles_never_exceed_the_observed_max():
    # 304 ms sits in the (256, 512] bucket, whose upper edge is not a
    # latency anyone observed.
    stats = _snapshot([10.0] * 8 + [300.0, 304.0])
    assert stats["p90_ms"] <= 304.0
    assert stats["p99_ms"] <= 304.0


def test_uniform_spread_interpolates_inside_its_bucket():
    # 64 samples evenly spread over (64, 128]: one bucket, true median 96.
    samples = [64.0 + index for index in range(1, 65)]
    stats = _snapshot(samples)
    assert 64.0 < stats["p50_ms"] < 128.0
    assert stats["p50_ms"] == pytest.approx(96.5, abs=2.0)
    assert stats["p90_ms"] == pytest.approx(122.0, abs=2.0)


def test_overflow_bucket_is_bounded_by_the_max():
    stats = _snapshot([70_000.0, 80_000.0])
    assert stats["overflow"] == 2
    assert 70_000.0 <= stats["p50_ms"] <= stats["p99_ms"] <= 80_000.0


def test_empty_histogram_has_no_percentiles():
    assert LatencyHistogram().as_dict() == {"count": 0}
