import stats


def test_tail_needs_ten_samples_beyond_it():
    # 100 samples: p90 leaves exactly ten above it, p95 only five.
    assert stats.supported_tail(100) == 0.9
    assert stats.supported_tail(99) == 0.75
    # 1000 samples support p99 (ten beyond) but not p99.9 (one beyond).
    assert stats.supported_tail(1000) == 0.99
    assert stats.supported_tail(999) == 0.95
    assert stats.supported_tail(10_000) == 0.999


def test_small_samples_support_a_median_only():
    assert stats.supported_tail(39) is None
    assert stats.supported_tail(40) == 0.75
    summary = stats.summarize([1.0] * 20)
    assert summary["n"] == 20 and summary["tail_q"] is None and summary["tail"] == 0.0


def test_summarize_picks_nearest_rank_values_and_scales():
    samples = [i / 1000 for i in range(1, 1001)]  # 1 ms .. 1 s, in seconds
    summary = stats.summarize(samples, 1e3)
    assert summary == {"n": 1000, "p50": 500.0, "tail_q": 0.99, "tail": 990.0}
    beyond = sum(1 for s in samples if s * 1e3 > summary["tail"])
    assert beyond == 10


def test_fixed_quantile_reads_zero_when_unsupported():
    assert stats.quantile_or_zero([1.0] * 99, 0.9) == 0.0
    assert stats.quantile_or_zero(list(range(100)), 0.9) == 89


def test_spread_is_interquartile_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    import statistics

    q = statistics.quantiles(values, n=4)
    assert stats.spread(values) == (q[2] - q[0]) / statistics.median(values)
    assert stats.spread([5.0]) == 0.0
