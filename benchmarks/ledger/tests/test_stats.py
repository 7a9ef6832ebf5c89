"""The pooled-percentile rule."""

import statistics

import stats


def test_percentile_is_nearest_rank():
    ordered = list(range(1, 101))
    assert stats.percentile(ordered, 0.50) == 50
    assert stats.percentile(ordered, 0.99) == 99
    assert stats.percentile(ordered, 1.0) == 100
    assert stats.percentile([7.0], 0.99) == 7.0


def test_pooling_is_over_samples_not_over_rep_percentiles():
    # One slow rep: its tail must show in the pooled p99 even though the
    # median of the per-rep p99s would hide it.
    fast = [1.0] * 500
    slow = [1.0] * 480 + [50.0] * 20
    pooled = stats.pooled_percentile([fast, fast, slow], 0.99)
    per_rep = statistics.median(
        stats.percentile(sorted(rep), 0.99) for rep in (fast, fast, slow)
    )
    assert per_rep == 1.0
    assert pooled["value"] == 50.0
    assert pooled["n"] == 1500
    assert pooled["beyond"] == 15 and pooled["supported"]


def test_a_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(1000, 0.99) == 10
    assert stats.pooled_percentile([[1.0] * 1000], 0.99)["supported"]
    thin = stats.pooled_percentile([[1.0] * 999], 0.99)
    assert thin["beyond"] == 9 and not thin["supported"]


def test_quartiles_follow_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 20.0]
    q1, median, q3 = stats.quartiles(values)
    assert (q1, q3) == tuple(statistics.quantiles(values, n=4)[::2])
    assert median == 12.0
    assert stats.quartiles([5.0]) == (5.0, 5.0, 5.0)
