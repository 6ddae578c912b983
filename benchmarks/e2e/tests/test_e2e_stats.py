"""Estimator arithmetic: probe-normalised medians, stratified means, the pass rate."""

import statistics

import pytest

from benchmarks.e2e import stats

NOMINAL = stats.NOMINAL_PROBE_MS


def _undisturbed(values):
    return [(v, NOMINAL, 0.0, "render") for v in values]


def test_a_latency_is_counted_in_units_of_the_machines_speed_at_that_moment():
    assert stats.normalised(50.0, NOMINAL) == pytest.approx(50.0)
    assert stats.normalised(75.0, 1.5 * NOMINAL) == pytest.approx(50.0)


def test_a_disturbed_run_reads_like_an_undisturbed_one():
    calm = [(50.0 + k % 3, NOMINAL, 0.0, "render") for k in range(30)]
    # the machine runs 40% slower for the middle third: latencies and probes both stretch
    rough = [(ms * 1.4, probe * 1.4, 0.0, source) if 10 <= k < 20 else (ms, probe, 0.0, source)
             for k, (ms, probe, _, source) in enumerate(calm)]
    assert stats.cell_latency(rough) == pytest.approx(stats.cell_latency(calm))
    assert statistics.median(sample[0] for sample in rough) > stats.cell_latency(rough)


def test_cell_latency_is_a_median_not_a_minimum_and_not_a_mean():
    samples = _undisturbed([10.0] * 9 + [11.0] * 9 + [300.0])
    assert stats.cell_latency(samples) == 11.0
    assert stats.cell_latency(samples) > min(sample[0] for sample in samples)


def test_a_paced_frame_is_judged_by_its_period():
    samples = [(4.0, NOMINAL, 60.0, "cache"), (6.0, NOMINAL, 60.0, "cache"),
               (5.0, 2 * NOMINAL, 60.0, "cache")]
    # think time is the script's, not the machine's: only the wait is normalised
    assert stats.cell_latency(samples) == pytest.approx(60.0 + 4.0)


def test_each_source_has_its_median_and_counts_for_its_share():
    hits = [(2.0, NOMINAL, 60.0, "cache")] * 30
    renders = [(26.0, NOMINAL, 60.0, "render")] * 10
    assert stats.cell_latency(hits + renders) == pytest.approx(60.0 + 0.75 * 2.0 + 0.25 * 26.0)
    # a pooled median would not have moved until half the hits were lost
    assert statistics.median(ms for ms, _, _, _ in hits + renders) == 2.0
    lost = hits[:20] + [(26.0, NOMINAL, 60.0, "render")] * 20
    assert stats.cell_latency(lost) == pytest.approx(60.0 + 0.5 * 2.0 + 0.5 * 26.0)


def test_stratified_median_is_the_mean_of_stratum_medians_never_pooled():
    strata = {"hit": _undisturbed([1.0] * 90), "render": _undisturbed([100.0] * 10)}
    assert stats.stratified_median(strata) == pytest.approx(50.5)
    pooled = statistics.median([1.0] * 90 + [100.0] * 10)
    assert pooled == 1.0  # what a pooled median would have said


def test_pass_rate_arithmetic():
    counts = {("a", "step"): 10, ("a", "orbit"): 10, ("b", "step"): 5}
    latencies = {("a", "step"): 20.0, ("a", "orbit"): 10.0, ("b", "step"): 100.0}
    # 25 frames in 200 + 100 + 500 ms
    assert stats.pass_rate(counts, latencies) == pytest.approx(25 / 0.8)


def test_a_burst_in_one_pass_leaves_frames_per_s_within_one_percent():
    passes, per_pass = 6, 12
    clean = {("a", "step"): [], ("a", "orbit"): []}
    burst = {("a", "step"): [], ("a", "orbit"): []}
    for number in range(passes):
        for k in range(per_pass):
            for cell, base in ((("a", "step"), 20.0), (("a", "orbit"), 10.0)):
                ms = base * (1.0 + 0.01 * (k % 5))
                clean[cell].append((ms, NOMINAL, 0.0, "render"))
                # a burst the probes did not see slows pass 2 fivefold
                burst[cell].append((ms * 5.0 if number == 2 else ms, NOMINAL, 0.0, "render"))
    counts = {cell: per_pass for cell in clean}

    def rate(cells):
        return stats.pass_rate(counts, {c: stats.cell_latency(v) for c, v in cells.items()})

    assert rate(burst) == pytest.approx(rate(clean), rel=0.01)


def test_quartile_spread_is_the_drivers():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 10.1, 9.7]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_percentile_interpolates():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
    assert stats.percentile([5.0], 95.0) == 5.0
