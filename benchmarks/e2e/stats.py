"""Estimators: probe-normalised medians, stratified means, the pass rate.

The reference box is a shared 2-core VM whose neighbours slow it by
30-70% for seconds, sometimes minutes, at a time (README, "Noise"); a
plain median over a 20 s run moves by a quarter between runs of
identical code.  So every operation is bracketed by a *probe* — fixed
numpy work timed in a process of the benchmark's own, which knows
nothing of the program — and a latency is counted in units of the
machine's speed at that moment: ``ms * NOMINAL_PROBE_MS / probe_ms``.
On an undisturbed reference box that is the latency itself; on a
disturbed one it is what the latency would have been.  A cell's latency
is the median of its normalised samples (per FRAME source, where a
serving cache answers some of them): no minima, no single samples,
nothing above p50.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

#: what the probe reads on the undisturbed reference box; it only fixes
#: the scale, so that normalised milliseconds read like milliseconds
NOMINAL_PROBE_MS = 1.30

#: (latency in ms, the slower of the two probes around it in ms, think
#: time in ms, who answered: FRAME ``source``)
Sample = Tuple[float, float, float, str]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def normalised(ms: float, probe_ms: float) -> float:
    """*ms* at the nominal machine speed, given what the probe read beside it."""
    return ms * NOMINAL_PROBE_MS / probe_ms


def cell_latency(samples: Iterable[Sample]) -> float:
    """What one op of the cell costs: per source its median, weighed by its share.

    A serving-cache hit and a render are two populations, so each gets
    its own median and counts for the share of the cell's frames it
    answered; a hit that turns into a render moves the cell by the
    difference.  Where every frame is rendered this is the plain median.

    A paced frame (think time > 0) is judged by its period — the pause
    the script prescribes plus the wait — which is what its viewer sees.
    """
    by_source: Dict[str, List[float]] = {}
    for ms, probe, think, source in samples:
        by_source.setdefault(source, []).append(think + normalised(ms, probe))
    total = sum(len(values) for values in by_source.values())
    return sum(len(values) / total * statistics.median(values)
               for values in by_source.values())


def stratified_median(strata: Dict[str, List[Sample]]) -> float:
    """Mean over strata of each stratum's median — never a pooled median.

    Strata are unimodal by construction (one scene type, or one
    reduction kind); a pooled median over 1 ms hits and 100 ms renders
    would sit wherever the mix puts it.
    """
    if not strata:
        raise ValueError("no strata")
    return statistics.fmean(cell_latency(s) for s in strata.values())


def pass_rate(counts: Dict[Tuple[str, str], int],
              latencies_ms: Dict[Tuple[str, str], float]) -> float:
    """Frames per second of one pass played at each cell's median latency.

    ``counts`` is the gesture frames per (stratum, kind) in a pass.
    The one time-weighted number: the slow
    stratum weighs what it costs.  Built on the cell medians, a burst
    that hits one pass does not move it.
    """
    busy_ms = sum(n * latencies_ms[cell] for cell, n in counts.items())
    return 1000.0 * sum(counts.values()) / busy_ms


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as the driver computes it over ten runs."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
