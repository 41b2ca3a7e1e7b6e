"""Slow reference implementations used to cross-check the fast paths.

Everything here is deliberately dumb: per-millisecond and per-bit loops,
explicit slices and statistics.pvariance instead of vectorised numpy or
byte-level search. The unit and acceptance tests assert exact agreement
with the package code.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter

from diskchannel import (
    START_MARKER,
    AccessSchedule,
    DiskModel,
    InterfererProfile,
    MalformedStuffing,
    SyncNotFound,
)
from diskchannel.framing import MIN_SYNC_RUN
from diskchannel.receiver import VARIANCE_EPSILON


def served_load_loop(demand: list[int], capacity: int) -> list[float]:
    """Lindley backlog recursion, one millisecond at a time."""
    backlog = 0.0
    out = []
    for d in demand:
        arrived = backlog + d
        next_backlog = max(0.0, arrived - capacity)
        out.append(arrived - next_backlog)
        backlog = next_backlog
    return out


def noiseless_trace_loop(
    schedule: AccessSchedule,
    disk: DiskModel,
    interferer: InterfererProfile,
    pri_ms: int,
    run_duration_ms: int,
    lead_in_ms: int = 0,
) -> list[float]:
    """Per-window averaged latency with zero noise, straight from the model."""
    demand = [interferer.active_accessors(t) for t in range(run_duration_ms)]
    for start, end in schedule.intervals:
        for t in range(lead_in_ms + start, lead_in_ms + end):
            demand[t] += schedule.n_accessors
    active = served_load_loop(demand, disk.capacity_accessors)
    latency = [disk.base_latency_ms + disk.contention_slope_ms * a for a in active]
    raw_period = disk.raw_sample_period_ms
    raw = [
        sum(latency[i : i + raw_period]) / raw_period
        for i in range(0, run_duration_ms, raw_period)
    ]
    per_window = pri_ms // raw_period
    return [
        sum(raw[i : i + per_window]) / per_window
        for i in range(0, len(raw), per_window)
    ]


def bit_start_vote_loop(
    values: list[float], samples_per_bit: int, variances=None
) -> int:
    """Modal minimum-variance offset via explicit slices and pvariance.

    variances[k] scores values[k : k + samples_per_bit]; when it is not
    given, every score is statistics.pvariance of that slice. Offsets
    within tol = VARIANCE_EPSILON * pvariance(values) of a window's
    minimum tie and the smallest votes. A window whose candidates all lie
    within tol of each other abstains, unless it is a truncated last
    window with a single candidate. Raises ValueError when no window with
    two or more candidates shows a spread above tol.
    """
    spb = samples_per_bit
    n_candidates = len(values) - spb + 1
    if variances is None:
        variances = [
            statistics.pvariance(values[k : k + spb]) for k in range(n_candidates)
        ]
    tol = VARIANCE_EPSILON * statistics.pvariance(values)
    votes: Counter[int] = Counter()
    contrast = False
    for j in range(len(values) // spb):
        base = j * spb
        scores = variances[base : base + spb]
        low = min(scores)
        flat = max(scores) - low <= tol
        if len(scores) > 1 and flat:
            continue
        contrast = contrast or not flat
        votes[min(k for k, v in enumerate(scores) if v - low <= tol)] += 1
    if not contrast:
        raise ValueError("no window shows a variance contrast")
    top = max(votes.values())
    return min(offset for offset, count in votes.items() if count == top)


def schedule_bits_loop(
    intervals: list[tuple[int, int]],
    bit_time_ms: int,
    threshold: float,
    total_duration_ms: int,
) -> list[int]:
    """Recover bits from intervals by sampling each bit slot's active part."""
    bits = []
    for i in range(total_duration_ms // bit_time_ms):
        slot_start = i * bit_time_ms
        slot_end = slot_start + threshold * bit_time_ms
        active = any(s < slot_end and e > slot_start for s, e in intervals)
        bits.append(1 if active else 0)
    return bits


def gab_fixed_point_loop(averages: list[float], max_iterations: int = 16) -> tuple[list[int], float]:
    """Iterative threshold correction, written as plainly as possible."""
    gab = sum(averages) / len(averages)
    decoded = [1 if a > gab else 0 for a in averages]
    for _ in range(max_iterations):
        ones = [a for a, b in zip(averages, decoded) if b == 1]
        zeros = [a for a, b in zip(averages, decoded) if b == 0]
        if not ones or not zeros:
            raise ValueError("degenerated into one class")
        if len(ones) == len(zeros):
            break
        shift = (len(ones) - len(zeros)) * (
            sum(ones) / len(ones) - sum(zeros) / len(zeros)
        ) / (2 * (len(ones) + len(zeros)))
        gab = gab - shift
        next_decoded = [1 if a > gab else 0 for a in averages]
        if next_decoded == decoded:
            break
        decoded = next_decoded
    return decoded, gab


def stuff_loop(payload: list[int]) -> tuple[int, ...]:
    """Bit stuffing one bit at a time: complement after every run of three."""
    out: list[int] = []
    run_bit = -1
    run_len = 0
    for bit in payload:
        out.append(bit)
        if bit == run_bit:
            run_len += 1
        else:
            run_bit, run_len = bit, 1
        if run_len == 3:
            out.append(1 - bit)
            run_bit, run_len = 1 - bit, 1
    return tuple(out)


def destuff_loop(stuffed: list[int]) -> tuple[int, ...]:
    """Destuffing one bit at a time, raising MalformedStuffing where it must."""
    out: list[int] = []
    run_bit = -1
    run_len = 0
    drop_next = False
    for i, bit in enumerate(stuffed):
        if drop_next:
            if bit == run_bit:
                raise MalformedStuffing(f"run of 4 identical bits at index {i}")
            # The dropped complement is still part of the stuffed stream's
            # run structure, so it seeds the run counter.
            run_bit, run_len = bit, 1
            drop_next = False
            continue
        if bit == run_bit:
            run_len += 1
        else:
            run_bit, run_len = bit, 1
        out.append(bit)
        if run_len == 3:
            drop_next = True
    if drop_next:
        raise MalformedStuffing("stream ends immediately after a full run")
    return tuple(out)


def symbol_sync_loop(bits: list[int]) -> int:
    """Preamble end by walking the maximal alternating runs one bit at a time.

    Returns the last index of the first run of at least MIN_SYNC_RUN bits
    that leaves room for a start marker after it.
    """
    n = len(bits)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and bits[j + 1] != bits[j]:
            j += 1
        if j - i + 1 >= MIN_SYNC_RUN and j + len(START_MARKER) <= n:
            return j
        i = j + 1
    raise SyncNotFound("no alternating run long enough to be a preamble")


def stuffed_runs_ok(bits: list[int], limit: int = 3) -> bool:
    """True when no run of identical bits exceeds the limit."""
    run = 0
    last = None
    for b in bits:
        run = run + 1 if b == last else 1
        last = b
        if run > limit:
            return False
    return True


def round_up(value: int, step: int) -> int:
    return math.ceil(value / step) * step
