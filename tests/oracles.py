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
from itertools import repeat

import numpy as np
from scipy.signal import lfilter

from diskchannel import (
    START_MARKER,
    AccessSchedule,
    AmbiguousPhase,
    ContentionTrace,
    DecoderConfig,
    DiskModel,
    InterfererProfile,
    MalformedStuffing,
    SyncNotFound,
)
from diskchannel.channel import CLAMP_FRACTION
from diskchannel.framing import MIN_SYNC_RUN
from diskchannel.receiver import ONSET_BASELINE_WINDOWS, VARIANCE_EPSILON


def active_accessors(interferer: InterfererProfile, t_ms: int) -> int:
    """Background accessors busy at millisecond t_ms, from the profile's rule."""
    if interferer.kind == "stress":
        return interferer.load
    if interferer.kind == "benchmark":
        in_burst = (t_ms % interferer.period_ms) < interferer.burst_ms
        return interferer.load if in_burst else 0
    return 0


def served_load_loop(demand: list[int], capacity: int) -> list[int]:
    """Lindley backlog recursion, one millisecond at a time, in Python ints."""
    backlog = 0
    out = []
    for d in demand:
        arrived = backlog + d
        next_backlog = max(0, arrived - capacity)
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
    demand = [active_accessors(interferer, t) for t in range(run_duration_ms)]
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


def noisy_windows_whole(
    raw: np.ndarray, disk: DiskModel, pri_ms: int, seed: int = 0
) -> ContentionTrace:
    """noisy_windows with each noise term drawn whole, in one array per term.

    raw is np.repeat of the runs noisy_windows takes; it is left as it is.
    """
    rng = np.random.default_rng(seed)
    noisy = raw
    if disk.wander_stddev_ms > 0:
        rho = math.exp(-disk.raw_sample_period_ms / disk.wander_time_ms)
        start = disk.wander_stddev_ms * rng.standard_normal()
        innovations = rng.standard_normal(raw.size)
        scale = disk.wander_stddev_ms * math.sqrt(1.0 - rho * rho)
        zi = np.array([rho * start])
        wander, _ = lfilter([scale], [1.0, -rho], innovations, zi=zi)
        noisy = wander + noisy
    if disk.noise_stddev_ms > 0:
        white = rng.normal(0.0, disk.noise_stddev_ms, raw.size)
        noisy = white + noisy
    if noisy is not raw:
        noisy = np.maximum(noisy, CLAMP_FRACTION * disk.base_latency_ms)
    per_window = pri_ms // disk.raw_sample_period_ms
    values = noisy.reshape(-1, per_window).mean(axis=1)
    starts = np.arange(0, raw.size * disk.raw_sample_period_ms, pri_ms)
    return ContentionTrace(pri_ms, starts, values)


def bit_start_vote_loop(
    values: list[float], samples_per_bit: int, variances=None
) -> int:
    """Modal minimum-variance offset via explicit slices and pvariance.

    variances[k] scores values[k : k + samples_per_bit]; when it is not
    given, every score is statistics.pvariance of that slice. Offsets
    within tol = VARIANCE_EPSILON * pvariance(values) of a window's
    minimum tie and the smallest votes. A window whose candidates all lie
    within tol of each other abstains, a truncated last window with a
    single candidate included. Raises ValueError when no window shows a
    spread above tol.
    """
    spb = samples_per_bit
    n_candidates = len(values) - spb + 1
    if variances is None:
        variances = [
            statistics.pvariance(values[k : k + spb]) for k in range(n_candidates)
        ]
    tol = VARIANCE_EPSILON * statistics.pvariance(values)
    votes: Counter[int] = Counter()
    for j in range(len(values) // spb):
        base = j * spb
        scores = variances[base : base + spb]
        low = min(scores)
        if max(scores) - low <= tol:
            continue
        votes[min(k for k, v in enumerate(scores) if v - low <= tol)] += 1
    if not votes:
        raise ValueError("no window shows a variance contrast")
    top = max(votes.values())
    return min(offset for offset, count in votes.items() if count == top)


def bit_start_full_pass(trace, config: DecoderConfig) -> int:
    """detect_bit_start as one pass of whole-trace numpy temporaries.

    The receiver's previous detect_bit_start, kept verbatim: the fast one
    writes the same arithmetic into preallocated buffers and must return
    the same offset, or raise where this raises.
    """
    values = np.asarray(trace, dtype=np.float64)
    spb = config.samples_per_bit
    if values.size < 3 * spb:
        raise ValueError(
            f"need at least {3 * spb} samples for phase detection, "
            f"got {values.size}"
        )
    x = values - values.mean()
    s1 = np.concatenate(([0.0], np.cumsum(x)))
    s2 = np.concatenate(([0.0], np.cumsum(x * x)))
    means = (s1[spb:] - s1[:-spb]) / spb
    variances = (s2[spb:] - s2[:-spb]) / spb - means * means
    tol = VARIANCE_EPSILON * s2[-1] / values.size

    n_windows = values.size // spb
    grid = np.full(n_windows * spb, np.inf)
    grid[: variances.size] = variances
    grid = grid.reshape(n_windows, spb)
    tied = grid <= grid.min(axis=1, keepdims=True) + tol
    n_candidates = np.full(n_windows, spb)
    n_candidates[-1] = variances.size - (n_windows - 1) * spb
    contrast = tied.sum(axis=1) < n_candidates
    if not contrast.any():
        raise AmbiguousPhase(
            "no sampling offset shows a variance contrast above "
            f"{VARIANCE_EPSILON} of the trace variance"
        )
    votes = tied.argmax(axis=1)[contrast]
    return int(np.argmax(np.bincount(votes, minlength=spb)))


def onset_full_pass(values) -> int:
    """find_transmission_onset as one pass over the whole trace.

    The receiver's earlier find_transmission_onset, kept verbatim: the
    current one tests a prefix of the trace first and must return the
    same window.
    """
    v = np.asarray(values, dtype=np.float64)
    first = ONSET_BASELINE_WINDOWS
    if v.size <= first:
        return 0
    counts = np.arange(1, v.size + 1, dtype=np.float64)
    means = np.cumsum(v) / counts
    mean_sq = np.cumsum(v * v) / counts
    stds = np.sqrt(np.maximum(mean_sq - means**2, 0.0))
    thresholds = (means + 3.0 * stds)[first - 1 : -1]
    hits = np.nonzero(v[first:] > thresholds + 1e-9)[0]
    if hits.size == 0:
        return 0
    return int(hits[0]) + first


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


def to_csv_loop(trace: ContentionTrace) -> str:
    """ContentionTrace.to_csv as it was before the block writer: one line per row."""
    lines = ["window_start_ms,avg_access_time_ms"]
    starts, values = trace.window_starts_ms.tolist(), trace.values_ms.tolist()
    for start, value in zip(starts, values):
        lines.append(f"{start},{value!r}")
    return "\n".join(lines) + "\n"


def trace_csv_loop(text: str) -> ContentionTrace:
    """ContentionTrace.from_csv as it was before the one-pass reader.

    A per-row comma count, then the cells of all rows in two numpy
    conversions; a cell they refuse is named by its line.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "window_start_ms,avg_access_time_ms":
        raise ValueError("missing trace CSV header")
    rows = lines[1:]
    if set(map(str.count, rows, repeat(","))) - {1}:
        row = next(row for row in rows if row.count(",") != 1)
        raise ValueError(f"trace row {row!r} does not hold two cells")
    if len(rows) < 2:
        raise ValueError("trace needs at least two windows")
    cells = ",".join(rows).split(",")  # start, value, start, value, ...
    try:
        values = np.array(cells[1::2], dtype=np.float64)
        starts = np.array(cells[0::2], dtype=np.int64)
    except OverflowError:
        raise ValueError("a window start does not fit in 64 bits") from None
    except ValueError as exc:
        raise _bad_trace_cell(text) or exc from None
    starts.flags.writeable = values.flags.writeable = False  # handed over
    return ContentionTrace(int(starts[1] - starts[0]), starts, values)


def _bad_trace_cell(text: str) -> ValueError | None:
    """The error naming the first data line with a cell that is not a number.

    numpy parses the cells with int() and float(), so these find the same
    cells that the bulk conversion rejects.
    """
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    columns = (
        ("window_start_ms", int, "an integer"),
        ("avg_access_time_ms", float, "a number"),
    )
    for lineno, row in lines[1:]:
        for cell, (name, parse, kind) in zip(row.split(","), columns):
            try:
                parse(cell)
            except ValueError:
                return ValueError(f"line {lineno}: {name} must be {kind}, got {cell!r}")
    return None


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
