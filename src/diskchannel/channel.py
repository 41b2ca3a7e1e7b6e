"""Virtual-time model of a shared disk under contention.

The latency a probe observes grows with the number of concurrently
active accessor tasks: base + slope * k. Demand is piecewise constant:
it only changes at the edges of the sender's intervals (shifted by the
lead-in) and of the interferer's bursts. Between two such breakpoints
the capacity cap (demand above capacity_accessors queues up as backlog
and keeps the disk saturated after the demanders stop) follows a closed
form, so the served work at each raw read boundary comes out exactly, in
integers, without stepping through the run millisecond by millisecond.
That noiseless raw trace is the same for every seed; noise is overlaid
on it per seed, and the result is averaged into probing windows.

Two noise terms ride on each raw read: white Gaussian measurement noise
(noise_stddev_ms) and a slow mean-reverting baseline wander
(wander_stddev_ms with correlation time wander_time_ms) standing in for
background activity drifting over tens of seconds. Everything is
deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import WindowMismatch
from .sender import AccessSchedule

# Samples never drop below this fraction of the base latency.
CLAMP_FRACTION = 0.1

# noise preset name -> (noise_stddev_ms, wander_stddev_ms)
NOISE_PRESETS: dict[str, tuple[float, float]] = {
    "ideal": (0.0, 0.0),
    "moderate": (1.0, 0.7),
    "harsh": (4.0, 2.0),
}


@dataclass(frozen=True)
class DiskModel:
    base_latency_ms: float = 10.0
    contention_slope_ms: float = 2.0
    noise_stddev_ms: float = 0.0
    wander_stddev_ms: float = 0.0
    wander_time_ms: float = 30_000.0
    raw_sample_period_ms: int = 10
    capacity_accessors: int = 12

    def __post_init__(self) -> None:
        if self.base_latency_ms <= 0:
            raise ValueError("base_latency_ms must be positive")
        if self.contention_slope_ms < 0:
            raise ValueError("contention_slope_ms must be non-negative")
        if self.noise_stddev_ms < 0:
            raise ValueError("noise_stddev_ms must be non-negative")
        if self.wander_stddev_ms < 0:
            raise ValueError("wander_stddev_ms must be non-negative")
        if self.wander_time_ms <= 0:
            raise ValueError("wander_time_ms must be positive")
        if self.raw_sample_period_ms < 1:
            raise ValueError("raw_sample_period_ms must be >= 1")
        if self.capacity_accessors < 1:
            raise ValueError("capacity_accessors must be >= 1")

    @classmethod
    def preset(cls, name: str, **overrides) -> "DiskModel":
        """A model with the named noise preset applied."""
        try:
            noise, wander = NOISE_PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown noise preset {name!r}, pick one of {sorted(NOISE_PRESETS)}"
            ) from None
        return cls(noise_stddev_ms=noise, wander_stddev_ms=wander, **overrides)


@dataclass(frozen=True)
class InterfererProfile:
    """Background load sharing the disk, piecewise constant over time.

    kind 'none' is silence, 'benchmark' fires bursts of `load` accessors
    for burst_ms every period_ms, 'stress' keeps `load` accessors busy
    for the whole run.
    """

    kind: str = "none"
    load: int = 0
    period_ms: int = 10_000
    burst_ms: int = 2_000

    def __post_init__(self) -> None:
        if self.kind not in ("none", "benchmark", "stress"):
            raise ValueError(f"unknown interferer kind {self.kind!r}")
        if self.load < 0:
            raise ValueError("load must be non-negative")
        if self.kind == "benchmark" and not 0 < self.burst_ms <= self.period_ms:
            raise ValueError("benchmark needs 0 < burst_ms <= period_ms")

    @classmethod
    def none(cls) -> "InterfererProfile":
        return cls()

    @classmethod
    def benchmark(cls) -> "InterfererProfile":
        return cls(kind="benchmark", load=3, period_ms=10_000, burst_ms=2_000)

    @classmethod
    def stress(cls) -> "InterfererProfile":
        return cls(kind="stress", load=10)

    def active_accessors(self, t_ms: int) -> int:
        if self.kind == "stress":
            return self.load
        if self.kind == "benchmark":
            return self.load if (t_ms % self.period_ms) < self.burst_ms else 0
        return 0

    def demand_per_ms(self, run_ms: int) -> np.ndarray:
        if self.kind == "stress":
            return np.full(run_ms, self.load, dtype=np.int64)
        if self.kind == "benchmark":
            t = np.arange(run_ms, dtype=np.int64)
            return np.where((t % self.period_ms) < self.burst_ms, self.load, 0)
        return np.zeros(run_ms, dtype=np.int64)

    def demand_steps(self, run_ms: int) -> tuple[np.ndarray, np.ndarray]:
        """Times in [0, run_ms) where demand_per_ms changes, and by how much."""
        if self.kind == "stress":
            return np.array([0], dtype=np.int64), np.array([self.load], dtype=np.int64)
        if self.kind == "benchmark":
            on = np.arange(0, run_ms, self.period_ms, dtype=np.int64)
            off = on + self.burst_ms
            off = off[off < run_ms]
            steps = np.repeat(np.array([self.load, -self.load], dtype=np.int64),
                              (on.size, off.size))
            return np.concatenate((on, off)), steps
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty


@dataclass(frozen=True)
class ContentionTrace:
    """Averaged probe latencies, one value per probing window."""

    probe_interval_ms: int
    window_starts_ms: tuple[int, ...]
    values_ms: tuple[float, ...]

    def values(self) -> np.ndarray:
        return np.asarray(self.values_ms, dtype=np.float64)

    def to_csv(self) -> str:
        lines = ["window_start_ms,avg_access_time_ms"]
        for start, value in zip(self.window_starts_ms, self.values_ms):
            lines.append(f"{start},{value!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "ContentionTrace":
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
        values = np.array(cells[1::2], dtype=np.float64)
        try:
            starts = np.array(cells[0::2], dtype=np.int64)
        except OverflowError:
            raise ValueError("a window start does not fit in 64 bits") from None
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            value_s = cells[2 * bad[0] + 1].strip()
            raise ValueError(f"trace value {value_s!r} is not finite")
        pri = int(starts[1] - starts[0])
        if (np.diff(starts) != pri).any():
            raise ValueError("window starts are not evenly spaced")
        return cls(pri, tuple(starts.tolist()), tuple(values.tolist()))


def _baseline_wander(rng: np.random.Generator, n: int, disk: DiskModel) -> np.ndarray:
    """Stationary AR(1) wander sampled at the raw read period."""
    # Imported here, its only use, because importing scipy takes a second.
    from scipy.signal import lfilter

    rho = math.exp(-disk.raw_sample_period_ms / disk.wander_time_ms)
    start = disk.wander_stddev_ms * rng.standard_normal()
    innovations = rng.standard_normal(n)
    scale = disk.wander_stddev_ms * math.sqrt(1.0 - rho * rho)
    wander, _ = lfilter([scale], [1.0, -rho], innovations, zi=np.array([rho * start]))
    return wander


def whole_windows(span_ms: int, pri_ms: int) -> int:
    """Shortest run of whole pri_ms probing windows that covers span_ms."""
    if pri_ms < 1:
        raise WindowMismatch(f"pri_ms must be >= 1, got {pri_ms}")
    return -(-span_ms // pri_ms) * pri_ms


def _demand_segments(
    schedule: AccessSchedule,
    interferer: InterfererProfile,
    run_duration_ms: int,
    lead_in_ms: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Start time and demand of each constant-demand segment of the run.

    The first segment starts at 0; the last one ends at run_duration_ms.
    """
    times, steps = interferer.demand_steps(run_duration_ms)
    if schedule.intervals:
        edges = np.asarray(schedule.intervals, dtype=np.int64) + lead_in_ms
        n = schedule.n_accessors
        times = np.concatenate((times, edges[:, 0], edges[:, 1]))
        steps = np.concatenate(
            (steps, np.repeat(np.array([n, -n], dtype=np.int64), len(edges)))
        )
    times = np.concatenate((np.zeros(1, dtype=np.int64), times))
    steps = np.concatenate((np.zeros(1, dtype=np.int64), steps))
    inside = times < run_duration_ms
    starts, segment = np.unique(times[inside], return_inverse=True)
    change = np.zeros(starts.size, dtype=np.int64)
    np.add.at(change, segment, steps[inside])
    return starts, np.cumsum(change)


def noiseless_raw_trace(
    schedule: AccessSchedule,
    disk: DiskModel,
    interferer: InterfererProfile,
    pri_ms: int,
    run_duration_ms: int,
    lead_in_ms: int = 0,
) -> np.ndarray:
    """Mean latency of each raw read period of the run, before any noise.

    The schedule is shifted right by lead_in_ms; the interferer is anchored
    at virtual time zero. Windows of pri_ms must tile the run exactly.
    Within a segment of constant demand d starting with backlog B, the
    backlog after k ms is max(0, B + k (d - capacity)) and the work served
    is k d plus the backlog drained, so the served work at every raw read
    boundary follows from the segment it falls in. The result is read-only
    so that every trial of a run can share it.

    Raises:
        WindowMismatch: run_duration_ms is not a multiple of pri_ms, or
            pri_ms is not a multiple of the raw sample period.
        ValueError: the shifted schedule does not fit inside the run.
    """
    if pri_ms < 1:
        raise WindowMismatch(f"pri_ms must be >= 1, got {pri_ms}")
    if pri_ms % disk.raw_sample_period_ms != 0:
        raise WindowMismatch(
            f"pri_ms {pri_ms} is not a multiple of the raw sample period "
            f"{disk.raw_sample_period_ms}"
        )
    if run_duration_ms < pri_ms or run_duration_ms % pri_ms != 0:
        raise WindowMismatch(
            f"run duration {run_duration_ms} does not hold a whole number of "
            f"{pri_ms} ms windows"
        )
    if lead_in_ms < 0:
        raise ValueError("lead_in_ms must be non-negative")
    if any(not 0 <= start <= end for start, end in schedule.intervals):
        raise ValueError("schedule intervals must satisfy 0 <= start <= end")
    last_end = max((end for _, end in schedule.intervals), default=0)
    if lead_in_ms + last_end > run_duration_ms:
        raise ValueError(
            f"schedule ends at {lead_in_ms + last_end} ms, after the "
            f"{run_duration_ms} ms run"
        )

    starts, demand = _demand_segments(schedule, interferer, run_duration_ms, lead_in_ms)
    lengths = np.diff(starts, append=run_duration_ms)
    surplus = demand - disk.capacity_accessors
    # Cumulative demand and Lindley backlog at each segment start.
    arrived = np.concatenate(([0], np.cumsum(demand * lengths)[:-1]))
    drift = np.concatenate(([0], np.cumsum(surplus * lengths)[:-1]))
    backlog = drift - np.minimum.accumulate(drift)

    period = disk.raw_sample_period_ms
    edges = np.arange(0, run_duration_ms + 1, period, dtype=np.int64)
    seg = np.searchsorted(starts, edges, side="right") - 1
    into = edges - starts[seg]
    served = (
        arrived[seg]
        + demand[seg] * into
        - np.maximum(0, backlog[seg] + surplus[seg] * into)
    )
    # Same sum as averaging base + slope * load over each read, exact when
    # the latencies are integers as with the default model.
    work = np.diff(served)
    raw = (period * disk.base_latency_ms + disk.contention_slope_ms * work) / period
    raw.flags.writeable = False
    return raw


def overlay_noise(
    raw: np.ndarray, disk: DiskModel, pri_ms: int, seed: int = 0
) -> ContentionTrace:
    """Add one seed's noise to a noiseless raw trace and average into windows.

    The generator is drawn for the wander start, the wander innovations and
    then the white noise, in that order, skipping the terms the disk model
    sets to zero.
    """
    rng = np.random.default_rng(seed)
    noisy = raw
    if disk.wander_stddev_ms > 0:
        noisy = noisy + _baseline_wander(rng, raw.size, disk)
    if disk.noise_stddev_ms > 0:
        noisy = noisy + rng.normal(0.0, disk.noise_stddev_ms, raw.size)
    if disk.wander_stddev_ms > 0 or disk.noise_stddev_ms > 0:
        noisy = np.maximum(noisy, CLAMP_FRACTION * disk.base_latency_ms)

    per_window = pri_ms // disk.raw_sample_period_ms
    values = noisy.reshape(-1, per_window).mean(axis=1)
    starts = tuple(range(0, raw.size * disk.raw_sample_period_ms, pri_ms))
    return ContentionTrace(pri_ms, starts, tuple(values.tolist()))


def simulate(
    schedule: AccessSchedule,
    disk: DiskModel,
    interferer: InterfererProfile,
    pri_ms: int,
    run_duration_ms: int,
    lead_in_ms: int = 0,
    seed: int = 0,
) -> ContentionTrace:
    """Produce the receiver-side contention trace for one run.

    The noiseless raw trace of noiseless_raw_trace with the noise of
    overlay_noise on top; see those for the model and the errors raised.
    """
    raw = noiseless_raw_trace(
        schedule, disk, interferer, pri_ms, run_duration_ms, lead_in_ms
    )
    return overlay_noise(raw, disk, pri_ms, seed)


_DISK_KEYS = {
    "base_latency_ms": float,
    "contention_slope_ms": float,
    "noise_stddev_ms": float,
    "wander_stddev_ms": float,
    "wander_time_ms": float,
    "raw_sample_period_ms": int,
    "capacity_accessors": int,
}

_INTERFERER_KEYS = {
    "interferer.kind": str,
    "interferer.load": int,
    "interferer.period_ms": int,
    "interferer.burst_ms": int,
}


def parse_channel_config(text: str) -> tuple[DiskModel, InterfererProfile]:
    """Build a disk model and interferer from 'key = value' lines.

    Lines starting with '#' and blank lines are skipped. Unknown keys are
    rejected so typos do not silently fall back to defaults.
    """
    disk_kwargs: dict[str, object] = {}
    interferer_kwargs: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in _DISK_KEYS:
            disk_kwargs[key] = _DISK_KEYS[key](value)
        elif key in _INTERFERER_KEYS:
            interferer_kwargs[key.split(".", 1)[1]] = _INTERFERER_KEYS[key](value)
        else:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
    return DiskModel(**disk_kwargs), InterfererProfile(**interferer_kwargs)


def read_channel_config(path) -> tuple[DiskModel, InterfererProfile]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_channel_config(handle.read())
