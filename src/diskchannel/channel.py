"""Virtual-time model of a shared disk under contention.

The latency a probe observes grows with the number of concurrently
active accessor tasks: base + slope * k. Demand is piecewise constant:
it only changes at the edges of the sender's intervals (shifted by the
lead-in) and of the interferer's bursts. Between two such breakpoints
the capacity cap (demand above capacity_accessors queues up as backlog
and keeps the disk saturated after the demanders stop) follows a closed
form. The disk serves capacity_accessors per ms while a backlog is
queued and the demand otherwise, so each segment splits at most once,
where its backlog drains, into pieces of constant service rate. Raw
reads inside a piece repeat its latency; the few reads that hold a piece
start or a drain end (which can fall mid-millisecond) take their served
work from the closed form, exactly, in integers. The run is never
stepped through millisecond by millisecond, nor read by read in Python.
That noiseless raw trace is the same for every seed; noise is overlaid
on it per seed, and the result is averaged into probing windows of a
ContentionTrace, which holds read-only arrays.

Two noise terms ride on each raw read: white Gaussian measurement noise
(noise_stddev_ms) and a slow mean-reverting baseline wander
(wander_stddev_ms with correlation time wander_time_ms) standing in for
background activity drifting over tens of seconds. Everything is
deterministic per seed.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import warnings
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .errors import WindowMismatch
from .sender import AccessSchedule

# Samples never drop below this fraction of the base latency.
CLAMP_FRACTION = 0.1

# Raw reads whose noise overlay_noise draws at a time.
NOISE_CHUNK = 1 << 15

# Rows that to_csv formats at a time, and characters of text (rounded up to
# the end of a line) that from_csv hands loadtxt at a time.
CSV_WRITE_ROWS = 2048
CSV_READ_CHARS = 1 << 16

# noise preset name -> (noise_stddev_ms, wander_stddev_ms)
NOISE_PRESETS: dict[str, tuple[float, float]] = {
    "ideal": (0.0, 0.0),
    "moderate": (1.0, 0.7),
    "harsh": (4.0, 2.0),
}

INTERFERER_KINDS = ("none", "benchmark", "stress")


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
        # A NaN passes every comparison below, so reject it (and inf) first.
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
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
        if self.kind not in INTERFERER_KINDS:
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

    def demand_per_ms(self, run_ms: int) -> np.ndarray:
        """Background accessors for each ms of [0, run_ms), from demand_steps."""
        change = np.zeros(run_ms, dtype=np.int64)
        np.add.at(change, *self.demand_steps(run_ms))
        return np.cumsum(change)

    def demand_steps(self, run_ms: int) -> tuple[np.ndarray, np.ndarray]:
        """Times in [0, run_ms) where the demand changes, and by how much."""
        if self.kind == "stress":
            on = np.arange(min(run_ms, 1), dtype=np.int64)
            return on, np.full(on.size, self.load, dtype=np.int64)
        if self.kind == "benchmark":
            on = np.arange(0, run_ms, self.period_ms, dtype=np.int64)
            off = on + self.burst_ms
            off = off[off < run_ms]
            steps = np.repeat(np.array([self.load, -self.load], dtype=np.int64),
                              (on.size, off.size))
            return np.concatenate((on, off)), steps
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty


@dataclass(frozen=True, eq=False)
class ContentionTrace:
    """Averaged probe latencies, one value per probing window.

    It holds read-only int64 window starts and float64 values, copied from
    the sequences it is built from unless those already are read-only
    arrays of that type. Two traces are equal when their probe interval,
    starts and values are; a trace cannot be hashed. Every trace is
    checked here, from the simulator or a CSV file alike: one start per
    value, finite values, and starts that rise by probe_interval_ms.
    """

    probe_interval_ms: int
    window_starts_ms: np.ndarray
    values_ms: np.ndarray

    def __post_init__(self) -> None:
        starts = _read_only(self.window_starts_ms, np.int64)
        values = _read_only(self.values_ms, np.float64)
        object.__setattr__(self, "window_starts_ms", starts)
        object.__setattr__(self, "values_ms", values)
        if starts.ndim != 1 or starts.shape != values.shape:
            raise ValueError(
                f"a trace needs one window start per value, got {starts.size} "
                f"starts and {values.size} values"
            )
        finite = np.isfinite(values)
        if not finite.all():
            bad = np.argmin(finite)
            raise ValueError(
                f"trace value {values[bad]} at window start {starts[bad]} is not finite"
            )
        steps = np.diff(starts)
        if (steps < 1).any():
            raise ValueError("window starts do not rise")
        if self.probe_interval_ms < 1:
            raise ValueError(
                f"probe_interval_ms must be >= 1, got {self.probe_interval_ms}"
            )
        if (steps != self.probe_interval_ms).any():
            raise ValueError(
                f"window starts are not evenly spaced {self.probe_interval_ms} ms apart"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContentionTrace):
            return NotImplemented
        return (
            self.probe_interval_ms == other.probe_interval_ms
            and np.array_equal(self.window_starts_ms, other.window_starts_ms)
            and np.array_equal(self.values_ms, other.values_ms)
        )

    def values(self) -> np.ndarray:
        return self.values_ms

    def to_csv(self) -> str:
        """The trace as CSV text, formatted CSV_WRITE_ROWS rows at a time.

        Only one block's rows are Python objects at any moment, so the
        call holds about twice the text, not one object per row.
        """
        blocks = [_CSV_HEADER + "\n"]
        for i in range(0, self.values_ms.size, CSV_WRITE_ROWS):
            starts = self.window_starts_ms[i : i + CSV_WRITE_ROWS].tolist()
            values = self.values_ms[i : i + CSV_WRITE_ROWS].tolist()
            blocks.append("".join([f"{s},{v!r}\n" for s, v in zip(starts, values)]))
        return "".join(blocks)

    @classmethod
    def from_csv(cls, text: str) -> "ContentionTrace":
        """Parse to_csv's output; the window spacing is the probe interval.

        Blank lines are skipped and cells may have whitespace around them;
        a cell that is not a number names its line. numpy's loadtxt reads
        the rows a piece of text at a time (_csv_table). It accepts only
        cells that int() and float() accept, save that it takes \\x1f for
        whitespace (so text holding one skips it), and it rounds as they
        do. numpy 1.x also reads an integer field like '100.9' through a
        float, with a DeprecationWarning; raised as an error, it refuses
        the rows. Text it refuses goes through _trace_columns whole, which
        accepts the rest and names the first fault.
        """
        table = None if "\x1f" in text else _csv_table(text)
        if table is None:
            lines = [line for line in text.splitlines() if line.strip()]
            if not lines or lines[0] != _CSV_HEADER:
                raise ValueError("missing trace CSV header")
            starts, values = _trace_columns(lines[1:], text)
        else:
            table.flags.writeable = False  # its columns are handed over
            starts, values = table["start"], table["value"]
        step = int(starts[1]) - int(starts[0])  # in Python: it may not fit in int64
        return cls(step, starts, values)


_CSV_HEADER = "window_start_ms,avg_access_time_ms"
_CSV_ROW = np.dtype([("start", np.int64), ("value", np.float64)])


def _csv_table(text: str) -> np.ndarray | None:
    """The data rows read by loadtxt one piece of text at a time, or None.

    Each piece ends just after a '\\n', so no line that splitlines() keeps
    whole is split, "\\r\\n" included, and the pieces' non-blank lines are
    the text's. loadtxt reads each line on its own, so it refuses a piece
    exactly when it would refuse all rows at once. None means the header
    is missing, a piece is refused or there are under two rows: the caller
    then reads the text whole, which names the fault.
    """
    tables = []
    seen_header = False
    start = 0
    while start < len(text):
        end = text.find("\n", start + CSV_READ_CHARS - 1) + 1 or len(text)
        rows = [line for line in text[start:end].splitlines() if line.strip()]
        start = end
        if rows and not seen_header:
            if rows[0] != _CSV_HEADER:
                return None
            seen_header, rows = True, rows[1:]
        if rows:  # loadtxt warns on no rows
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DeprecationWarning)
                    tables.append(np.loadtxt(
                        rows, delimiter=",", dtype=_CSV_ROW, comments=None, ndmin=1
                    ))
            except (ValueError, DeprecationWarning):
                return None
    if sum(map(len, tables)) < 2:
        return None
    return np.concatenate(tables)


def _trace_columns(rows: list[str], text: str) -> tuple[np.ndarray, np.ndarray]:
    """Starts and values of the data rows, cell by cell, or the first fault."""
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
    return starts, values


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


def _read_only(data, dtype) -> np.ndarray:
    """data as a read-only array: a copy, unless it already is one."""
    array = np.asarray(data, dtype=dtype)
    if array.flags.writeable:
        array = array.copy()
        array.flags.writeable = False
    return array


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
    times, steps = times[inside], steps[inside]
    # A sorted dedupe rather than np.unique, which on numpy >= 2 imports all
    # of numpy.ma. Times are >= 0 and 0 is one of them.
    order = np.argsort(times, kind="stable")
    times, steps = times[order], steps[order]
    first = np.flatnonzero(np.diff(times, prepend=-1))
    return times[first], np.cumsum(np.add.reduceat(steps, first))


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
    is k d plus the backlog drained. Served work therefore rises at
    capacity per ms while B + k (d - capacity) > 0 and at d afterwards: a
    segment is one piece of constant rate, or two when its backlog drains
    at B / (capacity - d) ms, before it ends. Each read inside one piece
    gets that piece's latency by np.repeat, from the same expression as a
    read evaluated on its own, so the value is bit-identical. A read that
    holds a piece start or a drain end gets the closed form's served work
    at its two edges. The result is read-only so that every trial of a
    run can share it.

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
    capacity = disk.capacity_accessors
    surplus = demand - capacity
    # Cumulative demand and Lindley backlog at each segment start.
    arrived = np.concatenate(([0], np.cumsum(demand * lengths)[:-1]))
    drift = np.concatenate(([0], np.cumsum(surplus * lengths)[:-1]))
    backlog = drift - np.minimum.accumulate(drift)

    # Served rate from each segment start, and the segments whose backlog
    # drains before they end, from which on the rate is the demand.
    rate = np.where(backlog > 0, capacity, np.minimum(demand, capacity))
    drains = (backlog > 0) & (surplus < 0) & (backlog < -surplus * lengths)
    spare = np.where(drains, -surplus, 1)
    period = disk.raw_sample_period_ms
    # Pieces in time order: each segment start, then its drain end if any,
    # and the read holding each: floor(start / period), in integers.
    piece = np.column_stack((np.ones_like(drains), drains))
    piece_read = np.column_stack(
        (starts // period, (starts * spare + backlog) // (spare * period))
    )[piece]
    piece_rate = np.column_stack((rate, demand))[piece]

    def latency(work: np.ndarray) -> np.ndarray:
        # Same sum as averaging base + slope * load over each read, exact
        # when the latencies are integers as with the default model.
        slope = disk.contention_slope_ms
        return (period * disk.base_latency_ms + slope * work) / period

    n_reads = run_duration_ms // period
    raw = np.repeat(latency(piece_rate * period), np.diff(piece_read, append=n_reads))
    # A read holding a piece start or a drain end mixes two rates; its work
    # comes from the closed form at its two edges. piece_read does not fall,
    # as a drain end lies inside its segment, so the first of each run of
    # equal reads lists each mixed read once.
    mixed = piece_read[np.diff(piece_read, prepend=-1) != 0]
    edges = np.concatenate((mixed, mixed + 1)) * period
    seg = np.searchsorted(starts, edges, side="right") - 1
    into = edges - starts[seg]
    served = (
        arrived[seg]
        + demand[seg] * into
        - np.maximum(0, backlog[seg] + surplus[seg] * into)
    )
    raw[mixed] = latency(served[mixed.size :] - served[: mixed.size])
    raw.flags.writeable = False
    return raw


# scipy's compiled linear filter, loaded by _linear_filter on first use.
_linear_filter_fn = None
_linear_filter_lock = threading.Lock()


def _load_linear_filter():
    """Load scipy.signal's compiled extension alone and return its filter.

    Importing scipy.signal imports most of scipy (1.3-1.7 s and ~65 MB with
    scipy 1.17 on a 2-vCPU VM) for the one routine lfilter hands a filter
    with len(a) > 1 to. The top-level package is cheap, since its
    subpackages load lazily, and tells where the extension file is. That
    file is loaded under its real name, whose sys.modules entry is then
    taken out again: a later import of scipy.signal builds the package
    whole and finds the same function. A module already imported under
    that name is used as it is.
    """
    import importlib.machinery
    import importlib.util

    import scipy

    name = "scipy.signal._sigtools"
    module = sys.modules.get(name)
    if module is None:
        stem = os.path.join(os.path.dirname(scipy.__file__), "signal", "_sigtools")
        suffixes = importlib.machinery.EXTENSION_SUFFIXES
        path = next((stem + s for s in suffixes if os.path.isfile(stem + s)), None)
        if path is None:
            raise ImportError(
                f"no extension file {stem}<suffix> for a suffix in {suffixes}",
                name=name, path=stem,
            )
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        try:
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(name, path, loader=loader)
            )
            loader.exec_module(module)
        finally:
            sys.modules.pop(name, None)
    return module._linear_filter


def _linear_filter():
    """scipy's _linear_filter(b, a, x, axis, zi), loaded once per process.

    The lock keeps trials that start together in run_ber's pool from
    loading it twice; once it is loaded no call takes the lock.
    """
    global _linear_filter_fn
    if _linear_filter_fn is None:
        with _linear_filter_lock:
            if _linear_filter_fn is None:
                _linear_filter_fn = _load_linear_filter()
    return _linear_filter_fn


def overlay_noise(
    raw: np.ndarray, disk: DiskModel, pri_ms: int, seed: int = 0
) -> ContentionTrace:
    """Add one seed's noise to a noiseless raw trace and average into windows.

    The generator is drawn for the wander start, the wander innovations and
    then the white noise, in that order, skipping the terms the disk model
    sets to zero. Each term is drawn NOISE_CHUNK reads at a time into one
    reused buffer and added into one copy of raw, so a trial holds one trace
    plus a chunk or two. A stream drawn in chunks holds the same numbers as
    one drawn whole, and the wander filter carries its state across chunks,
    so the trace is the same bit for bit as with whole draws.
    """
    noisy = raw
    if disk.wander_stddev_ms > 0 or disk.noise_stddev_ms > 0:
        rng = np.random.default_rng(seed)
        noisy = raw.copy()
        parts = [noisy[i : i + NOISE_CHUNK] for i in range(0, noisy.size, NOISE_CHUNK)]
        draws = np.empty(min(NOISE_CHUNK, noisy.size))
        if disk.wander_stddev_ms > 0:
            # Stationary AR(1) wander sampled at the raw read period, through
            # the compiled routine and arguments scipy.signal.lfilter uses.
            linear_filter = _linear_filter()
            rho = math.exp(-disk.raw_sample_period_ms / disk.wander_time_ms)
            b = np.array([disk.wander_stddev_ms * math.sqrt(1.0 - rho * rho)])
            a = np.array([1.0, -rho])
            state = np.array([rho * (disk.wander_stddev_ms * rng.standard_normal())])
            for part in parts:
                innovations = rng.standard_normal(out=draws[: part.size])
                wander, state = linear_filter(b, a, innovations, -1, state)
                part += wander
        if disk.noise_stddev_ms > 0:
            for part in parts:
                white = rng.standard_normal(out=draws[: part.size])
                white *= disk.noise_stddev_ms
                part += white
        np.maximum(noisy, CLAMP_FRACTION * disk.base_latency_ms, out=noisy)

    per_window = pri_ms // disk.raw_sample_period_ms
    values = noisy.reshape(-1, per_window).mean(axis=1)
    starts = np.arange(0, raw.size * disk.raw_sample_period_ms, pri_ms, dtype=np.int64)
    starts.flags.writeable = values.flags.writeable = False  # handed over
    return ContentionTrace(pri_ms, starts, values)


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


# Config key -> (model class, field); a value converts to its default's type.
_CONFIG_FIELDS = {
    prefix + f.name: (cls, f)
    for prefix, cls in (("", DiskModel), ("interferer.", InterfererProfile))
    for f in fields(cls)
}


def parse_channel_config(text: str) -> tuple[DiskModel, InterfererProfile]:
    """Build a disk model and interferer from 'key = value' lines.

    Lines starting with '#' and blank lines are skipped. Unknown keys are
    rejected so typos do not silently fall back to defaults.
    """
    kwargs: dict[type, dict[str, object]] = {DiskModel: {}, InterfererProfile: {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        cls, field = _CONFIG_FIELDS[key]
        convert = type(field.default)
        try:
            kwargs[cls][field.name] = convert(value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: {key} takes a {convert.__name__}, got {value!r}"
            ) from None
    return DiskModel(**kwargs[DiskModel]), InterfererProfile(**kwargs[InterfererProfile])
