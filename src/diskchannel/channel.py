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
That noiseless raw trace is the same for every seed and is kept as runs
of equal reads; each seed expands the runs into a buffer of its own,
overlays its noise there in place, and averages the result into probing
windows of a ContentionTrace, which holds read-only arrays.

Two noise terms ride on each raw read: white Gaussian measurement noise
(noise_stddev_ms) and a slow mean-reverting baseline wander
(wander_stddev_ms with correlation time wander_time_ms) standing in for
background activity drifting over tens of seconds. Everything is
deterministic per seed.
"""

from __future__ import annotations

import math
import os
import re
import sys
import threading
import warnings
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Iterator

import numpy as np

from .errors import WindowMismatch
from .sender import AccessSchedule

# Samples never drop below this fraction of the base latency.
CLAMP_FRACTION = 0.1

# Raw reads whose noise noisy_windows draws at a time.
NOISE_CHUNK = 1 << 13

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

    def csv_blocks(self) -> Iterator[str]:
        """The trace as CSV text: the header, then CSV_WRITE_ROWS rows a block.

        Only one block's rows are Python objects at any moment, so a caller
        that writes each block out holds about one block, not the text.
        """
        yield _CSV_HEADER + "\n"
        for i in range(0, self.values_ms.size, CSV_WRITE_ROWS):
            starts = self.window_starts_ms[i : i + CSV_WRITE_ROWS].tolist()
            values = self.values_ms[i : i + CSV_WRITE_ROWS].tolist()
            yield "".join([f"{s},{v!r}\n" for s, v in zip(starts, values)])

    def to_csv(self) -> str:
        """The blocks of csv_blocks() joined: about twice the text at peak."""
        return "".join(self.csv_blocks())

    @classmethod
    def from_csv(cls, text: str) -> "ContentionTrace":
        """Parse to_csv's output; the window spacing is the probe interval.

        Blank lines are skipped and cells may have whitespace around them;
        a cell that is not a number names its line. The text is read a
        piece at a time (_csv_table). numpy's loadtxt reads a piece's rows:
        it accepts only cells that int() and float() accept, save that it
        takes \\x1f for whitespace, and it rounds as they do. numpy 1.x also
        reads an integer field like '100.9' through a float, with a
        DeprecationWarning; raised as an error, it refuses the piece. A
        piece that loadtxt refuses, or that holds \\x1f, is read cell by
        cell with int() and float() (_cell_table).

        Faults come in the order a read of the whole text finds them: a
        missing header, or a row that does not hold two cells, at once; then
        under two rows; then, if any value is not a number, the first line
        with a cell that is not a number; otherwise the first bad start,
        either one beyond 64 bits or a line whose start is not an integer.
        """
        table = _csv_table(text)
        table.flags.writeable = False  # its columns are handed over
        starts, values = table["start"], table["value"]
        step = int(starts[1]) - int(starts[0])  # in Python: it may not fit in int64
        return cls(step, starts, values)


_CSV_HEADER = "window_start_ms,avg_access_time_ms"
_CSV_ROW = np.dtype([("start", np.int64), ("value", np.float64)])
_CSV_COLUMNS = (
    ("start", "window_start_ms", int, "an integer"),
    ("value", "avg_access_time_ms", float, "a number"),
)
_LINE_END = re.compile("\r(?!\n)|\n")


def _csv_table(text: str) -> np.ndarray:
    """The data rows, read one piece of text at a time, or the first fault.

    Each piece ends just after a '\\n', or a '\\r' that no '\\n' follows, so
    no line that splitlines() keeps whole is split, "\\r\\n" included, and
    the pieces' lines are the text's. loadtxt reads each line on its own,
    so it refuses a piece exactly when it would refuse all rows at once.
    Faults found cell by cell wait until every piece is read, since a later
    row that does not hold two cells, or too few rows, comes first.
    """
    tables, faults = [], {}
    seen_header, start, lineno = False, 0, 1
    while start < len(text):
        line_end = _LINE_END.search(text, start + CSV_READ_CHARS - 1)
        end = line_end.end() if line_end else len(text)
        lines = text[start:end].splitlines()
        rows = [line for line in lines if line.strip()]
        if rows and not seen_header:
            if rows[0] != _CSV_HEADER:
                raise ValueError("missing trace CSV header")
            seen_header, rows = True, rows[1:]
        if rows:  # loadtxt warns on no rows
            try:
                if text.find("\x1f", start, end) != -1:  # whitespace to loadtxt only
                    raise ValueError
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DeprecationWarning)
                    tables.append(np.loadtxt(
                        rows, delimiter=",", dtype=_CSV_ROW, comments=None, ndmin=1
                    ))
            except (ValueError, DeprecationWarning):
                numbers = [n for n, line in enumerate(lines, lineno) if line.strip()]
                tables.append(_cell_table(rows, numbers[-len(rows) :], faults))
        start, lineno = end, lineno + len(lines)
    if not seen_header:
        raise ValueError("missing trace CSV header")
    if sum(map(len, tables)) < 2:
        raise ValueError("trace needs at least two windows")
    if faults:  # a bad value names the first bad line, ahead of any overflow
        kinds = [kind for kind in faults if kind != "overflow" or "value" not in faults]
        raise ValueError(faults[kinds[0]])
    return np.concatenate(tables)


def _cell_table(rows: list[str], numbers: list[int], faults: dict) -> np.ndarray:
    """A piece's data rows, on the given line numbers, read with int() and float().

    A row that does not hold two cells raises at once. Otherwise each cell
    is read on its own, and faults keeps, in text order, the first message
    of each kind: 'start' or 'value' for a cell that int() or float()
    refuses, 'overflow' for a start beyond 64 bits.
    """
    if set(map(str.count, rows, repeat(","))) - {1}:
        row = next(row for row in rows if row.count(",") != 1)
        raise ValueError(f"trace row {row!r} does not hold two cells")
    cells = ",".join(rows).split(",")  # start, value, start, value, ...
    table = np.zeros(len(rows), _CSV_ROW)
    for n, cell in enumerate(cells):
        row, (field, name, parse, kind) = n // 2, _CSV_COLUMNS[n % 2]
        try:
            table[field][row] = parse(cell)
        except ValueError:
            message = f"line {numbers[row]}: {name} must be {kind}, got {cell!r}"
            faults.setdefault(field, message)
        except OverflowError:
            faults.setdefault("overflow", "a window start does not fit in 64 bits")
    return table


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
    edges = np.asarray(schedule.intervals, dtype=np.int64).reshape(-1, 2) + lead_in_ms
    n, zero = schedule.n_accessors, np.zeros(1, dtype=np.int64)
    times = np.concatenate((zero, times, edges[:, 0], edges[:, 1]))
    steps = np.concatenate(
        (zero, steps, np.repeat(np.array([n, -n], dtype=np.int64), len(edges)))
    )
    inside = times < run_duration_ms
    times, steps = times[inside], steps[inside]
    # A sorted dedupe rather than np.unique, which on numpy >= 2 imports all
    # of numpy.ma. Times are >= 0 and 0 is one of them.
    order = np.argsort(times, kind="stable")
    times, steps = times[order], steps[order]
    first = np.flatnonzero(np.diff(times, prepend=-1))
    return times[first], np.cumsum(np.add.reduceat(steps, first))


def noiseless_runs(
    schedule: AccessSchedule,
    disk: DiskModel,
    interferer: InterfererProfile,
    pri_ms: int,
    run_duration_ms: int,
    lead_in_ms: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean latency of each raw read period of the run before any noise, as runs.

    The schedule is shifted right by lead_in_ms; the interferer is anchored
    at virtual time zero. Windows of pri_ms must tile the run exactly.
    Within a segment of constant demand d starting with backlog B, the
    backlog after k ms is max(0, B + k (d - capacity)) and the work served
    is k d plus the backlog drained. Served work therefore rises at
    capacity per ms while B + k (d - capacity) > 0 and at d afterwards: a
    segment is one piece of constant rate, or two when its backlog drains
    at B / (capacity - d) ms, before it ends. Each read inside one piece
    gets that piece's latency, from the same expression as a read evaluated
    on its own, so the value is bit-identical. A read that holds a piece
    start or a drain end gets the closed form's served work at its two
    edges.

    The trace comes as two read-only arrays, latencies and how many reads
    repeat each, and np.repeat of the two is the trace. The runs alternate:
    a read that holds a piece start or a drain end, with its closed-form
    latency, then the rest of the last piece that starts in that read
    (maybe no reads). There are a few runs per demand segment, where the
    trace has one value per raw read, so a caller that draws noise per
    seed can keep the runs and expand them into each trial's own buffer.

    Raises:
        WindowMismatch: run_duration_ms is not a multiple of pri_ms, or
            pri_ms is not a multiple of the raw sample period.
        ValueError: the shifted schedule does not fit inside the run, or
            the run's counts and spans of ms overflow 64-bit integers.
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
    # Demand peaks at the interferer load plus n_accessors per interval
    # (intervals may overlap). Every int64 below is at most (capacity + that
    # peak) x run_duration_ms in size, apart from the benchmark bursts' ends,
    # each under run_duration_ms + burst_ms.
    int64_max = np.iinfo(np.int64).max
    peak = interferer.load + schedule.n_accessors * len(schedule.intervals)
    if (disk.capacity_accessors + peak) * run_duration_ms > int64_max:
        raise ValueError(
            f"capacity_accessors {disk.capacity_accessors}, interferer load "
            f"{interferer.load} and {len(schedule.intervals)} intervals of "
            f"{schedule.n_accessors} accessors over a {run_duration_ms} ms run "
            "overflow 64-bit integers"
        )
    if run_duration_ms + interferer.burst_ms > int64_max:
        raise ValueError(
            f"interferer burst_ms {interferer.burst_ms} after a {run_duration_ms} ms "
            "run overflows 64-bit integers"
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

    # A read holding a piece start or a drain end mixes two rates; its work
    # comes from the closed form at its two edges. piece_read does not fall,
    # as a drain end lies inside its segment, so the first of each run of
    # equal reads lists each mixed read once, and the last piece of the run
    # fills the reads up to the next mixed one.
    first = np.flatnonzero(np.diff(piece_read, prepend=-1))
    last = np.append(first[1:], piece_read.size) - 1
    mixed = piece_read[first]
    edges = np.concatenate((mixed, mixed + 1)) * period
    seg = np.searchsorted(starts, edges, side="right") - 1
    into = edges - starts[seg]
    served = (
        arrived[seg]
        + demand[seg] * into
        - np.maximum(0, backlog[seg] + surplus[seg] * into)
    )
    mixed_latency = latency(served[mixed.size :] - served[: mixed.size])
    rest = np.diff(mixed, append=run_duration_ms // period) - 1
    latencies = np.column_stack((mixed_latency, latency(piece_rate[last] * period)))
    counts = np.column_stack((np.ones_like(rest), rest))
    runs = latencies.ravel(), counts.ravel()
    for array in runs:
        array.flags.writeable = False  # every trial of a run_ber reads them
    return runs


# scipy's compiled linear filter, loaded by _linear_filter on first use.
_linear_filter_fn = None
_linear_filter_lock = threading.Lock()


def _load_linear_filter():
    """Load scipy.signal's compiled extension alone and return its filter.

    Importing scipy.signal imports most of scipy (1.3-1.7 s and ~65 MB with
    scipy 1.17 on a 2-vCPU VM) for the one routine lfilter hands a filter
    with len(a) > 1 to. scipy's import spec tells where the extension file
    is without running scipy/__init__ (0.1 ms, against ~14 ms to import
    scipy). Only if the file is missing there or fails to load is scipy
    imported and the load tried again, since its __init__ prepares what
    the extension needs on some platforms (the DLL directory of Windows
    wheels). A module already imported under that name is used as it is.
    """
    import importlib.util

    name = "scipy.signal._sigtools"
    module = sys.modules.get(name)
    if module is None:
        try:
            module = _load_extension(name, importlib.util.find_spec("scipy"))
        except ImportError:
            import scipy

            module = _load_extension(name, scipy.__spec__)
    return module._linear_filter


def _load_extension(name: str, package):
    """The extension module name, loaded from its file alone.

    package is the import spec of the top-level package that holds the
    file, or None if it is not installed. The module is loaded under its
    real name, whose sys.modules entry is then taken out again: a later
    import of name builds its parent packages whole and finds the same
    functions.
    """
    import importlib.machinery
    import importlib.util

    if package is None:
        raise ImportError(f"{name}: its package is not installed", name=name)
    stem = os.path.join(package.submodule_search_locations[0], *name.split(".")[1:])
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
    return module


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


def noisy_windows(
    runs: tuple[np.ndarray, np.ndarray], disk: DiskModel, pri_ms: int, seed: int = 0
) -> ContentionTrace:
    """Add one seed's noise to a noiseless trace and average into windows.

    The runs, as noiseless_runs gives them, are expanded into a buffer of
    the call's own, which takes the noise in place. The generator is drawn
    for the wander start, the wander innovations and then the white noise,
    in that order, skipping the terms the disk model sets to zero. Each
    term is drawn NOISE_CHUNK reads at a time into one reused buffer and
    added into the reads, so a trial holds its trace plus a chunk or two. A
    stream drawn in chunks holds the same numbers as one drawn whole, and
    the wander filter carries its state across chunks, so the trace is the
    same bit for bit as with whole draws.
    """
    reads = np.repeat(*runs)
    if disk.wander_stddev_ms > 0 or disk.noise_stddev_ms > 0:
        rng = np.random.default_rng(seed)
        parts = [reads[i : i + NOISE_CHUNK] for i in range(0, reads.size, NOISE_CHUNK)]
        draws = np.empty(min(NOISE_CHUNK, reads.size))
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
                del wander  # so two chunks' outputs are never alive at once
        if disk.noise_stddev_ms > 0:
            for part in parts:
                white = rng.standard_normal(out=draws[: part.size])
                white *= disk.noise_stddev_ms
                part += white
        np.maximum(reads, CLAMP_FRACTION * disk.base_latency_ms, out=reads)

    per_window = pri_ms // disk.raw_sample_period_ms
    values = reads.reshape(-1, per_window).mean(axis=1)
    run_ms = reads.size * disk.raw_sample_period_ms
    starts = np.arange(0, run_ms, pri_ms, dtype=np.int64)
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

    The noiseless trace of noiseless_runs with the noise of noisy_windows
    on top; see those for the model and the errors raised.
    """
    return noisy_windows(
        noiseless_runs(schedule, disk, interferer, pri_ms, run_duration_ms, lead_in_ms),
        disk, pri_ms, seed,
    )


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
