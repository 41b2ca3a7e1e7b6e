import hashlib
import importlib.machinery
import re
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diskchannel import (
    NOISE_PRESETS,
    AccessSchedule,
    ContentionTrace,
    DiskModel,
    InterfererProfile,
    SenderConfig,
    WindowMismatch,
    build_access_schedule,
    encode_tcv,
    parse_channel_config,
    simulate,
)
from diskchannel.channel import (
    CLAMP_FRACTION,
    CSV_READ_CHARS,
    CSV_WRITE_ROWS,
    NOISE_CHUNK,
    _load_linear_filter,
    noiseless_runs,
    noisy_windows,
)
from oracles import (
    active_accessors,
    noiseless_trace_loop,
    noisy_windows_whole,
    to_csv_loop,
    trace_csv_loop,
)


def make_schedule(bits, bit_time=100, n=5, th=0.9):
    config = SenderConfig(bit_time, n, th)
    return build_access_schedule(encode_tcv(bits, bit_time), config)


# --- capacity / backlog ---


def served_per_ms(intervals, n, capacity, run_ms):
    """Work the disk serves in each ms: raw reads of 1 ms, inverted to load."""
    schedule = AccessSchedule(intervals, n, run_ms)
    disk = DiskModel(raw_sample_period_ms=1, capacity_accessors=capacity)
    runs = noiseless_runs(schedule, disk, InterfererProfile.none(), 1, run_ms)
    raw = np.repeat(*runs)
    return ((raw - disk.base_latency_ms) / disk.contention_slope_ms).tolist()


def test_noiseless_trace_spills_overload_into_idle_time():
    # 3 ms of demand 20 against capacity 12 leaves 24 queued units that
    # drain at full rate over the following 2 ms
    served = served_per_ms(((0, 3),), 20, 12, 6)
    assert served == [12, 12, 12, 12, 12, 0]


def test_noiseless_trace_conserves_work():
    served = served_per_ms(((1, 3),), 25, 12, 7)
    assert sum(served) == 50
    assert max(served) <= 12


# --- interferers ---


@pytest.mark.parametrize("profile", [
    InterfererProfile.none(),
    InterfererProfile.benchmark(),
    InterfererProfile.stress(),
])
def test_interferer_demand_matches_pointwise_definition(profile):
    demand = profile.demand_per_ms(25_000)
    expect = [active_accessors(profile, t) for t in range(25_000)]
    assert demand.tolist() == expect


def test_benchmark_interferer_duty_cycle():
    profile = InterfererProfile.benchmark()
    demand = profile.demand_per_ms(20_000)
    assert demand[:2000].min() == profile.load
    assert demand[2000:10_000].max() == 0
    assert demand[10_000:12_000].min() == profile.load


def test_interferer_validation():
    with pytest.raises(ValueError):
        InterfererProfile(kind="flood")
    with pytest.raises(ValueError):
        InterfererProfile(kind="benchmark", load=3, period_ms=100, burst_ms=200)


# --- the simulator against the per-ms oracle ---


def test_noiseless_simulation_matches_loop_oracle():
    schedule = make_schedule((1, 0, 1, 1, 0, 0, 1, 0), bit_time=200, n=5)
    disk = DiskModel()
    interferer = InterfererProfile.benchmark()
    trace = simulate(schedule, disk, interferer, 200, 2400, lead_in_ms=300, seed=4)
    oracle = noiseless_trace_loop(schedule, disk, interferer, 200, 2400, 300)
    assert list(trace.values_ms) == pytest.approx(oracle, rel=0, abs=1e-9)
    assert trace.window_starts_ms.tolist() == list(range(0, 2400, 200))


def test_noiseless_simulation_matches_loop_oracle_under_overload():
    schedule = make_schedule((1, 1, 1, 0, 0, 0), bit_time=100, n=16)
    disk = DiskModel()
    trace = simulate(schedule, disk, InterfererProfile.none(), 100, 800, seed=0)
    oracle = noiseless_trace_loop(
        schedule, disk, InterfererProfile.none(), 100, 800
    )
    assert list(trace.values_ms) == pytest.approx(oracle, rel=0, abs=1e-9)


@st.composite
def channel_runs(draw):
    """A small run: random intervals, lead-in, disk and interferer."""
    period = draw(st.sampled_from((1, 5, 10)))
    pri = period * draw(st.integers(1, 4))
    run_ms = pri * draw(st.integers(1, 40))
    lead_in = draw(st.integers(0, run_ms))
    span = run_ms - lead_in
    # arbitrary, possibly overlapping or empty, intervals inside the span
    intervals = draw(st.lists(
        st.tuples(st.integers(0, span), st.integers(0, span)).map(sorted).map(tuple),
        max_size=8,
    ))
    n = draw(st.integers(1, 16))
    schedule = AccessSchedule(tuple(intervals), n, span)
    disk = DiskModel(
        raw_sample_period_ms=period, capacity_accessors=draw(st.integers(1, 16))
    )
    kind = draw(st.sampled_from(("none", "benchmark", "stress")))
    if kind == "benchmark":
        period_ms = draw(st.integers(1, run_ms + 50))
        interferer = InterfererProfile(
            kind, draw(st.integers(0, 16)), period_ms, draw(st.integers(1, period_ms))
        )
    else:
        interferer = InterfererProfile(kind, draw(st.integers(0, 16)))
    return schedule, disk, interferer, pri, run_ms, lead_in


@settings(max_examples=200, deadline=None)
@given(channel_runs())
def test_noiseless_simulation_matches_loop_oracle_on_random_runs(run):
    schedule, disk, interferer, pri, run_ms, lead_in = run
    trace = simulate(schedule, disk, interferer, pri, run_ms, lead_in, seed=3)
    oracle = noiseless_trace_loop(schedule, disk, interferer, pri, run_ms, lead_in)
    assert list(trace.values_ms) == pytest.approx(oracle, rel=0, abs=1e-9)


# The largest capacity + stress load that a 1000 ms run with two intervals of
# 5 accessors keeps inside int64: (capacity + load + 10) x 1000 <= 2**63 - 1.
LARGEST_SUM = (2**63 - 1) // 1000 - 10


@pytest.mark.parametrize("capacity, load", [
    (12, LARGEST_SUM - 12), (LARGEST_SUM - 10, 10),
], ids=["load", "capacity"])
def test_the_largest_stress_load_and_capacity_match_the_loop_oracle(capacity, load):
    schedule = make_schedule((1, 0, 1), bit_time=100, n=5)

    def model(capacity, load):
        disk = DiskModel(capacity_accessors=capacity)
        return schedule, disk, InterfererProfile("stress", load)

    trace = simulate(*model(capacity, load), 100, 1000, lead_in_ms=300)
    oracle = noiseless_trace_loop(*model(capacity, load), 100, 1000, 300)
    assert trace.values_ms.tolist() == oracle
    for over in ((capacity + 1, load), (capacity, load + 1)):
        with pytest.raises(ValueError, match=(
            f"^capacity_accessors {over[0]}, interferer load {over[1]} and 2 "
            "intervals of 5 accessors over a 1000 ms run overflow 64-bit integers$"
        )):
            simulate(*model(*over), 100, 1000, lead_in_ms=300)


# capacity 15: 35 ms at demand 17 queue a backlog of 70, which drains at
# 3 per ms during 24 ms at demand 12, so it empties 23 1/3 ms in; then idle.
FRACTIONAL_DRAIN = (
    AccessSchedule(((0, 35),), 5, 35), InterfererProfile("benchmark", 12, 10_000, 59)
)
# 35 ms at demand 17, then demand 8: the backlog of 70 drains in exactly 10 ms.
EDGE_DRAIN = (AccessSchedule(((0, 35),), 9, 35), InterfererProfile("stress", 8))
# The fractional drain, plus 2 ms of demand 5 inside the read [60, 65).
SHORT_SEGMENT = (
    AccessSchedule(((0, 35), (61, 63)), 5, 63),
    InterfererProfile("benchmark", 12, 10_000, 59),
)


@pytest.mark.parametrize("period", [1, 5])
@pytest.mark.parametrize("case", [FRACTIONAL_DRAIN, EDGE_DRAIN, SHORT_SEGMENT],
                         ids=["fractional-drain", "edge-drain", "short-segment"])
def test_noiseless_simulation_matches_loop_oracle_across_a_drain(case, period):
    schedule, interferer = case
    disk = DiskModel(raw_sample_period_ms=period, capacity_accessors=15)
    trace = simulate(schedule, disk, interferer, period, 100)
    oracle = noiseless_trace_loop(schedule, disk, interferer, period, 100)
    assert list(trace.values_ms) == pytest.approx(oracle, rel=0, abs=1e-9)


def test_moderate_noise_trace_bytes_are_pinned():
    # Exact bytes of one noisy trace with overload: the noiseless levels, the
    # noise draws and their order all feed it, so none can change unnoticed.
    schedule = make_schedule((1, 0, 1, 1, 0, 0, 1, 0), bit_time=200, n=5)
    interferer = InterfererProfile("benchmark", load=9, period_ms=700, burst_ms=300)
    trace = simulate(
        schedule, DiskModel.preset("moderate"), interferer, 200, 2400,
        lead_in_ms=300, seed=7,
    )
    digest = hashlib.sha256(trace.to_csv().encode()).hexdigest()
    assert digest == "9468012bf342e3cb2faec2f715390256ece3a4a96f07900f3ac699101c44baf7"


def test_latency_levels_without_noise():
    schedule = make_schedule((1, 0), bit_time=100, n=5, th=1.0)
    disk = DiskModel()
    trace = simulate(schedule, disk, InterfererProfile.none(), 100, 200, seed=0)
    assert trace.values_ms[0] == disk.base_latency_ms + 5 * disk.contention_slope_ms
    assert trace.values_ms[1] == disk.base_latency_ms


def test_same_seed_same_trace_different_seed_differs():
    schedule = make_schedule((1, 0, 1, 0), bit_time=100)
    disk = DiskModel.preset("moderate")
    a = simulate(schedule, disk, InterfererProfile.none(), 100, 600, seed=5)
    b = simulate(schedule, disk, InterfererProfile.none(), 100, 600, seed=5)
    c = simulate(schedule, disk, InterfererProfile.none(), 100, 600, seed=6)
    assert np.array_equal(a.values_ms, b.values_ms)
    assert not np.array_equal(a.values_ms, c.values_ms)


@pytest.mark.parametrize("reads", [
    NOISE_CHUNK - 1, NOISE_CHUNK, NOISE_CHUNK + 1,
    4 * NOISE_CHUNK - 1, 4 * NOISE_CHUNK, 4 * NOISE_CHUNK + 1, 12 * NOISE_CHUNK + 7,
])
@pytest.mark.parametrize("noise, wander", [
    (0.0, 0.7), (1.0, 0.0), (1.0, 0.7), (8.0, 2.0),
], ids=["wander", "white", "both", "clamped"])
def test_noise_drawn_in_chunks_equals_whole_draws(reads, noise, wander):
    # Windows of one read each, so every noisy read is compared bit for bit.
    disk = DiskModel(noise_stddev_ms=noise, wander_stddev_ms=wander)
    period = disk.raw_sample_period_ms
    schedule = make_schedule((1, 0, 1, 1, 0, 0, 1, 0), bit_time=200, n=14)
    runs = noiseless_runs(
        schedule, disk, InterfererProfile.benchmark(), period, reads * period
    )
    got = noisy_windows(runs, disk, period, seed=reads)
    want = noisy_windows_whole(np.repeat(*runs), disk, period, seed=reads)
    assert got.window_starts_ms.tobytes() == want.window_starts_ms.tobytes()
    assert got.values_ms.tobytes() == want.values_ms.tobytes()
    floor = CLAMP_FRACTION * disk.base_latency_ms
    assert (floor in got.values_ms) == (noise == 8.0)


def test_wander_filter_names_a_missing_extension_file(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.signal._sigtools", raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError, match=r"_sigtools<suffix> .*'\.missing'"):
        _load_linear_filter()
    assert "scipy.signal._sigtools" not in sys.modules


def test_noise_floor_clamp():
    disk = DiskModel(noise_stddev_ms=500.0)
    schedule = make_schedule((1, 0), bit_time=100)
    trace = simulate(schedule, disk, InterfererProfile.none(), 100, 200, seed=1)
    assert min(trace.values_ms) >= 0.1 * disk.base_latency_ms


def test_window_validation():
    schedule = make_schedule((1, 0), bit_time=100)
    disk = DiskModel()
    none = InterfererProfile.none()
    with pytest.raises(WindowMismatch):
        simulate(schedule, disk, none, 25, 200)  # not a raw period multiple
    with pytest.raises(WindowMismatch):
        simulate(schedule, disk, none, 100, 250)  # run not window aligned
    with pytest.raises(ValueError):
        simulate(schedule, disk, none, 100, 200, lead_in_ms=150)  # overflows
    backwards = AccessSchedule(((50, 20),), 5, 100)
    with pytest.raises(ValueError):
        simulate(backwards, disk, none, 100, 200)


# --- trace CSV and config files ---


def test_trace_csv_round_trip_is_lossless():
    schedule = make_schedule((1, 0, 1, 1), bit_time=100)
    trace = simulate(
        schedule, DiskModel.preset("harsh"), InterfererProfile.none(), 100, 600, seed=9
    )
    parsed = ContentionTrace.from_csv(trace.to_csv())
    assert np.array_equal(parsed.values_ms, trace.values_ms)
    assert parsed.probe_interval_ms == trace.probe_interval_ms
    assert parsed == trace


def test_trace_holds_read_only_arrays():
    schedule = make_schedule((1, 0, 1, 1), bit_time=100)
    trace = simulate(
        schedule, DiskModel.preset("moderate"), InterfererProfile.none(), 100, 600
    )
    fields = ((trace.window_starts_ms, np.int64), (trace.values_ms, np.float64))
    for array, dtype in fields:
        assert isinstance(array, np.ndarray) and array.dtype == dtype
        with pytest.raises(ValueError):
            array[0] = 0
    assert trace.values() is trace.values_ms
    with pytest.raises(TypeError):
        hash(trace)


def test_trace_built_from_tuples_or_a_writable_array_copies_them():
    values = np.array([10.0, 12.5, 10.0])
    trace = ContentionTrace(100, (0, 100, 200), values)
    values[0] = 99.0
    assert trace.window_starts_ms.dtype == np.int64
    assert trace.values_ms.tolist() == [10.0, 12.5, 10.0]
    assert trace.to_csv() == (
        "window_start_ms,avg_access_time_ms\n0,10.0\n100,12.5\n200,10.0\n"
    )


@pytest.mark.parametrize("size", [
    0, 1, CSV_WRITE_ROWS - 1, CSV_WRITE_ROWS, CSV_WRITE_ROWS + 1, 3 * CSV_WRITE_ROWS + 1,
])
def test_to_csv_in_blocks_equals_the_line_by_line_writer(size):
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-12, 12, size)
    values[::3] = np.round(values[::3])  # repr of integral floats ends in '.0'
    trace = ContentionTrace(7, np.arange(size) * 7 - 700, values)
    assert trace.to_csv() == to_csv_loop(trace)


def _traced_peak(call):
    """call()'s result and the most memory it held at once, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_trace_csv_reads_and_writes_in_at_most_three_times_its_text():
    # A long probe trace: the writer and reader hold bounded blocks of rows
    # as Python objects, not one object per row of the whole trace.
    size = 200_000
    rng = np.random.default_rng(0)
    trace = ContentionTrace(10, np.arange(size) * 10, 12.0 + rng.standard_normal(size))
    text, write_peak = _traced_peak(trace.to_csv)
    parsed, read_peak = _traced_peak(lambda: ContentionTrace.from_csv(text))
    assert parsed == trace
    assert write_peak <= 3 * len(text)
    assert read_peak <= 3 * len(text)
    # Lines that end in "\r" alone are read in bounded pieces too.
    cr_text = text.replace("\n", "\r")
    parsed, read_peak = _traced_peak(lambda: ContentionTrace.from_csv(cr_text))
    assert parsed == trace
    assert read_peak <= 3 * len(cr_text)
    # A piece that loadtxt refuses, or that holds \x1f, is read cell by cell
    # on its own: a bad last value, a start that int() reads and loadtxt does
    # not, and a blank line of \x1f late in the text.
    late = text.index("\n1990000,")
    for refused in (
        text[: text.rindex(",") + 1] + "x\n",
        text.replace("\n1999990,", "\n1_999_990,"),
        text[:late] + "\n\x1f" + text[late:],
    ):
        outcome, read_peak = _traced_peak(
            lambda: _trace_or_error(ContentionTrace.from_csv, refused)
        )
        assert outcome == _trace_or_error(trace_csv_loop, refused)
        assert read_peak <= 3 * len(refused)


def _trace_or_error(parse, text):
    """The trace that parse reads from text, or the ValueError message it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def test_trace_equality_compares_interval_starts_and_values():
    trace = ContentionTrace(100, (0, 100), (10.0, 12.0))
    assert trace == ContentionTrace(100, np.array([0, 100]), [10.0, 12.0])
    assert trace != ContentionTrace(100, (100, 200), (10.0, 12.0))
    assert trace != ContentionTrace(100, (0, 100), (10.0, 12.5))
    assert ContentionTrace(100, (0,), (10.0,)) != ContentionTrace(200, (0,), (10.0,))
    assert trace != (100, (0, 100), (10.0, 12.0))


@pytest.mark.parametrize("pri, starts, values, message", [
    (10, (0, 10, 20), (1.0, 2.0), "one window start per value"),
    (10, (0, 25, 50), (1.0, 2.0, 3.0), "evenly spaced"),
    (10, (0, 10, 10), (1.0, 2.0, 3.0), "do not rise"),
    (10, (0, 10), (1.0, float("nan")), "not finite"),
    (0, (0,), (1.0,), "probe_interval_ms"),
])
def test_trace_constructor_rejects_inconsistent_traces(pri, starts, values, message):
    with pytest.raises(ValueError, match=message):
        ContentionTrace(pri, starts, values)


def test_trace_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        ContentionTrace.from_csv("time,value\n0,1.0\n100,2.0\n")


def test_trace_csv_rejects_uneven_spacing():
    csv = "window_start_ms,avg_access_time_ms\n0,10.0\n100,10.0\n300,10.0\n"
    with pytest.raises(ValueError):
        ContentionTrace.from_csv(csv)


@pytest.mark.parametrize("starts", [(0, 0, 0), (200, 100, 0)])
def test_trace_csv_rejects_window_starts_that_do_not_rise(starts):
    rows = "".join(f"{t},10.0\n" for t in starts)
    with pytest.raises(ValueError, match="do not rise"):
        ContentionTrace.from_csv("window_start_ms,avg_access_time_ms\n" + rows)


@pytest.mark.parametrize("rows", [
    "0,10.0\n100,10.0,7\n200,10.0",
    "0,10.0\n100\n200,10.0",
    "0,10.0,7\n100\n200,10.0",
])
def test_trace_csv_rejects_rows_without_two_cells(rows):
    csv = f"window_start_ms,avg_access_time_ms\n{rows}\n"
    with pytest.raises(ValueError, match="two cells"):
        ContentionTrace.from_csv(csv)


def test_trace_csv_spacing_beyond_64_bits_is_a_value_error():
    low, high = -(2**63), 2**63 - 1
    csv = f"window_start_ms,avg_access_time_ms\n{low},10.0\n{high},10.0\n"
    with pytest.raises(ValueError, match="do not rise"):
        ContentionTrace.from_csv(csv)


def test_trace_csv_rejects_window_start_beyond_64_bits():
    csv = "window_start_ms,avg_access_time_ms\n0,10.0\n100,10.0\n" + "9" * 20 + ",1.0\n"
    with pytest.raises(ValueError, match="64 bits"):
        ContentionTrace.from_csv(csv)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_trace_csv_rejects_non_finite_values(value):
    csv = f"window_start_ms,avg_access_time_ms\n0,10.0\n100,{value}\n200,10.0\n"
    with pytest.raises(ValueError, match="not finite"):
        ContentionTrace.from_csv(csv)


ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663"
                                  "\u0664\u0665\u0666\u0667\u0668\u0669")
# Edits to one cell of a to_csv() row: each is text that int(), float() or
# numpy's loadtxt reads differently, or that none of them reads.
CELL_EDITS = {
    "spaces": lambda c: f" {c}\t",
    "no_break_space": lambda c: "\xa0" + c,
    "unit_separator": lambda c: c + "\x1f",
    "plus": lambda c: "+" + c,
    "minus": lambda c: "-" + c,
    "exponent": lambda c: c + "e2",
    "point": lambda c: c + ".0",
    "digit": lambda c: c + "7",
    "underscore": lambda c: c[:1] + "_" + c[1:],
    "arabic_digits": lambda c: c.translate(ARABIC_INDIC_DIGITS),
    "nan": lambda c: "nan",
    "inf": lambda c: "-Infinity",
    "twenty_digits": lambda c: "9" * 20,
    "extra_comma": lambda c: c + ",",
    "nul": lambda c: c + "\x00",
    "empty": lambda c: "",
}
# Every str.splitlines separator that a CSV writer might plausibly emit.
LINE_ENDS = ["\n", "\r\n", "\r", "\x0c", "\x1c", "\x85", "\u2028"]
HEADER = "window_start_ms,avg_access_time_ms\n"


@st.composite
def trace_csv_texts(draw):
    """A to_csv() text of 1 to 5 rows, then cell, row and line edits."""
    size = draw(st.integers(1, 5))
    first, pri = draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 500))
    values = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=size, max_size=size
    ))
    starts = [first + pri * i for i in range(size)]
    lines = ContentionTrace(pri, starts, values).to_csv().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for _ in range(draw(st.integers(0, 3))):
        row, column = draw(st.sampled_from(rows)), draw(st.integers(0, 1))
        row[column] = CELL_EDITS[draw(st.sampled_from(sorted(CELL_EDITS)))](row[column])
    if size > 1 and draw(st.booleans()):  # starts that fall or repeat
        i = draw(st.integers(1, size - 1))
        rows[i - 1][0], rows[i][0] = rows[i][0], rows[i - 1][0]
    commas = [","] * size
    missing = draw(st.sampled_from([","] * 4 + ["", " "]))  # mostly none missing
    commas[draw(st.integers(0, size - 1))] = missing
    lines[1:] = [comma.join(row) for comma, row in zip(commas, rows)]
    for _ in range(draw(st.integers(0, 2))):
        blank = draw(st.sampled_from(["", " ", "\t", "\x1f", " \u3000 "]))
        lines.insert(draw(st.integers(0, len(lines))), blank)
    if draw(st.sampled_from([False] * 9 + [True])):
        lines.remove("window_start_ms,avg_access_time_ms")
    end = draw(st.sampled_from(LINE_ENDS))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _parse_outcome(parse, text):
    """The trace that parse reads from text, or the ValueError message it raises."""
    try:
        trace = parse(text)
    except ValueError as exc:
        return str(exc)
    starts, values = trace.window_starts_ms.tolist(), trace.values_ms.tobytes()
    return trace.probe_interval_ms, starts, values


@settings(max_examples=400, deadline=None)
@given(trace_csv_texts())
@example(HEADER + "0,1.0\x1f\n100,2.0\n")  # loadtxt strips \x1f; float() does not
@example(HEADER + "1_0,1.0\n11_0,2.0\n")  # int() reads what loadtxt refuses
@example(HEADER + "\u0660,\u0661.5\n100,2.0\n")
@example(HEADER + "0,1.0\n" + "9" * 20 + ",2.0\n")
@example(HEADER + "0.0,1.0\n100,2.0\n")  # older numpy reads these through a float
@example(HEADER + "0,1.0\n100.9,2.0\n")
@example(HEADER + "0,1.0\n1e2,2.0\n")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # as outside pytest
def test_trace_csv_reader_matches_the_cell_by_cell_reader(text):
    assert _parse_outcome(ContentionTrace.from_csv, text) == _parse_outcome(
        trace_csv_loop, text
    )


@settings(max_examples=400, deadline=None)
@given(trace_csv_texts(), st.integers(1, 3), st.integers(1, 48))
# A bad value names the first bad line: the empty start on line 3, after the
# start beyond 64 bits, in its piece (30) or the next (11).
@example(HEADER + "99999999999999999999,0.0\n,0.0\n2,0.0\x00", 1, 30)
@example(HEADER + "99999999999999999999,0.0\n,0.0\n2,0.0\x00", 1, 11)
# A row that does not hold two cells wins over a bad value in an earlier piece.
@example(HEADER + "0,x\n100,1.0\n200,1.0,7\n", 1, 1)
@example(HEADER + "0,x\n" + "100,1.0\n" * 8 + "900,1.0,7\n", 1, 11)
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_trace_csv_in_small_blocks_matches_the_reference_reader_and_writer(
    text, write_rows, read_chars
):
    # Blocks of a few rows and bytes, so each text spans many of them.
    with mock.patch.multiple(
        "diskchannel.channel", CSV_WRITE_ROWS=write_rows, CSV_READ_CHARS=read_chars
    ):
        assert _parse_outcome(ContentionTrace.from_csv, text) == _parse_outcome(
            trace_csv_loop, text
        )
        try:
            trace = ContentionTrace.from_csv(text)
        except ValueError:
            return
        assert trace.to_csv() == to_csv_loop(trace)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_trace_csv_refuses_a_start_that_loadtxt_reads_through_a_float(monkeypatch):
    """Older numpy's loadtxt truncates '100.9' into an int64 field and only warns."""

    def loadtxt(rows, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return np.array([(0, 1.0), (100, 2.0)], dtype=kwargs["dtype"])

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    with pytest.raises(ValueError) as error:
        ContentionTrace.from_csv(HEADER + "0,1.0\n100.9,2.0\n")
    assert str(error.value) == "line 3: window_start_ms must be an integer, got '100.9'"

    # The same when it warns only on a later piece of the text.
    pieces = []

    def loadtxt_warning_on_second_piece(rows, **kwargs):
        pieces.append(rows)
        if len(pieces) == 2:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
        return np.zeros(len(rows), dtype=kwargs["dtype"])

    monkeypatch.setattr(np, "loadtxt", loadtxt_warning_on_second_piece)
    rows = CSV_READ_CHARS // len("0,1.0\n") + 1
    with pytest.raises(ValueError) as error:
        ContentionTrace.from_csv(HEADER + "0,1.0\n" * rows + "100.9,2.0\n")
    assert len(pieces) == 2 and pieces[1][-1] == "100.9,2.0"
    assert str(error.value) == (
        f"line {rows + 2}: window_start_ms must be an integer, got '100.9'"
    )


def test_noise_presets():
    assert NOISE_PRESETS["ideal"] == (0.0, 0.0)
    disk = DiskModel.preset("moderate")
    assert disk.noise_stddev_ms == 1.0
    assert disk.wander_stddev_ms == 0.7
    harsh = DiskModel.preset("harsh", base_latency_ms=20.0)
    assert harsh.noise_stddev_ms == 4.0
    assert harsh.base_latency_ms == 20.0
    with pytest.raises(ValueError):
        DiskModel.preset("silent")


def test_parse_channel_config():
    disk, interferer = parse_channel_config(
        """
        # channel under test
        base_latency_ms = 12.5
        capacity_accessors = 8
        interferer.kind = benchmark
        interferer.load = 2
        interferer.period_ms = 5000
        interferer.burst_ms = 1000
        """
    )
    assert disk.base_latency_ms == 12.5
    assert disk.capacity_accessors == 8
    assert interferer.kind == "benchmark"
    assert interferer.load == 2


def test_parse_channel_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        parse_channel_config("latency = 3\n")


@pytest.mark.parametrize("text, message", [
    ("capacity_accessors = 1.5\n", "line 1: capacity_accessors takes a int, got '1.5'"),
    ("# disk\n\nbase_latency_ms = ten\n",
     "line 3: base_latency_ms takes a float, got 'ten'"),
    ("interferer.load = x\n", "line 1: interferer.load takes a int, got 'x'"),
])
def test_parse_channel_config_names_the_line_of_a_bad_value(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_channel_config(text)


def test_disk_model_validation():
    with pytest.raises(ValueError):
        DiskModel(base_latency_ms=0.0)
    with pytest.raises(ValueError):
        DiskModel(noise_stddev_ms=-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", [
    "base_latency_ms", "contention_slope_ms", "noise_stddev_ms",
    "wander_stddev_ms", "wander_time_ms",
])
def test_disk_model_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        DiskModel(**{field: value})
