import dataclasses
import os
import signal
import threading
import time
import tracemalloc
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from diskchannel import (
    OPERATING_POINTS,
    ROBUSTNESS_POINT,
    BerReport,
    ChannelParams,
    DecoderConfig,
    DiskModel,
    ExperimentSpec,
    InterfererProfile,
    decode_message,
    random_bits,
    reports_to_csv,
    robustness_scenarios,
    run_ber,
    scenarios_to_csv,
    sweep,
)
from diskchannel import experiment
from diskchannel.experiment import (
    count_payload_errors,
    prepare_transmission,
    run_length,
    run_trial,
)

FAST_POINT = ChannelParams(
    bit_time_ms=500, probe_interval_ms=100, n_accessors=5, threshold=0.9
)


def fast_spec(**overrides):
    defaults = dict(params=FAST_POINT, payload_bits=32, n_trials=2)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def test_run_ber_clean_channel_is_error_free():
    report = run_ber(fast_spec())
    assert report.ber == 0.0
    assert report.bit_errors == 0
    assert report.decode_failures == 0
    assert report.total_bits == 64


def test_run_ber_charges_failed_decodes_fully():
    # flood the disk past capacity so every trial fails outright
    spec = fast_spec(interferer=InterfererProfile(kind="stress", load=14))
    report = run_ber(spec)
    assert report.decode_failures == spec.n_trials
    assert report.ber == 1.0
    assert sum(count for _, count in report.failure_phases) == spec.n_trials


def test_run_ber_payload_is_seed_stable():
    a = run_ber(fast_spec(payload_seed=7))
    b = run_ber(fast_spec(payload_seed=7))
    assert a == b


def run_trial_loop(spec):
    """run_ber's report, from one run_trial per trial in the calling thread."""
    payload = random_bits(spec.payload_bits, spec.payload_seed)
    trials = [run_trial(spec, t, payload) for t in range(spec.n_trials)]
    phases = Counter(phase for _, phase in trials if phase is not None)
    return BerReport(
        params=spec.params,
        interferer_kind=spec.interferer.kind,
        n_trials=spec.n_trials,
        payload_bits=spec.payload_bits,
        bit_errors=sum(errors for errors, _ in trials),
        decode_failures=sum(phases.values()),
        failure_phases=tuple(sorted(phases.items())),
    )


def test_run_ber_aggregates_run_trial():
    spec = fast_spec(
        n_trials=4,
        base_seed=11,
        disk=DiskModel.preset("moderate"),
        interferer=InterfererProfile.stress(),
    )
    assert run_ber(spec) == run_trial_loop(spec)


@pytest.mark.parametrize("interferer", ["none", "stress"])
@pytest.mark.parametrize("noise", ["moderate", "harsh"])
@pytest.mark.parametrize("base_seed", range(4))
@pytest.mark.parametrize("n_trials", [1, 2, 3, 5])
def test_run_ber_on_every_cpu_equals_a_loop_of_run_trial(
    n_trials, base_seed, noise, interferer
):
    # Stress fails every decode, so the failed phases are compared too.
    spec = fast_spec(
        n_trials=n_trials,
        base_seed=base_seed,
        disk=DiskModel.preset(noise),
        interferer=getattr(InterfererProfile, interferer)(),
    )
    assert run_ber(spec) == run_trial_loop(spec)


def test_trials_come_back_in_seed_order():
    spec = fast_spec(
        disk=DiskModel.preset("harsh"), interferer=InterfererProfile.stress()
    )
    payload = random_bits(spec.payload_bits, spec.payload_seed)
    transmission = prepare_transmission(
        spec.params, payload, spec.disk, spec.interferer
    )
    seeds = range(8)
    expected = [experiment._decode_trial(transmission, seed, payload) for seed in seeds]
    assert len(set(expected)) > 1  # the trials fail in different phases
    assert experiment._decode_trials(transmission, seeds, payload) == expected


def test_run_ber_on_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(experiment, "_cpu_count", lambda: 1)
    monkeypatch.setattr(experiment, "_pool", None)
    threads = threading.active_count()
    spec = fast_spec(n_trials=3, disk=DiskModel.preset("moderate"))
    assert run_ber(spec) == run_trial_loop(spec)
    assert threading.active_count() == threads
    assert experiment._pool is None


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failed_trial_raises_after_every_other_trial_ended(monkeypatch, cpus):
    monkeypatch.setattr(experiment, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(experiment, "_pool", None)
    finished = []
    threads = set()

    def decode_trial(transmission, seed, payload):
        threads.add(threading.current_thread().name)
        if seed == 1:
            raise RuntimeError("trial 1 failed")
        time.sleep(0.05)
        finished.append(seed)
        return 0, None

    monkeypatch.setattr(experiment, "_decode_trial", decode_trial)
    try:
        with pytest.raises(RuntimeError, match="trial 1 failed"):
            run_ber(fast_spec(n_trials=5))
    finally:
        if experiment._pool is not None:
            experiment._pool.shutdown()
    assert sorted(finished) == [0, 2, 3, 4]
    caller = threading.current_thread().name
    assert all(
        name == caller or name.startswith("diskchannel-trial") for name in threads
    )
    assert len(threads) <= cpus


def test_run_ber_on_two_cpus_runs_on_the_caller_and_one_helper(monkeypatch):
    spec = fast_spec(n_trials=3, disk=DiskModel.preset("moderate"))
    expected = run_trial_loop(spec)
    monkeypatch.setattr(experiment, "_cpu_count", lambda: 2)
    monkeypatch.setattr(experiment, "_pool", None)
    # Seeds 0 and 1 wait for each other, so two threads must take them.
    both_started = threading.Barrier(2, timeout=10)
    trials_per_thread = Counter()
    decode_trial = experiment._decode_trial

    def decode_trial_on_record(transmission, seed, payload):
        trials_per_thread[threading.current_thread().name] += 1
        if seed < 2:
            both_started.wait()
        return decode_trial(transmission, seed, payload)

    monkeypatch.setattr(experiment, "_decode_trial", decode_trial_on_record)
    try:
        report = run_ber(spec)
    finally:
        if experiment._pool is not None:
            experiment._pool.shutdown()
    caller = threading.current_thread().name
    helpers = [name for name in trials_per_thread if name != caller]
    assert caller in trials_per_thread
    assert len(helpers) == 1 and helpers[0].startswith("diskchannel-trial")
    assert sum(trials_per_thread.values()) == 3
    assert report == expected


def _traced(call):
    """call()'s result, the memory it kept and the most it held, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
        return result, kept - before, peak - before
    finally:
        tracemalloc.stop()


def robustness_transmission():
    """prepare_transmission's arguments at ROBUSTNESS_POINT, and its raw reads."""
    args = (
        ROBUSTNESS_POINT,
        random_bits(96, 1234),
        DiskModel.preset("moderate"),
        InterfererProfile.benchmark(),
    )
    schedule = prepare_transmission(*args).schedule
    run_ms = run_length(schedule, ROBUSTNESS_POINT.probe_interval_ms)[1]
    return args, run_ms // args[2].raw_sample_period_ms


def test_a_transmission_keeps_no_trace_sized_array():
    args, reads = robustness_transmission()
    assert reads > 100_000
    _, kept, _ = _traced(lambda: prepare_transmission(*args))
    assert kept < 64 * 1024


def test_the_shared_runs_are_read_only():
    args, _ = robustness_transmission()
    for array in prepare_transmission(*args).runs:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_run_ber_refuses_an_accessor_count_past_64_bits():
    params = ChannelParams(1000, 100, 10**20, 0.9)
    with pytest.raises(ValueError, match=str(10**20)):
        run_ber(ExperimentSpec(params, payload_bits=8, n_trials=1))


def test_a_trial_trace_holds_one_trace_sized_buffer():
    args, reads = robustness_transmission()
    transmission = prepare_transmission(*args)
    transmission.trace(0)  # loads the wander filter
    _, kept, peak = _traced(lambda: transmission.trace(1))
    assert peak - kept <= 1.25 * 8 * reads


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_run_ber_in_a_child_forked_after_the_pool_ran():
    spec = fast_spec(n_trials=3, disk=DiskModel.preset("moderate"))
    report = run_ber(spec)  # runs trials in the pool where there are 2+ CPUs
    with warnings.catch_warnings():
        # Python 3.12+ warns about forking a process that has threads;
        # a fork after the pool ran is the case under test.
        warnings.filterwarnings("ignore", ".*fork", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        try:
            os._exit(0 if run_ber(spec) == report else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 30
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's run_ber did not finish in 30 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0


@st.composite
def noiseless_links(draw):
    """A payload, an operating point with 5..25 samples per bit and a lead-in.

    Lead-ins start at 0: under 4 probe windows the onset detector has no
    baseline and returns 0, and the bit-grid vote ignores the flat idle
    windows. The bound th >= 0.6 marks an open decoder defect: below it
    the trimmed lone 1s of a 1-heavy payload average under the threshold.
    """
    pri = draw(st.sampled_from((10, 20, 30, 40, 100, 200, 400)))
    bit_time = pri * draw(st.integers(5, 25))
    params = ChannelParams(
        bit_time, pri, draw(st.integers(1, 12)), draw(st.floats(0.6, 1.0))
    )
    payload = tuple(draw(st.lists(st.integers(0, 1), max_size=96)))
    return params, payload, draw(st.integers(0, 5 * bit_time))


@settings(max_examples=100, deadline=None)
@given(noiseless_links())
def test_noiseless_transmission_round_trips(link):
    params, payload, lead_in = link
    transmission = prepare_transmission(
        params, payload, DiskModel(), InterfererProfile.none(), lead_in
    )
    decoder = DecoderConfig(params.bit_time_ms, params.probe_interval_ms)
    assert decode_message(transmission.trace(0), decoder) == payload


def test_noiseless_short_lead_in_all_zero_payload_decodes():
    # a 215 ms lead-in is under 4 probe windows; when flat windows voted
    # offset 0 the bit grid came out wrong and symbol sync failed
    params = ChannelParams(500, 100, 1, 1.0)
    payload = (0,) * 7
    transmission = prepare_transmission(
        params, payload, DiskModel(), InterfererProfile.none(), 215
    )
    decoder = DecoderConfig(params.bit_time_ms, params.probe_interval_ms)
    assert decode_message(transmission.trace(0), decoder) == payload


def test_count_payload_errors_caps_at_payload_length():
    assert count_payload_errors((1, 0, 1, 1), (1, 0, 1, 1)) == 0
    assert count_payload_errors((1, 0, 1, 1), (1, 1, 1, 1)) == 1
    assert count_payload_errors((1, 0), (0, 1, 1, 1, 1, 1)) == 2
    assert count_payload_errors((1, 0, 1), ()) == 3


def test_sweep_varies_one_axis_only():
    reports = sweep(fast_spec(), "n_accessors", (2, 5))
    assert [r.params.n_accessors for r in reports] == [2, 5]
    assert all(r.params.bit_time_ms == FAST_POINT.bit_time_ms for r in reports)


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ValueError):
        sweep(fast_spec(), "amplitude", (1, 2))


def test_robustness_scenarios_cover_all_interferers():
    reports = robustness_scenarios(fast_spec())
    assert [r.interferer_kind for r in reports] == ["none", "benchmark", "stress"]


def test_operating_points_are_well_formed():
    assert len(OPERATING_POINTS) == 7
    assert ROBUSTNESS_POINT == OPERATING_POINTS[-1]
    for p in OPERATING_POINTS:
        assert p.bit_time_ms % p.probe_interval_ms == 0
        # every point must survive its own kill lead and pass config checks
        run_ber(ExperimentSpec(params=p, payload_bits=4, n_trials=1))


def test_reports_csv_shape():
    reports = sweep(fast_spec(), "threshold", (0.8, 0.9))
    csv = reports_to_csv(reports)
    lines = csv.strip().splitlines()
    assert lines[0].startswith("bit_time_ms,probe_interval_ms,")
    assert len(lines) == 3
    assert lines[1].split(",")[3] == "0.8"


def test_scenarios_csv_has_scenario_column():
    reports = robustness_scenarios(fast_spec())
    lines = scenarios_to_csv(reports).strip().splitlines()
    assert lines[0].startswith("scenario,")
    assert [line.split(",")[0] for line in lines[1:]] == [
        "none", "benchmark", "stress",
    ]


@pytest.mark.parametrize("field, value", [
    ("bit_time_ms", 0),
    ("probe_interval_ms", 0),
    ("probe_interval_ms", 300),
    ("n_accessors", 0),
    ("threshold", 0.0),
    ("threshold", 1.5),
])
def test_channel_params_validation(field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(FAST_POINT, **{field: value})


def test_spec_validation():
    with pytest.raises(ValueError):
        fast_spec(payload_bits=0)
    with pytest.raises(ValueError):
        fast_spec(n_trials=0)


def test_report_equality_is_value_based():
    a = run_ber(fast_spec())
    b = dataclasses.replace(a)
    assert a == b and isinstance(a, BerReport)