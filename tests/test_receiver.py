import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from diskchannel import (
    AccessSchedule,
    AmbiguousPhase,
    ChannelParams,
    ConstantSignal,
    DecodeError,
    DecoderConfig,
    DiskModel,
    InterfererProfile,
    NoStartMarker,
    SenderConfig,
    SyncNotFound,
    build_access_schedule,
    decode_message,
    decode_with_gab,
    detect_bit_start,
    encapsulate,
    encode_tcv,
    find_transmission_onset,
    frame_sync,
    per_bit_averages,
    random_bits,
    simulate,
    symbol_sync,
)
from diskchannel import receiver
from diskchannel.experiment import prepare_transmission
from diskchannel.receiver import ONSET_BASELINE_WINDOWS, ONSET_PREFIX_WINDOWS
from oracles import (
    bit_start_full_pass,
    bit_start_vote_loop,
    gab_fixed_point_loop,
    onset_full_pass,
)

CONFIG = DecoderConfig(bit_time_ms=1000, probe_interval_ms=200)


def square_wave(bits, spb, high=30.0, low=10.0, offset=0, jitter=0.0, seed=0):
    """Synthetic trace: one plateau of spb samples per bit, shifted right."""
    rng = random.Random(seed)
    samples = [low] * offset
    for b in bits:
        level = high if b else low
        samples.extend(level + rng.gauss(0.0, jitter) for _ in range(spb))
    return samples


def transmit(payload, bit_time=1000, pri=200, n=5, th=0.9, lead_in=None,
             disk=None, seed=0):
    transmission = prepare_transmission(
        ChannelParams(bit_time, pri, n, th), payload, disk or DiskModel(),
        InterfererProfile.none(), lead_in_ms=lead_in,
    )
    return transmission.trace(seed)


# --- phase 1: bit start detection ---


@pytest.mark.parametrize("offset", [0, 1, 2, 3, 4])
def test_detect_bit_start_square_wave(offset):
    bits = (1, 0, 1, 1, 0, 1, 0, 0, 1, 0)
    values = square_wave(bits, spb=5, offset=offset)
    config = DecoderConfig(bit_time_ms=50, probe_interval_ms=10)
    assert detect_bit_start(values, config) == offset


def test_detect_bit_start_agrees_with_vote_oracle_under_jitter():
    rng = random.Random(3)
    config = DecoderConfig(bit_time_ms=50, probe_interval_ms=10)
    for trial in range(25):
        bits = [rng.randint(0, 1) for _ in range(12)]
        offset = rng.randrange(5)
        values = square_wave(bits, spb=5, offset=offset, jitter=1.0, seed=trial)
        assert detect_bit_start(values, config) == bit_start_vote_loop(values, 5)


@st.composite
def bit_start_traces(draw):
    """A simulated trace at 2..25 samples per bit, lead-in from 0, any noise."""
    pri = draw(st.sampled_from((10, 20, 40, 100)))
    bit_time = pri * draw(st.integers(2, 25))
    payload = tuple(draw(st.lists(st.integers(0, 1), max_size=16)))
    disk = DiskModel.preset(draw(st.sampled_from(("ideal", "moderate", "harsh"))))
    trace = transmit(
        payload, bit_time, pri, draw(st.integers(1, 12)), draw(st.floats(0.4, 1.0)),
        lead_in=draw(st.integers(0, 5 * bit_time)), disk=disk,
        seed=draw(st.integers(0, 2**16)),
    )
    return list(trace.values_ms), DecoderConfig(bit_time, pri)


@settings(max_examples=40, deadline=None)
@given(bit_start_traces())
def test_detect_bit_start_matches_vote_oracle(case):
    values, config = case
    try:
        want = bit_start_vote_loop(values, config.samples_per_bit)
    except ValueError:
        with pytest.raises(AmbiguousPhase):
            detect_bit_start(values, config)
    else:
        assert detect_bit_start(values, config) == want


def phase_outcome(phase, *args):
    """What a phase returns, or the type and text of what it raises."""
    try:
        return phase(*args)
    except (AmbiguousPhase, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def bit_start_cases(draw):
    """A square wave at 1..250 samples per bit, shifted, cut short, noisy."""
    spb = draw(st.integers(1, 250))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(0, 2, draw(st.integers(0, 40)))
    if draw(st.booleans()):
        bits[:] = 1  # no edge: nothing but noise to tell offsets apart
    level = draw(st.sampled_from((10.0, 1e4, 1e6)))
    wave = np.concatenate((np.zeros(draw(st.integers(0, spb - 1))), np.repeat(bits, spb)))
    cut = draw(st.integers(0, min(spb - 1, wave.size)))
    values = level + wave[: wave.size - cut] * draw(st.sampled_from((1.0, 20.0)))
    noise = draw(st.sampled_from((0.0, 1e-3, 0.5)))
    return values + rng.normal(0.0, noise, values.size), DecoderConfig(spb, 1)


@settings(max_examples=300, deadline=None)
@given(bit_start_cases())
def test_detect_bit_start_matches_the_whole_trace_pass(case):
    values, config = case
    assert phase_outcome(detect_bit_start, values, config) == phase_outcome(
        bit_start_full_pass, values, config
    )


@pytest.mark.parametrize("amplitude", [1.0, 1000.0])
def test_detect_bit_start_keeps_precision_under_large_dc_level(amplitude):
    # 32k windows of a square wave on a level of about 10 s. The first 17
    # runs of 1000 bits slip 3 samples and each of their 16 edges votes 3;
    # two extra samples make the rest slip 1, and each of its 15 edges
    # votes 0 and 1. Offset 3 wins by one vote, so a single flat window
    # that fails to abstain changes the result. Cumulative sums of the
    # uncentred values lose the 1 ms wave to rounding; an absolute
    # tolerance is below the rounding of the 1000 ms one.
    spb = 4
    bits = (np.arange(32_000) // 1000) % 2
    samples = np.insert(np.repeat(bits, spb), 17_000 * spb, [bits[16_999]] * 2)
    values = 10_000.3 + amplitude * np.concatenate(([0] * 3, samples))
    variances = sliding_window_view(values, spb).var(axis=1)
    want = bit_start_vote_loop(values, spb, variances)
    config = DecoderConfig(bit_time_ms=40, probe_interval_ms=10)
    assert want == 3
    assert detect_bit_start(values, config) == want
    assert bit_start_full_pass(values, config) == want


def test_detect_bit_start_single_candidate_last_window_abstains():
    # the second half slips 3 samples and is cut back to whole windows;
    # windows 1, 4 and 6 vote 0, 3 and 3, the rest are flat and abstain,
    # the one-candidate window 7 included, so offset 3 wins 2-1
    spb = 4
    values = square_wave((1, 1, 0, 0), spb, 11.0, 10.0)
    values += square_wave((1, 1, 0, 0), spb, 11.0, 10.0, offset=3)[:-3]
    config = DecoderConfig(bit_time_ms=40, probe_interval_ms=10)
    assert len(values) % spb == 0
    assert detect_bit_start(values, config) == bit_start_vote_loop(values, spb) == 3
    # with three more samples the last window has four flat candidates and
    # abstains too: the same 2-1
    values += values[-1:] * (spb - 1)
    assert detect_bit_start(values, config) == bit_start_vote_loop(values, spb) == 3


def test_detect_bit_start_rejects_flat_trace():
    config = DecoderConfig(bit_time_ms=50, probe_interval_ms=10)
    with pytest.raises(AmbiguousPhase):
        detect_bit_start([10.0] * 40, config)


def test_detect_bit_start_needs_three_bit_times():
    config = DecoderConfig(bit_time_ms=50, probe_interval_ms=10)
    with pytest.raises(ValueError):
        detect_bit_start([10.0, 30.0] * 7, config)


def test_decoder_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig(bit_time_ms=100, probe_interval_ms=30)
    with pytest.raises(ValueError):
        DecoderConfig(bit_time_ms=0, probe_interval_ms=10)
    assert DecoderConfig(bit_time_ms=100, probe_interval_ms=100).samples_per_bit == 1


# --- phase 2: averaging and threshold decoding ---


def test_per_bit_averages_groups_and_drops_tail():
    values = [1.0, 3.0, 2.0, 4.0, 9.0]
    config = DecoderConfig(bit_time_ms=20, probe_interval_ms=10)
    assert per_bit_averages(values, 0, config) == (2.0, 3.0)
    assert per_bit_averages(values, 1, config) == (2.5, 6.5)


def test_per_bit_averages_offset_range():
    config = DecoderConfig(bit_time_ms=20, probe_interval_ms=10)
    with pytest.raises(ValueError):
        per_bit_averages([1.0] * 6, 2, config)


def test_gab_correction_single_step():
    estimates = decode_with_gab([10.0, 10.0, 10.0, 2.0], CONFIG)
    assert estimates.decoded == (1, 1, 1, 0)
    assert estimates.gab_history[0] == pytest.approx(8.0)
    assert estimates.gab_final == pytest.approx(6.0)


def test_gab_balanced_classes_need_no_correction():
    estimates = decode_with_gab([10.0, 2.0, 10.0, 2.0], CONFIG)
    assert estimates.decoded == (1, 0, 1, 0)
    assert len(estimates.gab_history) == 1


def test_gab_rejects_constant_input():
    with pytest.raises(ConstantSignal):
        decode_with_gab([5.0, 5.0, 5.0], CONFIG)


@given(
    st.lists(st.integers(min_value=0, max_value=1), min_size=4, max_size=96).filter(
        lambda bits: 0.25 <= sum(bits) / len(bits) <= 0.75
    ),
    st.floats(min_value=1.0, max_value=30.0),
    st.randoms(use_true_random=False),
)
def test_gab_decodes_separated_classes(bits, gap, rng):
    """Separated class levels decode exactly for roughly balanced mixes.

    Heavily skewed mixes can seed the threshold inside the majority
    cluster, which is out of the decoder's documented envelope, so the
    strategy keeps the 1-fraction within [1/4, 3/4].
    """
    averages = [
        10.0 + gap + rng.uniform(0, gap / 8) if b else 10.0 + rng.uniform(0, gap / 8)
        for b in bits
    ]
    estimates = decode_with_gab(averages, CONFIG)
    assert estimates.decoded == tuple(bits)
    oracle_bits, oracle_gab = gab_fixed_point_loop(averages)
    assert estimates.decoded == tuple(oracle_bits)
    assert estimates.gab_final == pytest.approx(oracle_gab)


# --- phases 3 and 4: sync markers ---


def test_symbol_sync_finds_preamble_end():
    frame = encapsulate((1, 1, 0, 0, 1))
    assert symbol_sync(frame) == 16


def test_symbol_sync_skips_short_alternations():
    bits = (1, 0, 1, 0, 1, 1) + encapsulate((0, 1, 0, 1))
    # the run must be at least eight long, so the leading wiggle is passed over
    assert symbol_sync(bits) == 6 + 16


def test_symbol_sync_missing():
    with pytest.raises(SyncNotFound):
        symbol_sync((1, 1, 0, 0) * 10)


def test_frame_sync_returns_payload_span():
    payload = (1, 0, 0, 1, 1)
    frame = encapsulate(payload)
    start, end = frame_sync(frame, symbol_sync(frame))
    assert frame[start:end] == payload


def test_frame_sync_rejects_corrupt_start_marker():
    frame = list(encapsulate((1, 0, 1)))
    frame[18] = 1 - frame[18]
    with pytest.raises(NoStartMarker):
        frame_sync(tuple(frame), 16)


# --- onset detection ---


def test_onset_detection_trims_idle_lead():
    values = [10.0, 10.1, 9.9, 10.0, 10.05, 30.0, 30.0, 10.0]
    assert find_transmission_onset(values) == 5


def test_onset_detection_defaults_to_zero():
    assert find_transmission_onset([10.0, 10.0, 10.0]) == 0
    assert find_transmission_onset([30.0] * 12) == 0


@st.composite
def onset_traces(draw):
    """A trace of any length, with a step planted inside the prefix the
    onset scan tests first or well beyond it, or none at all.

    Returns the trace and, where the step lies on a flat baseline that
    the sums hold exactly, the window that must fire.
    """
    block = ONSET_PREFIX_WINDOWS
    size = draw(st.one_of(
        st.integers(0, 2 * ONSET_BASELINE_WINDOWS),
        st.integers(0, 20 * block),
        st.sampled_from([k * block + d for k in (1, 4, 16) for d in (-1, 0, 1)]),
    ))
    step = draw(st.one_of(
        st.integers(ONSET_BASELINE_WINDOWS, block - 1),
        st.integers(block, 4 * block - 1),
        st.integers(4 * block, 20 * block),
    ))
    kind = draw(st.sampled_from(("step", "noisy step", "flat", "hot", "probe")))
    level = draw(st.sampled_from((10.0, 1e4, 1e9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.full(size, level)
    if kind in ("step", "noisy step"):
        values[step:] *= 2.0
    if kind == "noisy step":
        values += rng.normal(0.0, 1.0, size)
    if kind == "hot":
        values *= np.linspace(2.0, 1.0, size)
    if kind == "probe":
        idle = AccessSchedule(intervals=(), n_accessors=0, total_duration_ms=0)
        disk = DiskModel.preset(draw(st.sampled_from(("ideal", "moderate"))))
        interferer = draw(st.sampled_from((InterfererProfile(), InterfererProfile.stress())))
        probe = simulate(idle, disk, interferer, 10, max(size, 1) * 10, seed=size)
        values = probe.values_ms
    exact = kind == "step" and level == 10.0 and step < size
    return values, step if exact else None


@pytest.mark.parametrize("step", [
    ONSET_BASELINE_WINDOWS, *(k * ONSET_PREFIX_WINDOWS + d for k in (1, 4) for d in (-1, 0, 1))
])
def test_onset_fires_at_a_step_beside_a_block_edge(step):
    values = np.full(20 * ONSET_PREFIX_WINDOWS, 10.0)
    values[step:] = 20.0
    assert onset_full_pass(values) == step
    assert find_transmission_onset(values) == step


@settings(max_examples=300, deadline=None)
@given(onset_traces())
def test_onset_matches_the_whole_trace_pass(case):
    values, planted = case
    want = onset_full_pass(values)
    if planted is not None:
        assert want == planted
    assert find_transmission_onset(values) == want


# --- the assembled pipeline ---


def test_decode_message_clean_channel():
    payload = random_bits(96, 5)
    trace = transmit(payload)
    assert decode_message(trace, CONFIG) == payload


def test_decode_message_reports_failing_phase():
    # a valid preamble followed by garbage instead of the start marker
    message = (1, 0) * 8 + (1, 1, 0, 0) * 6
    schedule = build_access_schedule(
        encode_tcv(message, 1000), SenderConfig(1000, 5, 0.9)
    )
    trace = simulate(
        schedule, DiskModel(), InterfererProfile.none(), 200, 44_000, 2000, seed=0
    )
    with pytest.raises(DecodeError) as err:
        decode_message(trace, CONFIG)
    assert err.value.phase == "frame sync"
    assert isinstance(err.value.cause, NoStartMarker)


def test_decode_message_saturated_channel_fails_in_phase_one():
    # background load beyond disk capacity pins the trace flat, so no
    # sampling offset looks better than any other
    schedule = build_access_schedule(
        encode_tcv((1,), 1000), SenderConfig(1000, 5, 1.0)
    )
    flood = InterfererProfile(kind="stress", load=14)
    trace = simulate(schedule, DiskModel(), flood, 200, 6000, 0, seed=0)
    with pytest.raises(DecodeError) as err:
        decode_message(trace, CONFIG)
    assert err.value.phase == "bit-start detection"
    assert isinstance(err.value.cause, AmbiguousPhase)


@pytest.mark.parametrize("name, phase", [
    ("find_transmission_onset", "onset detection"),
    ("detect_bit_start", "bit-start detection"),
    ("per_bit_averages", "per-bit averaging"),
    ("decode_with_gab", "threshold decoding"),
    ("symbol_sync", "symbol sync"),
    ("frame_sync", "frame sync"),
    ("destuff_bits", "destuffing"),
])
def test_decode_message_names_each_phase(monkeypatch, name, phase):
    cause = ValueError("boom")

    def fail(*args):
        raise cause

    trace = transmit(random_bits(24, 7))
    monkeypatch.setattr(receiver, name, fail)
    with pytest.raises(DecodeError) as err:
        decode_message(trace, CONFIG)
    assert err.value.phase == phase
    assert err.value.cause is cause


def test_decode_with_moderate_noise_and_late_start():
    payload = random_bits(64, 21)
    trace = transmit(payload, lead_in=7400, disk=DiskModel.preset("moderate"), seed=3)
    assert decode_message(trace, CONFIG) == payload
