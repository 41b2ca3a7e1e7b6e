import pytest
from hypothesis import given, strategies as st

from diskchannel import (
    AccessSchedule,
    DegenerateInterval,
    LeadingZero,
    SenderConfig,
    TimeChangeVector,
    build_access_schedule,
    encode_tcv,
)
from oracles import schedule_bits_loop

messages = st.lists(
    st.integers(min_value=0, max_value=1), min_size=1, max_size=64
).map(lambda bits: (1,) + tuple(bits))


def test_encode_tcv_alternating_runs():
    tcv = encode_tcv((1, 0, 1, 1, 0, 0, 0), 100)
    assert tcv.durations == (100, 100, 200, 300)
    assert sum(tcv.durations) == 700


def test_encode_tcv_rejects_leading_zero():
    with pytest.raises(LeadingZero):
        encode_tcv((0, 1), 100)


def test_encode_tcv_rejects_empty_message():
    with pytest.raises(ValueError):
        encode_tcv((), 100)


def test_kill_lead_rounds_to_nearest_ms():
    assert SenderConfig(300, threshold=0.9).kill_lead_ms == 30
    assert SenderConfig(1000, threshold=0.85).kill_lead_ms == 150
    assert SenderConfig(250, threshold=0.98).kill_lead_ms == 5


def test_config_validation():
    with pytest.raises(ValueError):
        SenderConfig(0)
    with pytest.raises(ValueError):
        SenderConfig(100, n_accessors=0)
    with pytest.raises(ValueError):
        SenderConfig(100, threshold=0.0)
    with pytest.raises(ValueError):
        SenderConfig(100, threshold=1.2)


def test_schedule_trims_only_access_run_tails():
    config = SenderConfig(100, threshold=0.9)
    schedule = build_access_schedule(TimeChangeVector((200, 100, 100, 300)), config)
    assert schedule.intervals == ((0, 190), (300, 390))
    assert schedule.total_duration_ms == 700


def test_schedule_rejects_non_multiple_durations():
    config = SenderConfig(100)
    with pytest.raises(ValueError):
        build_access_schedule(TimeChangeVector((150,)), config)


def test_schedule_rejects_swallowed_run():
    # a kill lead that rounds up to the whole bit time leaves nothing active
    config = SenderConfig(100, threshold=0.004)
    with pytest.raises(DegenerateInterval):
        build_access_schedule(TimeChangeVector((100,)), config)


@given(messages, st.sampled_from([100, 300, 1000]), st.sampled_from([0.5, 0.9, 1.0]))
def test_schedule_bits_survive_round_trip(message, bit_time, threshold):
    """The interval plan must still carry the message on the bit grid."""
    config = SenderConfig(bit_time, threshold=threshold)
    schedule = build_access_schedule(encode_tcv(message, bit_time), config)
    oracle = schedule_bits_loop(
        list(schedule.intervals), bit_time, threshold, schedule.total_duration_ms
    )
    assert tuple(oracle) == message


def test_schedule_text_round_trip():
    config = SenderConfig(100, n_accessors=3, threshold=0.9)
    schedule = build_access_schedule(encode_tcv((1, 1, 0, 1, 0, 0), 100), config)
    text = schedule.to_text()
    assert text.splitlines()[:2] == ["# total_duration_ms 600", "# bit_time_ms 100"]
    parsed = AccessSchedule.from_text(text)
    assert parsed == schedule
    assert parsed.bit_time_ms == 100


def test_schedule_text_total_falls_back_to_last_end():
    parsed = AccessSchedule.from_text("0 0 90\n0 200 290\n1 0 90\n1 200 290\n")
    assert parsed.total_duration_ms == 290
    assert parsed.n_accessors == 2


def test_schedule_text_without_bit_time_has_bit_time_zero():
    parsed = AccessSchedule.from_text("# total_duration_ms 400\n0 0 90\n0 200 290\n")
    assert parsed.bit_time_ms == 0
    assert parsed.total_duration_ms == 400


def test_schedule_text_rejects_negative_bit_time():
    with pytest.raises(ValueError, match="bit_time_ms"):
        AccessSchedule.from_text("# bit_time_ms -100\n0 0 90\n")


def test_schedule_text_rejects_gapped_accessor_ids():
    with pytest.raises(ValueError):
        AccessSchedule.from_text("0 0 90\n2 0 90\n")


def test_schedule_text_rejects_diverging_accessors():
    with pytest.raises(ValueError):
        AccessSchedule.from_text("0 0 90\n1 0 80\n")


def test_schedule_text_rejects_total_before_last_interval():
    with pytest.raises(ValueError):
        AccessSchedule.from_text("# total_duration_ms 50\n0 0 90\n")
