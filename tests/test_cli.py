import hashlib
import io

import pytest

from diskchannel import ChannelParams, DiskModel, InterfererProfile, bits_from_string
from diskchannel.cli import build_parser, main
from diskchannel.experiment import prepare_transmission

BT = ["--bt", "500"]
PRI = ["--pri", "100"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode_writes_schedule(capsys, tmp_path):
    out = tmp_path / "schedule.txt"
    code, stdout, _ = run(
        capsys, "encode", "--bits", "1011", *BT, "--output", str(out)
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("# total_duration_ms ")
    assert stdout == ""


def test_encode_to_stdout(capsys):
    code, stdout, _ = run(capsys, "encode", "--bits", "10", *BT)
    assert code == 0
    assert "# total_duration_ms" in stdout


def test_pipeline_encode_simulate_decode(capsys, tmp_path):
    schedule = tmp_path / "schedule.txt"
    trace = tmp_path / "trace.csv"
    message = "1001110001"

    assert run(capsys, "encode", "--bits", message, *BT,
               "--output", str(schedule))[0] == 0
    assert run(capsys, "simulate", str(schedule), *PRI, "--lead-in", "1000",
               "--output", str(trace))[0] == 0
    code, stdout, _ = run(capsys, "decode", str(trace), *BT, *PRI)
    assert code == 0
    assert stdout.strip() == message


def test_pipeline_with_text_payload(capsys, tmp_path):
    schedule = tmp_path / "schedule.txt"
    trace = tmp_path / "trace.csv"
    run(capsys, "encode", "--text", "hi", *BT, "--output", str(schedule))
    run(capsys, "simulate", str(schedule), *PRI, "--noise", "moderate",
        "--seed", "5", "--output", str(trace))
    code, stdout, _ = run(capsys, "decode", str(trace), *BT, *PRI, "--text")
    assert code == 0
    assert stdout.strip() == "hi"


def test_transmit_round_trip_exit_zero(capsys):
    code, stdout, _ = run(
        capsys, "transmit", "--text", "ok", *BT, *PRI, "--noise", "moderate"
    )
    assert code == 0
    assert "bit errors: 0" in stdout


def test_transmit_failure_exit_one(capsys):
    code, stdout, stderr = run(
        capsys, "transmit", "--bits", "1011", *BT, *PRI,
        "--interferer", "stress", "--n", "5",
    )
    assert code == 1
    assert "decode failed during" in stderr or "bit errors:" in stdout


def test_transmit_caps_bit_errors_at_payload_length(capsys, monkeypatch):
    monkeypatch.setattr(
        "diskchannel.cli.decode_message", lambda trace, config: (0, 1) * 5
    )
    code, stdout, _ = run(capsys, "transmit", "--bits", "1011", *BT, *PRI)
    assert code == 1
    assert "bit errors: 4 (ber 1.0)" in stdout


def test_decode_failure_exit_one(capsys, tmp_path):
    trace = tmp_path / "flat.csv"
    rows = "\n".join(f"{t},10.0" for t in range(0, 3000, 100))
    trace.write_text("window_start_ms,avg_access_time_ms\n" + rows + "\n")
    code, _, stderr = run(capsys, "decode", str(trace), *BT, *PRI)
    assert code == 1
    assert "decode failed during bit-start detection" in stderr


@pytest.mark.parametrize("bits, cause", [
    ((0, 1, 1, 0, 1, 0, 0), "bit count 7 is not a multiple of 8"),
    ((1,) * 8, "can't decode byte 0xff"),
], ids=["partial-byte", "invalid-utf8"])
def test_decode_text_of_garbled_payload_exit_one(
    capsys, tmp_path, monkeypatch, bits, cause
):
    # A payload that is not whole UTF-8 bytes is a channel failure, not bad input.
    monkeypatch.setattr("diskchannel.cli.decode_message", lambda trace, config: bits)
    trace = tmp_path / "trace.csv"
    rows = "".join(f"{t},10.0\n" for t in range(0, 3000, 100))
    trace.write_text("window_start_ms,avg_access_time_ms\n" + rows)
    code, stdout, stderr = run(capsys, "decode", str(trace), *BT, *PRI, "--text")
    assert (code, stdout) == (1, "")
    assert stderr.startswith("decode failed during text decoding: ")
    assert cause in stderr


def test_decode_text_of_a_channel_decoded_partial_byte_exit_one(capsys, monkeypatch):
    # encode | simulate - | decode - --text, with each stage reading stdin
    _, schedule, _ = run(capsys, "encode", "--bits", "1011001", "--bt", "1000")
    monkeypatch.setattr("sys.stdin", io.StringIO(schedule))
    _, trace, _ = run(capsys, "simulate", "-", *PRI)
    monkeypatch.setattr("sys.stdin", io.StringIO(trace))
    code, stdout, stderr = run(capsys, "decode", "-", "--bt", "1000", *PRI, "--text")
    assert (code, stdout) == (1, "")
    assert stderr == (
        "decode failed during text decoding: bit count 7 is not a multiple of 8\n"
    )


def test_invalid_arguments_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decode"])  # missing required flags
    assert exc.value.code == 2


def test_bad_bits_exit_two(capsys):
    code, _, stderr = run(capsys, "encode", "--bits", "10x1", *BT)
    assert code == 2
    assert "error:" in stderr


def test_bad_config_exit_two(capsys, tmp_path):
    config = tmp_path / "channel.cfg"
    config.write_text("not_a_key = 3\n")
    code, _, stderr = run(
        capsys, "transmit", "--bits", "101", *BT, *PRI, "--config", str(config)
    )
    assert code == 2
    assert "unknown config key" in stderr


@pytest.mark.parametrize("line, error", [
    ("capacity_accessors = 1.5", "line 1: capacity_accessors takes a int, got '1.5'"),
    ("noise_stddev_ms = nan", "noise_stddev_ms must be finite, got nan"),
    ("base_latency_ms = inf", "base_latency_ms must be finite, got inf"),
])
def test_config_value_errors_exit_two(capsys, tmp_path, line, error):
    config = tmp_path / "channel.cfg"
    config.write_text(line + "\n")
    code, stdout, stderr = run(
        capsys, "probe", *PRI, "--duration", "1000", "--config", str(config)
    )
    assert (code, stdout, stderr) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--axis", "pri", "--values", "0", "--bt", "1000", "--pri", "40",
      "--trials", "1"], "--values of --axis pri"),
    (["probe", "--pri", "0", "--duration", "1000"], "--pri"),
], ids=["argv0", "argv1"])
def test_zero_probe_interval_exit_two(capsys, argv, flag):
    assert run(capsys, *argv) == (2, "", f"error: {flag} must be >= 1, got 0\n")


@pytest.mark.parametrize("axis, values", [("n", "2,2.5"), ("th", "0.9,x")])
def test_sweep_values_take_the_type_of_the_axis_flag(capsys, axis, values):
    assert run(capsys, "sweep", "--axis", axis, "--values", values, *BT, *PRI) == (
        2, "", f"error: --values must be comma-separated numbers: {values!r}\n"
    )


@pytest.mark.parametrize("argv, flag", [
    (["probe", "--pri", "0", "--duration", "1000"], "--pri"),
    (["sweep", "--axis", "pri", "--values", "200,0", "--bt", "1000", "--pri", "200",
      "--trials", "1"], "--values of --axis pri"),
    (["transmit", "--bits", "1011", "--bt", "1000", "--pri", "0"], "--pri"),
    (["decode", "TRACE", "--bt", "1000", "--pri", "0"], "--pri"),
], ids=["probe", "sweep", "transmit", "decode"])
def test_zero_probe_interval_names_the_flag(capsys, tmp_path, argv, flag):
    trace = tmp_path / "trace.csv"
    trace.write_text("window_start_ms,avg_access_time_ms\n0,10.0\n100,10.0\n")
    argv = [str(trace) if arg == "TRACE" else arg for arg in argv]
    assert run(capsys, *argv) == (2, "", f"error: {flag} must be >= 1, got 0\n")


@pytest.mark.parametrize("argv, message", [
    (["simulate", "MISSING", "--pri", "0"], "--pri must be >= 1, got 0"),
    (["transmit", "--bits", "1x", "--bt", "0", *PRI], "--bt must be >= 1, got 0"),
    (["decode", "MISSING", *BT, "--pri", "0"], "--pri must be >= 1, got 0"),
], ids=["simulate_missing_file", "transmit_bad_bits", "decode_missing_file"])
def test_flags_are_checked_before_any_input_is_read(capsys, tmp_path, argv, message):
    argv = [str(tmp_path / "missing") if arg == "MISSING" else arg for arg in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, flag", [
    (["encode", "--bits", "1011", "--bt", "0"], "--bt"),
    (["transmit", "--bits", "1011", "--bt", "0", *PRI], "--bt"),
    (["decode", "TRACE", "--bt", "0", *PRI], "--bt"),
    (["sweep", "--axis", "n", "--values", "2", "--bt", "0", *PRI, "--trials", "1"],
     "--bt"),
    (["sweep", "--axis", "bt", "--values", "500,0", *BT, *PRI, "--trials", "1"],
     "--values of --axis bt"),
    (["robustness", "--bt", "0", "--trials", "1"], "--bt"),
], ids=["encode", "transmit", "decode", "sweep", "sweep_axis", "robustness"])
def test_zero_bit_time_names_the_flag(capsys, tmp_path, argv, flag):
    trace = tmp_path / "trace.csv"
    trace.write_text("window_start_ms,avg_access_time_ms\n0,10.0\n100,10.0\n")
    argv = [str(trace) if arg == "TRACE" else arg for arg in argv]
    assert run(capsys, *argv) == (2, "", f"error: {flag} must be >= 1, got 0\n")


@pytest.mark.parametrize("argv, message", [
    (["encode", "--bits", "1", "--bt", "1000", "--n", "0"], "--n must be >= 1, got 0"),
    (["transmit", "--bits", "1011", *BT, *PRI, "--n", "-1"],
     "--n must be >= 1, got -1"),
    (["encode", "--bits", "1", "--bt", "1000", "--th", "0"],
     "--th must be in (0, 1], got 0.0"),
    (["encode", "--bits", "1", "--bt", "1000", "--th", "1.5"],
     "--th must be in (0, 1], got 1.5"),
    (["robustness", "--th", "nan", "--trials", "1"], "--th must be in (0, 1], got nan"),
    (["sweep", "--axis", "n", "--values", "0", *BT, *PRI],
     "--values of --axis n must be >= 1, got 0"),
    (["sweep", "--axis", "th", "--values", "0.5,0", *BT, *PRI],
     "--values of --axis th must be in (0, 1], got 0.0"),
    (["robustness", "--trials", "0"], "--trials must be >= 1, got 0"),
    (["sweep", "--axis", "n", "--values", "2", *BT, *PRI, "--payload-bits", "0"],
     "--payload-bits must be >= 1, got 0"),
    (["transmit", "--bits", "1011", "--bt", "1000", *PRI, "--lead-in", "-5000"],
     "--lead-in must be >= 0, got -5000"),
    (["sweep", "--axis", "n", "--values", "2", *BT, *PRI, "--lead-in", "-300"],
     "--lead-in must be >= 0, got -300"),
    (["robustness", "--lead-in", "-1", "--trials", "1"],
     "--lead-in must be >= 0, got -1"),
    (["transmit", "--bits", "1011", *BT, *PRI, "--noise", "moderate", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["robustness", "--seed", "-3", "--trials", "1"], "--seed must be >= 0, got -3"),
    (["sweep", "--axis", "n", "--values", "2", *BT, *PRI, "--seed", "-4"],
     "--seed must be >= 0, got -4"),
    (["probe", *PRI, "--duration", "1000", "--seed", "-2"],
     "--seed must be >= 0, got -2"),
    (["simulate", "SCHEDULE", *PRI, "--lead-in", "-100"],
     "--lead-in must be >= 0, got -100"),
    (["simulate", "SCHEDULE", *PRI, "--seed", "-5"], "--seed must be >= 0, got -5"),
    (["sweep", "--axis", "n", "--values", "2", *BT, *PRI, "--payload-seed", "-5"],
     "--payload-seed must be >= 0, got -5"),
    (["robustness", "--payload-seed", "-1", "--trials", "1"],
     "--payload-seed must be >= 0, got -1"),
], ids=["encode_n", "transmit_n", "th_0", "th_1.5", "th_nan", "sweep_n", "sweep_th",
        "trials", "payload_bits", "transmit_lead_in", "sweep_lead_in",
        "robustness_lead_in", "transmit_seed", "robustness_seed", "sweep_seed",
        "probe_seed_no_noise", "simulate_lead_in", "simulate_seed_no_noise",
        "sweep_payload_seed", "robustness_payload_seed"])
def test_bad_sender_and_trial_flags_name_the_flag(capsys, tmp_path, argv, message):
    schedule = tmp_path / "schedule.txt"
    schedule.write_text("# total_duration_ms 1000\n# bit_time_ms 500\n0 0 450\n")
    argv = [str(schedule) if arg == "SCHEDULE" else arg for arg in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


HUGE = str(10**20)  # past int64
TRANSMIT = ["transmit", "--bits", "1011", "--bt", "1000"]


@pytest.mark.parametrize("argv, config, named", [
    ([*TRANSMIT, "--n", HUGE], "", f"intervals of {HUGE} accessors"),
    ([*TRANSMIT, "--lead-in", HUGE], "", " ms run overflow"),
    (["transmit", "--bits", "1011", "--bt", HUGE], "", " ms run overflow"),
    (TRANSMIT, f"capacity_accessors = {HUGE}", f"capacity_accessors {HUGE},"),
    (TRANSMIT, f"interferer.kind = stress\ninterferer.load = {HUGE}",
     f"interferer load {HUGE} "),
    (TRANSMIT, "interferer.kind = benchmark\ninterferer.load = 3\n"
     f"interferer.period_ms = {10**19}\ninterferer.burst_ms = {10**19}",
     f"interferer burst_ms {10**19} "),
    (TRANSMIT, f"capacity_accessors = {2**62}", f"capacity_accessors {2**62},"),
    (TRANSMIT, f"capacity_accessors = {2**63 - 1}", f"capacity_accessors {2**63 - 1},"),
    (TRANSMIT, f"interferer.kind = stress\ninterferer.load = {2**63 - 1}",
     f"interferer load {2**63 - 1} "),
    (["simulate", "SCHEDULE", "--duration", HUGE], "", f"over a {HUGE} ms run"),
    (["probe", "--duration", HUGE], "", f"over a {HUGE} ms run"),
    (["sweep", "--axis", "n", "--values", HUGE, "--bt", "1000", "--trials", "1"], "",
     f"intervals of {HUGE} accessors"),
], ids=["n", "lead_in", "bt", "capacity", "load", "burst", "capacity_2^62",
        "capacity_int64_max", "load_int64_max", "simulate_duration",
        "probe_duration", "sweep_n"])
def test_counts_and_spans_past_64_bit_arithmetic_exit_two(
    capsys, tmp_path, argv, config, named
):
    schedule, channel = tmp_path / "schedule.txt", tmp_path / "channel.cfg"
    run(capsys, "encode", "--bits", "1011", "--bt", "1000", "--output", str(schedule))
    channel.write_text(config + "\n")
    argv = [str(schedule) if arg == "SCHEDULE" else arg for arg in argv]
    code, stdout, stderr = run(capsys, *argv, "--pri", "100", "--config", str(channel))
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: ") and stderr.endswith(" 64-bit integers\n")
    assert named in stderr and "Traceback" not in stderr


@pytest.mark.parametrize("command", ["probe", "simulate"])
def test_run_too_large_for_memory_exit_two(capsys, tmp_path, command):
    # With one accessor on one interval, 7e17 ms passes the int64 check, but
    # its 7e16 reads need 497 PiB, more than a 57-bit address space (128 PiB)
    # holds, so the allocation fails at once and never pages.
    schedule = tmp_path / "schedule.txt"
    schedule.write_text("0 0 1000\n")
    argv = [command, *([str(schedule)] if command == "simulate" else [])]
    code, stdout, stderr = run(
        capsys, *argv, "--pri", "100", "--duration", "700000000000000000"
    )
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: ") and "Traceback" not in stderr


@pytest.mark.parametrize("duration", ["0", "-5"])
@pytest.mark.parametrize("command", ["probe", "simulate"])
def test_duration_below_one_names_the_flag(capsys, tmp_path, command, duration):
    schedule = tmp_path / "schedule.txt"
    run(capsys, "encode", "--bits", "1011", "--bt", "1000", "--output", str(schedule))
    argv = [command, *([str(schedule)] if command == "simulate" else [])]
    assert run(capsys, *argv, "--pri", "10", "--duration", duration) == (
        2, "", f"error: --duration must be >= 1, got {duration}\n"
    )


def test_simulate_zero_probe_interval_names_the_flag(capsys, tmp_path):
    schedule = tmp_path / "schedule.txt"
    run(capsys, "encode", "--bits", "1011", "--bt", "1000", "--output", str(schedule))
    assert run(capsys, "simulate", str(schedule), "--pri", "0") == (
        2, "", "error: --pri must be >= 1, got 0\n"
    )


@pytest.mark.parametrize("line, error", [
    ("0 0 9O0", "line 3: end must be an integer, got '9O0'"),
    ("x 0 900", "line 3: accessor must be an integer, got 'x'"),
    ("# total_duration_ms 1O00", "line 3: total_duration_ms must be an integer, got '1O00'"),
    ("# bit_time_ms 5.0", "line 3: bit_time_ms must be an integer, got '5.0'"),
    ("# total_duration_ms 5000 ms",
     "line 3: total_duration_ms takes one integer, got '5000 ms'"),
    ("# bit_time_ms", "line 3: bit_time_ms takes one integer, got ''"),
])
def test_schedule_cell_errors_name_the_line(capsys, tmp_path, line, error):
    schedule = tmp_path / "schedule.txt"
    schedule.write_text("# total_duration_ms 1000\n\n" + line + "\n0 0 900\n")
    assert run(capsys, "simulate", str(schedule), *PRI) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("row, error", [
    ("1O,10.0", "line 5: window_start_ms must be an integer, got '1O'"),
    ("200,1O.0", "line 5: avg_access_time_ms must be a number, got '1O.0'"),
])
def test_trace_cell_errors_name_the_line(capsys, tmp_path, row, error):
    trace = tmp_path / "trace.csv"
    rows = ["0,10.0", "100,10.0", "", row, "300,10.0", "400,1e3O"]
    trace.write_text("window_start_ms,avg_access_time_ms\n" + "\n".join(rows) + "\n")
    assert run(capsys, "decode", str(trace), *BT, *PRI) == (2, "", f"error: {error}\n")


def test_decode_rejects_trace_with_other_window_spacing(capsys, tmp_path):
    schedule = tmp_path / "schedule.txt"
    trace = tmp_path / "trace.csv"
    run(capsys, "encode", "--bits", "1011", "--bt", "1000", "--output", str(schedule))
    run(capsys, "simulate", str(schedule), *PRI, "--output", str(trace))
    code, stdout, stderr = run(
        capsys, "decode", str(trace), "--bt", "1000", "--pri", "200"
    )
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:")


@pytest.mark.parametrize("starts", [(0, 0, 0), (200, 100, 0)])
def test_trace_whose_windows_do_not_rise_exit_two(capsys, tmp_path, starts):
    trace = tmp_path / "trace.csv"
    rows = "".join(f"{t},10.0\n" for t in starts)
    trace.write_text("window_start_ms,avg_access_time_ms\n" + rows)
    code, stdout, stderr = run(capsys, "decode", str(trace), *BT, *PRI)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:")
    assert "do not rise" in stderr


def test_non_finite_trace_exit_two(capsys, tmp_path):
    trace = tmp_path / "nan.csv"
    rows = [f"{t},{'nan' if t == 1500 else 10.0}" for t in range(0, 3000, 100)]
    trace.write_text("window_start_ms,avg_access_time_ms\n" + "\n".join(rows) + "\n")
    code, _, stderr = run(capsys, "decode", str(trace), *BT, *PRI)
    assert code == 2
    assert "not finite" in stderr


def test_sweep_csv_deterministic(capsys):
    argv = [
        "sweep", "--axis", "n", "--values", "2,5", *BT, *PRI,
        "--trials", "2", "--payload-bits", "16", "--noise", "moderate",
    ]
    code_a, out_a, _ = run(capsys, *argv)
    code_b, out_b, _ = run(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    lines = out_a.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "2"


def test_robustness_csv(capsys):
    code, stdout, _ = run(
        capsys, "robustness", "--bt", "500", "--pri", "100", "--trials", "1",
        "--payload-bits", "16",
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert [line.split(",")[0] for line in lines] == [
        "scenario", "none", "benchmark", "stress",
    ]


def test_probe_trace_csv(capsys):
    code, stdout, _ = run(
        capsys, "probe", *PRI, "--duration", "4000", "--interferer", "benchmark"
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "window_start_ms,avg_access_time_ms"
    assert len(lines) == 41
    # the benchmark burst is visible at the head of the period
    assert float(lines[1].split(",")[1]) > float(lines[-1].split(",")[1])


def test_config_file_reaches_simulation(capsys, tmp_path):
    config = tmp_path / "channel.cfg"
    config.write_text("base_latency_ms = 40\n")
    code, stdout, _ = run(
        capsys, "probe", *PRI, "--duration", "500", "--config", str(config)
    )
    assert code == 0
    assert stdout.strip().splitlines()[1] == "0,40.0"


def test_simulate_defaults_follow_the_transmission_run_length(capsys, tmp_path):
    schedule = tmp_path / "schedule.txt"
    run(capsys, "encode", "--bits", "1011", *BT, "--n", "3", "--output", str(schedule))
    code, stdout, _ = run(
        capsys, "simulate", str(schedule), *PRI, "--noise", "moderate", "--seed", "4"
    )
    transmission = prepare_transmission(
        ChannelParams(500, 100, 3), bits_from_string("1011"),
        DiskModel.preset("moderate"), InterfererProfile.none(),
    )
    assert code == 0
    assert stdout == transmission.trace(4).to_csv()


def test_encode_simulate_decode_with_one_bit_tail(capsys, tmp_path):
    # Op 27 of the benchmark's cli_files workload at seed 1: without the idle
    # bit after the frame, frame sync found no end marker.
    schedule = tmp_path / "schedule.txt"
    trace = tmp_path / "trace.csv"
    message = "b7cVBebkITtQ"
    assert run(capsys, "encode", "--text", message, "--bt", "1000",
               "--output", str(schedule))[0] == 0
    assert run(capsys, "simulate", str(schedule), "--pri", "10", "--lead-in", "2000",
               "--noise", "moderate", "--seed", "1822682744",
               "--output", str(trace))[0] == 0
    code, stdout, stderr = run(
        capsys, "decode", str(trace), "--bt", "1000", "--pri", "10", "--text"
    )
    assert (code, stdout, stderr) == (0, message + "\n", "")


# Written by encode before schedule files carried their bit time.
SCHEDULE_WITHOUT_BIT_TIME = """\
# total_duration_ms 18000
0 0 450
0 1000 1450
0 2000 2450
0 3000 3450
0 4000 4450
0 5000 5450
0 6000 6450
0 7000 7450
0 8000 9950
0 12000 12450
0 13000 13950
0 16000 17950
"""


def test_simulate_schedule_without_bit_time_is_unchanged(capsys, tmp_path):
    schedule = tmp_path / "schedule.txt"
    schedule.write_text(SCHEDULE_WITHOUT_BIT_TIME)
    code, stdout, _ = run(
        capsys, "simulate", str(schedule), *PRI, "--noise", "moderate", "--seed", "3"
    )
    assert code == 0
    # No lead-in and no tail: the run ends at the schedule's last window.
    assert stdout.splitlines()[-1].startswith("17900,")
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "62d0340becaf9922e0fc1022bfe7207492a56f44b570347efe5cb2832e98ab88"
    )


# Each subcommand's minimal argv and the namespace it parses to, minus func:
# the flags each takes, in declaration order, with their defaults.
FLAG_SURFACES = {
    "encode": (["--bits", "1", *BT], {
        "text": None, "bits": "1", "bt": 500, "n": 5, "th": 0.9, "output": None,
    }),
    "decode": (["t.csv", *BT, *PRI], {
        "trace": "t.csv", "bt": 500, "pri": 100, "text": False,
    }),
    "simulate": (["s.txt", *PRI], {
        "schedule": "s.txt", "pri": 100, "lead_in": None, "duration": None,
        "noise": None, "config": None, "interferer": None, "seed": 0, "output": None,
    }),
    "transmit": (["--text", "a", *BT, *PRI], {
        "text": "a", "bits": None, "bt": 500, "n": 5, "th": 0.9, "pri": 100,
        "lead_in": None, "noise": None, "config": None, "interferer": None, "seed": 0,
    }),
    "sweep": (["--axis", "n", "--values", "1", *BT, *PRI], {
        "axis": "n", "values": "1", "bt": 500, "n": 5, "th": 0.9, "pri": 100,
        "trials": 10, "payload_bits": 96, "payload_seed": 1234, "lead_in": None,
        "noise": None, "config": None, "interferer": None, "seed": 0, "output": None,
    }),
    "robustness": ([], {
        "bt": 10000, "pri": 400, "n": 5, "th": 0.9, "trials": 5,
        "payload_bits": 96, "payload_seed": 1234, "lead_in": None,
        "noise": "moderate", "config": None, "seed": 0, "output": None,
    }),
    "probe": ([*PRI, "--duration", "500"], {
        "pri": 100, "duration": 500, "noise": None, "config": None,
        "interferer": None, "seed": 0, "output": None,
    }),
}


@pytest.mark.parametrize("command", FLAG_SURFACES)
def test_subcommand_flag_surface(command):
    argv, expected = FLAG_SURFACES[command]
    parsed = vars(build_parser().parse_args([command, *argv]))
    del parsed["func"]
    if command == "robustness":
        # each scenario picks its interferer; no flag sets it
        assert parsed.pop("interferer", None) is None
    assert list(parsed.items()) == [("command", command), *expected.items()]


def test_main_reuses_its_parser_without_leaking_values(capsys, tmp_path, monkeypatch):
    # Each command after the first runs on the parser the one before it used;
    # a value that leaked into it would change the second command's output.
    schedule = tmp_path / "schedule.txt"
    run(capsys, "encode", "--bits", "1011", *BT, "--output", str(schedule))
    commands = [
        ["simulate", str(schedule), *PRI, "--duration", "20000", "--seed", "3",
         "--noise", "harsh"],
        ["simulate", str(schedule), *PRI],
        ["robustness", "--trials", "1"],
        ["sweep", "--axis", "n", "--values", "2", *BT, *PRI],
    ]
    reused = [run(capsys, *argv)[:2] for argv in commands]
    assert build_parser() is build_parser()
    monkeypatch.setattr("diskchannel.cli.build_parser", build_parser.__wrapped__)
    fresh = [run(capsys, *argv)[:2] for argv in commands]
    assert reused == fresh
    assert [code for code, _ in fresh] == [0, 0, 0, 0]


def test_robustness_rejects_interferer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["robustness", "--interferer", "stress"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --interferer stress" in capsys.readouterr().err


@pytest.mark.parametrize("command", FLAG_SURFACES)
def test_subcommand_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: diskchannel {command} ")
