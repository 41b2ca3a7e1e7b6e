"""Command line front end.

Subcommands cover the full workflow: encode a message into an access
schedule, simulate the shared disk to get a probe trace, decode a trace,
or do all three in one go with transmit. sweep and robustness reproduce
the error-rate experiments, probe records a receiver-only control trace.

Exit codes: 0 on success, 1 when a decode fails or a transmit is not
error free, 2 for invalid arguments or unreadable inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .bits import Bits, bits_from_string, bits_from_text, bits_to_string, bits_to_text
from .channel import (
    INTERFERER_KINDS,
    NOISE_PRESETS,
    ContentionTrace,
    DiskModel,
    InterfererProfile,
    read_channel_config,
    simulate,
    whole_windows,
)
from .errors import DecodeError, DiskChannelError, WindowMismatch
from .experiment import (
    ROBUSTNESS_POINT,
    ChannelParams,
    ExperimentSpec,
    count_payload_errors,
    payload_schedule,
    prepare_transmission,
    reports_to_csv,
    robustness_scenarios,
    run_length,
    scenarios_to_csv,
    sweep,
)
from .receiver import DecoderConfig, decode_message
from .sender import AccessSchedule, SenderConfig

# Short CLI axis names for the sweep subcommand.
AXIS_MAP = {
    "bt": "bit_time_ms",
    "pri": "probe_interval_ms",
    "n": "n_accessors",
    "th": "threshold",
}


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _message_bits(args: argparse.Namespace) -> Bits:
    if args.text is not None:
        return bits_from_text(args.text)
    return bits_from_string(args.bits)


def _disk_and_interferer(
    args: argparse.Namespace,
) -> tuple[DiskModel, InterfererProfile]:
    """Channel model from --config, with --noise/--interferer on top."""
    if getattr(args, "config", None):
        disk, interferer = read_channel_config(args.config)
    else:
        disk, interferer = DiskModel(), InterfererProfile.none()
    if getattr(args, "noise", None):
        noise, wander = NOISE_PRESETS[args.noise]
        disk = dataclasses.replace(
            disk, noise_stddev_ms=noise, wander_stddev_ms=wander
        )
    kind = getattr(args, "interferer", None)
    if kind is not None:
        interferer = getattr(InterfererProfile, kind)()
    return disk, interferer


def cmd_encode(args: argparse.Namespace) -> int:
    sender = SenderConfig(args.bt, args.n, args.th)
    schedule = payload_schedule(_message_bits(args), sender)
    _write_output(schedule.to_text(), args.output)
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    trace = ContentionTrace.from_csv(_read_input(args.trace))
    if trace.probe_interval_ms != args.pri:
        raise WindowMismatch(
            f"trace windows are {trace.probe_interval_ms} ms apart, "
            f"not --pri {args.pri}"
        )
    payload = decode_message(trace, DecoderConfig(args.bt, args.pri))
    print(bits_to_text(payload) if args.text else bits_to_string(payload))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    schedule = AccessSchedule.from_text(_read_input(args.schedule))
    disk, interferer = _disk_and_interferer(args)
    lead_in, run_ms = run_length(schedule, args.pri, args.lead_in)
    run_ms = run_ms if args.duration is None else args.duration
    trace = simulate(schedule, disk, interferer, args.pri, run_ms, lead_in, args.seed)
    _write_output(trace.to_csv(), args.output)
    return 0


def cmd_transmit(args: argparse.Namespace) -> int:
    payload = _message_bits(args)
    disk, interferer = _disk_and_interferer(args)
    params = ChannelParams(args.bt, args.pri, args.n, args.th)
    transmission = prepare_transmission(
        params, payload, disk, interferer, lead_in_ms=args.lead_in
    )
    schedule = transmission.schedule
    trace = transmission.trace(args.seed)
    decoded = decode_message(trace, params.decoder)
    errors = count_payload_errors(payload, decoded)
    print(f"sent {len(payload)} payload bits over {schedule.total_duration_ms} ms")
    print(f"decoded: {bits_to_string(decoded)}")
    if errors == 0:
        print("bit errors: 0")
        return 0
    print(f"bit errors: {errors} (ber {errors / len(payload)})")
    return 1


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    params = ChannelParams(args.bt, args.pri, args.n, args.th)
    disk, interferer = _disk_and_interferer(args)
    return ExperimentSpec(
        params=params,
        payload_bits=args.payload_bits,
        n_trials=args.trials,
        base_seed=args.seed,
        payload_seed=args.payload_seed,
        disk=disk,
        interferer=interferer,
        lead_in_ms=args.lead_in,
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    convert = float if args.axis == "th" else int
    try:
        values = [convert(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"--values must be comma-separated numbers: {args.values!r}")
    if not values:
        raise ValueError("--values is empty")
    reports = sweep(_spec_from_args(args), AXIS_MAP[args.axis], values)
    _write_output(reports_to_csv(reports), args.output)
    return 0


def cmd_robustness(args: argparse.Namespace) -> int:
    scenarios = robustness_scenarios(_spec_from_args(args))
    _write_output(scenarios_to_csv(scenarios), args.output)
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    disk, interferer = _disk_and_interferer(args)
    idle = AccessSchedule(intervals=(), n_accessors=0, total_duration_ms=0)
    duration = whole_windows(args.duration, args.pri)
    trace = simulate(idle, disk, interferer, args.pri, duration, seed=args.seed)
    _write_output(trace.to_csv(), args.output)
    return 0


def _add_message_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--text", help="message as UTF-8 text")
    group.add_argument("--bits", help="message as a 0/1 string")


def _add_sender_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bt", type=int, required=True, help="bit time in ms")
    parser.add_argument("--n", type=int, default=5, help="accessor task count")
    parser.add_argument(
        "--th", type=float, default=0.9, help="fraction of a run's last bit kept active"
    )


def _add_channel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--noise", choices=sorted(NOISE_PRESETS), help="noise preset to apply"
    )
    parser.add_argument("--config", help="channel config file (key = value lines)")
    parser.add_argument(
        "--interferer",
        choices=INTERFERER_KINDS,
        help="background load profile (overrides the config file)",
    )
    parser.add_argument("--seed", type=int, default=0, help="channel noise seed")


def _add_output_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", "-o", help="output file, '-' or absent for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskchannel",
        description="covert timing channel over shared disk contention",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="frame a message into an access schedule")
    _add_message_args(p)
    _add_sender_args(p)
    _add_output_arg(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="recover a message from a trace CSV")
    p.add_argument("trace", help="trace CSV file, '-' for stdin")
    p.add_argument("--bt", type=int, required=True, help="bit time in ms")
    p.add_argument("--pri", type=int, required=True, help="probe interval in ms")
    p.add_argument(
        "--text", action="store_true", help="print the payload as UTF-8 text"
    )
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="run a schedule through the channel model")
    p.add_argument("schedule", help="schedule file from encode, '-' for stdin")
    p.add_argument("--pri", type=int, required=True, help="probe interval in ms")
    p.add_argument(
        "--lead-in", type=int, help="idle ms before the schedule (default 2 bit times)"
    )
    p.add_argument(
        "--duration",
        type=int,
        help="total run ms (default: lead-in, schedule, one idle bit; whole windows)",
    )
    _add_channel_args(p)
    _add_output_arg(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("transmit", help="encode, simulate and decode in one run")
    _add_message_args(p)
    _add_sender_args(p)
    p.add_argument("--pri", type=int, required=True, help="probe interval in ms")
    p.add_argument(
        "--lead-in", type=int, help="idle ms before the schedule (default 2 bit times)"
    )
    _add_channel_args(p)
    p.set_defaults(func=cmd_transmit)

    p = sub.add_parser("sweep", help="error rate along one parameter axis")
    p.add_argument(
        "--axis", choices=sorted(AXIS_MAP), required=True, help="parameter to vary"
    )
    p.add_argument(
        "--values", required=True, help="comma separated values for the axis"
    )
    _add_sender_args(p)
    p.add_argument("--pri", type=int, required=True, help="probe interval in ms")
    p.add_argument("--trials", type=int, default=10, help="trials per point")
    p.add_argument("--payload-bits", type=int, default=96)
    p.add_argument("--payload-seed", type=int, default=1234)
    p.add_argument("--lead-in", type=int, default=None)
    _add_channel_args(p)
    _add_output_arg(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "robustness", help="error rate under none/benchmark/stress interference"
    )
    p.add_argument("--bt", type=int, default=ROBUSTNESS_POINT.bit_time_ms)
    p.add_argument("--pri", type=int, default=ROBUSTNESS_POINT.probe_interval_ms)
    p.add_argument("--n", type=int, default=ROBUSTNESS_POINT.n_accessors)
    p.add_argument("--th", type=float, default=ROBUSTNESS_POINT.threshold)
    p.add_argument("--trials", type=int, default=5, help="trials per scenario")
    p.add_argument("--payload-bits", type=int, default=96)
    p.add_argument("--payload-seed", type=int, default=1234)
    p.add_argument("--lead-in", type=int, default=None)
    p.add_argument(
        "--noise", choices=sorted(NOISE_PRESETS), default="moderate",
        help="noise preset (default moderate)",
    )
    p.add_argument("--config", help="channel config file (key = value lines)")
    p.add_argument("--seed", type=int, default=0, help="channel noise seed")
    _add_output_arg(p)
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("probe", help="record a control trace with no sender")
    p.add_argument("--pri", type=int, required=True, help="probe interval in ms")
    p.add_argument("--duration", type=int, required=True, help="run length in ms")
    _add_channel_args(p)
    _add_output_arg(p)
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DecodeError as exc:
        print(f"decode failed during {exc.phase}: {exc.cause}", file=sys.stderr)
        return 1
    except (DiskChannelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
