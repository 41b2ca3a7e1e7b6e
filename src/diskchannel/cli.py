"""Command line front end.

Subcommands cover the full workflow: encode a message into an access
schedule, simulate the shared disk to get a probe trace, decode a trace,
or do all three in one go with transmit. sweep and robustness reproduce
the error-rate experiments, probe records a receiver-only control trace.

Exit codes: 0 on success, 1 when a decode fails or a transmit is not
error free, 2 for invalid arguments, unreadable inputs or a run too large
to hold in memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path
from typing import Iterable

from .bits import Bits, bits_from_string, bits_from_text, bits_to_string, bits_to_text
from .channel import (
    INTERFERER_KINDS,
    NOISE_PRESETS,
    ContentionTrace,
    DiskModel,
    InterfererProfile,
    parse_channel_config,
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


def _write_output(blocks: Iterable[str], path: str | None) -> None:
    """Write the blocks of text one at a time to path, or to stdout."""
    if path is None or path == "-":
        sys.stdout.writelines(blocks)
    else:
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(blocks)


def _message_bits(args: argparse.Namespace) -> Bits:
    if args.text is not None:
        return bits_from_text(args.text)
    return bits_from_string(args.bits)


def _disk_and_interferer(
    args: argparse.Namespace,
) -> tuple[DiskModel, InterfererProfile]:
    """Channel model from --config, with --noise/--interferer on top."""
    disk, interferer = DiskModel(), InterfererProfile.none()
    if args.config:
        disk, interferer = parse_channel_config(
            Path(args.config).read_text(encoding="utf-8")
        )
    if args.noise:
        noise, wander = NOISE_PRESETS[args.noise]
        disk = dataclasses.replace(disk, noise_stddev_ms=noise, wander_stddev_ms=wander)
    if args.interferer is not None:
        interferer = getattr(InterfererProfile, args.interferer)()
    return disk, interferer


def _positive(value: int | None, flag: str) -> None:
    """A count or span of ms from the command line, or None; a bad one names its flag."""
    if value is not None and value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")


def _non_negative(value: int | None, flag: str) -> None:
    """A seed or lead-in from the command line, or None; a bad one names its flag."""
    if value is not None and value < 0:
        raise ValueError(f"{flag} must be >= 0, got {value}")


def _fraction(value: float | None, flag: str) -> None:
    """A fraction in (0, 1] from the command line, or None; a bad one names its flag."""
    if value is not None and not 0.0 < value <= 1.0:
        raise ValueError(f"{flag} must be in (0, 1], got {value}")


# How main() checks each numeric flag, by dest, before any input is read;
# sweep checks its --values with the entry of the axis flag. Apart from
# FLAGS because simulate and probe each declare their own --duration.
CHECKS = {
    "bt": _positive,
    "pri": _positive,
    "n": _positive,
    "th": _fraction,
    "trials": _positive,
    "payload_bits": _positive,
    "duration": _positive,
    "lead_in": _non_negative,
    "seed": _non_negative,
    "payload_seed": _non_negative,
}


def _channel_params(args: argparse.Namespace) -> ChannelParams:
    return ChannelParams(args.bt, args.pri, args.n, args.th)


def cmd_encode(args: argparse.Namespace) -> int:
    sender = SenderConfig(args.bt, args.n, args.th)
    schedule = payload_schedule(_message_bits(args), sender)
    _write_output([schedule.to_text()], args.output)
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    trace = ContentionTrace.from_csv(_read_input(args.trace))
    if trace.probe_interval_ms != args.pri:
        raise WindowMismatch(
            f"trace windows are {trace.probe_interval_ms} ms apart, "
            f"not --pri {args.pri}"
        )
    payload = decode_message(trace, DecoderConfig(args.bt, args.pri))
    try:
        text = bits_to_text(payload) if args.text else bits_to_string(payload)
    except ValueError as exc:  # not whole UTF-8 bytes: the channel garbled them
        raise DecodeError("text decoding", exc) from exc
    print(text)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    schedule = AccessSchedule.from_text(_read_input(args.schedule))
    disk, interferer = _disk_and_interferer(args)
    lead_in, run_ms = run_length(schedule, args.pri, args.lead_in)
    if args.duration is not None:
        run_ms = whole_windows(args.duration, args.pri)
    trace = simulate(schedule, disk, interferer, args.pri, run_ms, lead_in, args.seed)
    _write_output(trace.csv_blocks(), args.output)
    return 0


def cmd_transmit(args: argparse.Namespace) -> int:
    payload = _message_bits(args)
    disk, interferer = _disk_and_interferer(args)
    params = _channel_params(args)
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
    disk, interferer = _disk_and_interferer(args)
    return ExperimentSpec(
        params=_channel_params(args),
        payload_bits=args.payload_bits,
        n_trials=args.trials,
        base_seed=args.seed,
        payload_seed=args.payload_seed,
        disk=disk,
        interferer=interferer,
        lead_in_ms=args.lead_in,
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    convert = FLAGS[args.axis][1]["type"]
    try:
        values = [convert(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"--values must be comma-separated numbers: {args.values!r}")
    if not values:
        raise ValueError("--values is empty")
    for value in values:
        CHECKS[args.axis](value, f"--values of --axis {args.axis}")
    reports = sweep(_spec_from_args(args), AXIS_MAP[args.axis], values)
    _write_output([reports_to_csv(reports)], args.output)
    return 0


def cmd_robustness(args: argparse.Namespace) -> int:
    reports = robustness_scenarios(_spec_from_args(args))
    _write_output([scenarios_to_csv(reports)], args.output)
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    disk, interferer = _disk_and_interferer(args)
    idle = AccessSchedule(intervals=(), n_accessors=0, total_duration_ms=0)
    duration = whole_windows(args.duration, args.pri)
    trace = simulate(idle, disk, interferer, args.pri, duration, seed=args.seed)
    _write_output(trace.csv_blocks(), args.output)
    return 0


def _add_message_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--text", help="message as UTF-8 text")
    group.add_argument("--bits", help="message as a 0/1 string")


# Flags that several subcommands take, by dest: option strings, add_argument
# keywords. _add_flags makes fresh actions, so no default leaks across commands.
FLAGS: dict[str, tuple[tuple[str, ...], dict]] = {
    "bt": (("--bt",), dict(type=int, required=True, help="bit time in ms")),
    "pri": (("--pri",), dict(type=int, required=True, help="probe interval in ms")),
    "n": (("--n",), dict(type=int, default=5, help="accessor task count")),
    "th": (("--th",), dict(
        type=float, default=0.9, help="fraction of a run's last bit kept active"
    )),
    "lead_in": (("--lead-in",), dict(
        type=int, help="idle ms before the schedule (default 2 bit times)"
    )),
    "trials": (("--trials",), dict(
        type=int, default=10, help="trials per sweep point or scenario"
    )),
    "payload_bits": (("--payload-bits",), dict(
        type=int, default=96, help="length of the random payload"
    )),
    "payload_seed": (("--payload-seed",), dict(
        type=int, default=1234, help="seed of the random payload"
    )),
    "noise": (("--noise",), dict(
        choices=sorted(NOISE_PRESETS), help="noise preset to apply"
    )),
    "config": (("--config",), dict(help="channel config file (key = value lines)")),
    "interferer": (("--interferer",), dict(
        choices=INTERFERER_KINDS,
        help="background load profile (overrides the config file)",
    )),
    "seed": (("--seed",), dict(type=int, default=0, help="channel noise seed")),
    "output": (("--output", "-o"), dict(help="output file, '-' or absent for stdout")),
}
SENDER_FLAGS = ("bt", "n", "th")
CHANNEL_FLAGS = ("noise", "config", "interferer", "seed")
TRIAL_FLAGS = ("trials", "payload_bits", "payload_seed", "lead_in")


def _add_flags(parser: argparse.ArgumentParser, *names: str, **defaults) -> None:
    """Declare the named FLAGS in order; defaults override the table's."""
    for name in names:
        option_strings, kwargs = FLAGS[name]
        if name in defaults:
            kwargs = dict(kwargs, default=defaults[name], required=False)
            kwargs["help"] += f" (default {defaults[name]})"
        parser.add_argument(*option_strings, **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.

    parse_args leaves a parser as it was and returns a fresh namespace, so
    main() reuses it; build_parser.__wrapped__() builds a new one. That
    saves time only where one process calls main() more than once (tests,
    the benchmark's in-process loop); a shell pipeline builds it once per
    command either way.
    """
    parser = argparse.ArgumentParser(
        prog="diskchannel",
        description="covert timing channel over shared disk contention",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="frame a message into an access schedule")
    _add_message_args(p)
    _add_flags(p, *SENDER_FLAGS, "output")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="recover a message from a trace CSV")
    p.add_argument("trace", help="trace CSV file, '-' for stdin")
    _add_flags(p, "bt", "pri")
    p.add_argument(
        "--text", action="store_true", help="print the payload as UTF-8 text"
    )
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="run a schedule through the channel model")
    p.add_argument("schedule", help="schedule file from encode, '-' for stdin")
    _add_flags(p, "pri", "lead_in")
    p.add_argument(
        "--duration",
        type=int,
        help="total run ms, up to whole windows (default: lead-in, schedule, idle bit)",
    )
    _add_flags(p, *CHANNEL_FLAGS, "output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("transmit", help="encode, simulate and decode in one run")
    _add_message_args(p)
    _add_flags(p, *SENDER_FLAGS, "pri", "lead_in", *CHANNEL_FLAGS)
    p.set_defaults(func=cmd_transmit)

    p = sub.add_parser("sweep", help="error rate along one parameter axis")
    p.add_argument(
        "--axis", choices=sorted(AXIS_MAP), required=True, help="parameter to vary"
    )
    p.add_argument(
        "--values", required=True, help="comma separated values for the axis"
    )
    _add_flags(p, *SENDER_FLAGS, "pri", *TRIAL_FLAGS, *CHANNEL_FLAGS, "output")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "robustness", help="error rate under none/benchmark/stress interference"
    )
    # Each scenario sets its own interferer, so robustness takes no such flag.
    point = ROBUSTNESS_POINT
    _add_flags(
        p, "bt", "pri", "n", "th", *TRIAL_FLAGS, "noise", "config", "seed", "output",
        bt=point.bit_time_ms, pri=point.probe_interval_ms,
        n=point.n_accessors, th=point.threshold, trials=5, noise="moderate",
    )
    p.set_defaults(func=cmd_robustness, interferer=None)

    p = sub.add_parser("probe", help="record a control trace with no sender")
    _add_flags(p, "pri")
    p.add_argument("--duration", type=int, required=True, help="run length in ms")
    _add_flags(p, *CHANNEL_FLAGS, "output")
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for dest, check in CHECKS.items():
            check(getattr(args, dest, None), "--" + dest.replace("_", "-"))
        return args.func(args)
    except DecodeError as exc:
        print(f"decode failed during {exc.phase}: {exc.cause}", file=sys.stderr)
        return 1
    except (DiskChannelError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
