"""The four benchmark workloads.

Each is a closed loop with one client: op i starts when op i - 1 has
returned. Op i's inputs depend only on (workload, seed, i), so a seed
always gives the same ops, and the program receives only the generated
payloads and parameters. A workload offers:

    inputs(i)                  inputs of op i (not timed)
    control()                  noiseless check at the operating point
    run(inputs)                the op, untraced
    run_traced(inputs, tracer) the op with a span around each call
    check(inputs, result, tracer) -> Outcome, raises CheckFailed
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import random
import string
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from diskchannel import (
    ROBUSTNESS_POINT,
    BerReport,
    ChannelParams,
    ContentionTrace,
    DecoderConfig,
    DiskChannelError,
    DiskModel,
    ExperimentSpec,
    InterfererProfile,
    SenderConfig,
    bits_from_text,
    build_access_schedule,
    decapsulate,
    decode_with_gab,
    destuff_bits,
    detect_bit_start,
    encapsulate,
    encode_tcv,
    find_transmission_onset,
    frame_sync,
    per_bit_averages,
    random_bits,
    reports_to_csv,
    run_ber,
    simulate,
    symbol_sync,
)
from diskchannel.cli import main as cli_main
from diskchannel.experiment import run_trial
from metrics import PHASES
from tracing import Tracer

MODERATE = DiskModel.preset("moderate")


class CheckFailed(Exception):
    """An op's output failed a check."""


@dataclass
class Outcome:
    """What one op delivered. Two runs of one seed must give equal outcomes."""

    trials: int = 0
    payload_bits: int = 0
    bit_errors: int = 0
    failed_phases: tuple[str, ...] = ()
    counts: Counter = field(default_factory=Counter)


def op_rng(name: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{i}")


def payload_errors(expected, got) -> int:
    """Bit errors in one decoded payload, counted as run_trial counts them."""
    overlap = min(len(expected), len(got))
    errors = sum(a != b for a, b in zip(expected[:overlap], got[:overlap]))
    return min(errors + abs(len(expected) - len(got)), len(expected))


def overload_ms(schedule, disk, interferer, run_ms: int, lead_in_ms: int) -> int:
    """Virtual ms in which demand exceeds the disk's service capacity."""
    demand = interferer.demand_per_ms(run_ms).copy()
    for start, end in schedule.intervals:
        demand[lead_in_ms + start : lead_in_ms + end] += schedule.n_accessors
    return int(np.count_nonzero(demand > disk.capacity_accessors))


@dataclass
class TrialReplay:
    errors: int
    phase: str | None
    simulate_args: tuple
    counts: Counter


def replay_trial(tracer: Tracer, spec: ExperimentSpec, trial: int, payload) -> TrialReplay:
    """run_trial, one public call per span, in _decode_pipeline's order."""
    p = spec.params
    with tracer.span("framing.encapsulate"):
        frame = encapsulate(payload)
    with tracer.span("sender.encode_tcv"):
        tcv = encode_tcv(frame, p.bit_time_ms)
    with tracer.span("sender.build_schedule"):
        schedule = build_access_schedule(
            tcv, SenderConfig(p.bit_time_ms, p.n_accessors, p.threshold)
        )
    lead_in = 2 * p.bit_time_ms if spec.lead_in_ms is None else spec.lead_in_ms
    tail = p.bit_time_ms if spec.tail_ms is None else spec.tail_ms
    span = lead_in + schedule.total_duration_ms + tail
    run_ms = math.ceil(span / p.probe_interval_ms) * p.probe_interval_ms
    args = (
        schedule, spec.disk, spec.interferer, p.probe_interval_ms, run_ms, lead_in,
        spec.base_seed + trial,
    )
    with tracer.span("channel.simulate"):
        trace = simulate(*args)
    counts = Counter({
        "framing.payload_bits": len(payload),
        "sender.intervals": len(schedule.intervals),
        "channel.simulate.calls": 1,
        "channel.virtual_ms": run_ms,
        "channel.windows": len(trace.values_ms),
    })

    config = DecoderConfig(p.bit_time_ms, p.probe_interval_ms)
    phase = "onset detection"
    try:
        with tracer.span("receiver.onset"):
            values = trace.values()
            active = values[find_transmission_onset(values):]
        counts["receiver.windows"] = len(values)
        phase = "bit-start detection"
        with tracer.span("receiver.bit_start"):
            offset = detect_bit_start(active, config)
        phase = "per-bit averaging"
        with tracer.span("receiver.averaging"):
            averages = per_bit_averages(active, offset, config)
        counts["receiver.bits"] = len(averages)
        phase = "threshold decoding"
        with tracer.span("receiver.threshold"):
            estimates = decode_with_gab(averages, config, offset)
        counts["receiver.gab_iterations"] = len(estimates.gab_history) - 1
        phase = "symbol sync"
        with tracer.span("receiver.symbol_sync"):
            sync_end = symbol_sync(estimates.decoded)
        phase = "frame sync"
        with tracer.span("receiver.frame_sync"):
            start, end = frame_sync(estimates.decoded, sync_end)
        phase = "destuffing"
        with tracer.span("receiver.destuff"):
            decoded = destuff_bits(estimates.decoded[start:end])
    except (DiskChannelError, ValueError):
        return TrialReplay(len(payload), phase, args, counts)
    return TrialReplay(payload_errors(payload, decoded), None, args, counts)


class TrialWorkload:
    """Each op is one run_ber at a fixed operating point under moderate noise."""

    decodes = True

    def __init__(self, name: str, seed: int, params: ChannelParams, n_trials: int,
                 interferers: tuple[str, ...]):
        self.name = name
        self.seed = seed
        self.params = params
        self.n_trials = n_trials
        self.interferers = interferers
        self._seen: set = set()  # noise-free simulate inputs traced so far

    def inputs(self, i: int) -> ExperimentSpec:
        rng = op_rng(self.name, self.seed, i)
        kind = self.interferers[i % len(self.interferers)]
        return ExperimentSpec(
            self.params,
            n_trials=self.n_trials,
            base_seed=rng.randrange(2**31),
            payload_seed=rng.randrange(2**31),
            disk=MODERATE,
            interferer=getattr(InterfererProfile, kind)(),
        )

    def control(self) -> None:
        spec = dataclasses.replace(
            self.inputs(0), disk=DiskModel(), interferer=InterfererProfile.none()
        )
        result = run_trial(spec, 0, random_bits(spec.payload_bits, spec.payload_seed))
        if result != (0, None):
            raise CheckFailed(f"noiseless control trial gave {result}")

    def run(self, spec: ExperimentSpec):
        report = run_ber(spec)
        return report, reports_to_csv([report]), None

    def run_traced(self, spec: ExperimentSpec, tracer: Tracer):
        with tracer.span("bits.random_bits"):
            payload = random_bits(spec.payload_bits, spec.payload_seed)
        replays = []
        for trial in range(spec.n_trials):
            with tracer.span("experiment.trial", trace_id=f"{tracer.trace_id}.t{trial}"):
                replays.append(replay_trial(tracer, spec, trial, payload))
        phases = Counter(r.phase for r in replays if r.phase is not None)
        report = BerReport(
            params=spec.params,
            interferer_kind=spec.interferer.kind,
            n_trials=spec.n_trials,
            payload_bits=spec.payload_bits,
            bit_errors=sum(r.errors for r in replays),
            decode_failures=sum(phases.values()),
            failure_phases=tuple(sorted(phases.items())),
        )
        with tracer.span("experiment.report_csv"):
            csv = reports_to_csv([report])
        return report, csv, (payload, replays)

    def check(self, spec: ExperimentSpec, result, tracer) -> Outcome:
        report, csv, replayed = result
        if csv.count("\n") != 2 or not 0 <= report.bit_errors <= report.total_bits:
            raise CheckFailed(f"implausible report {report}")
        outcome = Outcome(
            trials=report.n_trials,
            payload_bits=report.total_bits,
            bit_errors=report.bit_errors,
            failed_phases=tuple(p for p, n in report.failure_phases for _ in range(n)),
        )
        if replayed is None:
            return outcome
        payload, replays = replayed
        for trial, replay in enumerate(replays):
            expected = run_trial(spec, trial, payload)
            if (replay.errors, replay.phase) != expected:
                raise CheckFailed(
                    f"trial {trial}: replay gave {(replay.errors, replay.phase)}, "
                    f"run_trial gave {expected}"
                )
            schedule, disk, interferer, pri, run_ms, lead_in, seed = replay.simulate_args
            quiet = dataclasses.replace(disk, noise_stddev_ms=0.0, wander_stddev_ms=0.0)
            with tracer.span("channel.simulate_noiseless"):
                simulate(schedule, quiet, interferer, pri, run_ms, lead_in, seed)
            key = (schedule, quiet, interferer, pri, run_ms, lead_in)
            outcome.counts.update(replay.counts)
            outcome.counts["channel.repeat_calls"] += key in self._seen
            outcome.counts["channel.overload_ms"] += overload_ms(
                schedule, disk, interferer, run_ms, lead_in
            )
            self._seen.add(key)
        return outcome


def robustness(seed: int, workdir: Path) -> TrialWorkload:
    return TrialWorkload(
        "robustness", seed, ROBUSTNESS_POINT, 3, ("none", "benchmark", "stress")
    )


def fine_probe(seed: int, workdir: Path) -> TrialWorkload:
    return TrialWorkload("fine_probe", seed, ChannelParams(2000, 10, 5, 0.9), 1, ("none",))


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI's main() in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class CliWorkload:
    """Each op is encode -> simulate -> decode, three main() calls through files.

    The commands use the CLI defaults a user would; simulate gets no
    --duration, so the trace ends right after the frame.
    """

    name = "cli_files"
    decodes = True
    bit_time_ms = 1000
    message_chars = 12
    alphabet = string.ascii_letters + string.digits + " "

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.schedule_path = workdir / "schedule.txt"
        self.trace_path = workdir / "trace.csv"

    def inputs(self, i: int) -> tuple[str, int]:
        rng = op_rng(self.name, self.seed, i)
        message = "".join(rng.choice(self.alphabet) for _ in range(self.message_chars))
        return message, rng.randrange(2**31)

    def _commands(self, message: str, channel_seed: int, noise: bool = True):
        noise_args = ["--noise", "moderate"] if noise else []
        return (
            ("cli.encode", ["encode", "--text", message, "--bt", str(self.bit_time_ms),
                            "--output", str(self.schedule_path)]),
            ("cli.simulate", ["simulate", str(self.schedule_path), "--pri", "10",
                              "--lead-in", "2000", *noise_args, "--seed", str(channel_seed),
                              "--output", str(self.trace_path)]),
            ("cli.decode", ["decode", str(self.trace_path), "--bt", str(self.bit_time_ms),
                            "--pri", "10", "--text"]),
        )

    def control(self) -> None:
        message, channel_seed = self.inputs(0)
        results = [call_cli(argv) for _, argv in self._commands(message, channel_seed, False)]
        if [r[0] for r in results] != [0, 0, 0] or results[-1][1] != message + "\n":
            raise CheckFailed(f"noiseless control run gave {results}")

    def run(self, inputs):
        return [call_cli(argv) for _, argv in self._commands(*inputs)]

    def run_traced(self, inputs, tracer: Tracer):
        results = []
        for name, argv in self._commands(*inputs):
            with tracer.span(name):
                results.append(call_cli(argv))
        return results

    def check(self, inputs, result, tracer) -> Outcome:
        message, _ = inputs
        codes = [code for code, _, _ in result]
        counts = Counter({"cli.exit_1": codes.count(1), "cli.exit_2": codes.count(2)})
        if codes[:2] != [0, 0] or codes[2] not in (0, 1):
            raise CheckFailed(f"exit codes {codes}: {[err for _, _, err in result]}")

        with tracer.span("bits.text_codec"):
            sent = bits_from_text(message)
        with tracer.span("framing.encapsulate"):
            frame = encapsulate(sent)
        with tracer.span("sender.encode_tcv"):
            tcv = encode_tcv(frame, self.bit_time_ms)
        with tracer.span("sender.build_schedule"):
            schedule = build_access_schedule(tcv, SenderConfig(self.bit_time_ms))
        if self.schedule_path.read_text(encoding="utf-8") != schedule.to_text():
            raise CheckFailed("encode wrote a schedule that differs from the API's")

        text = self.trace_path.read_text(encoding="utf-8")
        with tracer.span("channel.from_csv"):
            trace = ContentionTrace.from_csv(text)
        with tracer.span("channel.to_csv"):
            again = trace.to_csv()
        if ContentionTrace.from_csv(again) != trace:
            raise CheckFailed("trace does not survive from_csv(to_csv())")
        counts.update({
            "framing.payload_bits": len(sent),
            "sender.intervals": len(schedule.intervals),
            "channel.simulate.calls": 1,
            "channel.virtual_ms": len(trace.values_ms) * trace.probe_interval_ms,
            "channel.windows": len(trace.values_ms),
            "channel.csv_bytes": len(text.encode("utf-8")),
            "receiver.windows": len(trace.values_ms),
        })

        code, stdout, stderr = result[2]
        if code == 0:
            with tracer.span("bits.text_codec"):
                got = bits_from_text(stdout[:-1])  # print() added one newline
            return Outcome(1, len(sent), payload_errors(sent, got), (), counts)
        phase = stderr.removeprefix("decode failed during ").split(":")[0]
        if phase not in PHASES:
            raise CheckFailed(f"decode exit 1 without a phase: {stderr!r}")
        return Outcome(1, len(sent), len(sent), (phase,), counts)


class FramingWorkload:
    """Each op round-trips a batch of payloads of 0..512 bits through framing."""

    name = "framing_codec"
    decodes = False
    batch = 32
    max_bits = 512

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def inputs(self, i: int) -> list[tuple[int, ...]]:
        rng = op_rng(self.name, self.seed, i)
        return [
            tuple(rng.choices((0, 1), k=rng.randint(0, self.max_bits)))
            for _ in range(self.batch)
        ]

    def control(self) -> None:
        """Framing has no channel, so there is no noiseless control."""

    def run(self, batch):
        return [decapsulate(encapsulate(p)) for p in batch]

    def run_traced(self, batch, tracer: Tracer):
        out = []
        for payload in batch:
            with tracer.span("framing.encapsulate"):
                frame = encapsulate(payload)
            with tracer.span("framing.decapsulate"):
                out.append(decapsulate(frame))
        return out

    def check(self, batch, result, tracer) -> Outcome:
        if result != batch:
            raise CheckFailed("decapsulate(encapsulate(p)) != p")
        bits = sum(map(len, batch))
        return Outcome(payload_bits=bits, counts=Counter({"framing.payload_bits": bits}))


# Name -> factory(seed, workdir). Why each workload exists is in BENCHMARK.json.
WORKLOADS = {
    "robustness": robustness,
    "fine_probe": fine_probe,
    "cli_files": CliWorkload,
    "framing_codec": FramingWorkload,
}
