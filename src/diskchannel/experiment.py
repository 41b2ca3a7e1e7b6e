"""End-to-end bit error rate experiments.

A trial frames a pseudo-random payload, turns it into an access schedule,
simulates the shared disk under a chosen interferer and noise model, and
decodes the probe trace blind. Reports aggregate bit errors over several
trials with per-phase failure accounting; a trial whose decode raises is
charged the whole payload.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .bits import Bits, random_bits
from .channel import (
    INTERFERER_KINDS,
    ContentionTrace,
    DiskModel,
    InterfererProfile,
    noiseless_runs,
    noisy_windows,
    whole_windows,
)
from .errors import DecodeError
from .framing import encapsulate
from .receiver import DecoderConfig, decode_message
from .sender import AccessSchedule, SenderConfig, build_access_schedule, encode_tcv

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor


@dataclass(frozen=True)
class ChannelParams:
    """The four knobs that define an operating point."""

    bit_time_ms: int
    probe_interval_ms: int
    n_accessors: int = 5
    threshold: float = 0.9

    def __post_init__(self) -> None:
        # Building the two configs runs their checks.
        self.decoder, self.sender

    @property
    def sender(self) -> SenderConfig:
        return SenderConfig(self.bit_time_ms, self.n_accessors, self.threshold)

    @property
    def decoder(self) -> DecoderConfig:
        return DecoderConfig(self.bit_time_ms, self.probe_interval_ms)


# Operating points with workable error rates under moderate noise, from
# slow-and-careful to fast-and-loose. Bit time in ms, so the last row
# signals at 0.1 bit/s and the first at 1 bit/s.
OPERATING_POINTS: tuple[ChannelParams, ...] = (
    ChannelParams(1000, 40, 2, 0.4),
    ChannelParams(2000, 200, 5, 0.5),
    ChannelParams(3000, 200, 5, 0.65),
    ChannelParams(4000, 200, 5, 0.75),
    ChannelParams(5000, 200, 5, 0.8),
    ChannelParams(8000, 400, 5, 0.85),
    ChannelParams(10000, 400, 5, 0.9),
)

# Slowest, most conservative point; used for interferer robustness runs.
ROBUSTNESS_POINT = OPERATING_POINTS[-1]


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce a BER measurement."""

    params: ChannelParams
    payload_bits: int = 96
    n_trials: int = 10
    base_seed: int = 0
    payload_seed: int = 1234
    disk: DiskModel = field(default_factory=DiskModel)
    interferer: InterfererProfile = field(default_factory=InterfererProfile.none)
    lead_in_ms: int | None = None
    tail_ms: int | None = None

    def __post_init__(self) -> None:
        if self.payload_bits < 1:
            raise ValueError("payload_bits must be >= 1")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")


@dataclass(frozen=True)
class BerReport:
    params: ChannelParams
    interferer_kind: str
    n_trials: int
    payload_bits: int
    bit_errors: int
    decode_failures: int
    failure_phases: tuple[tuple[str, int], ...] = ()

    @property
    def total_bits(self) -> int:
        return self.n_trials * self.payload_bits

    @property
    def ber(self) -> float:
        return self.bit_errors / self.total_bits


def count_payload_errors(expected: Bits, got: Bits) -> int:
    """Hamming distance over the overlap plus any length mismatch, capped."""
    overlap = min(len(expected), len(got))
    errors = sum(1 for a, b in zip(expected[:overlap], got[:overlap]) if a != b)
    errors += abs(len(expected) - len(got))
    return min(errors, len(expected))


@dataclass(frozen=True, eq=False)
class Transmission:
    """One payload framed, scheduled and sent through the noiseless disk.

    This is the part of a trial that does not depend on its seed; every
    trial of a run_ber shares it and only draws its own noise. It keeps the
    noiseless raw trace as channel.noiseless_runs gives it, (latency, read
    count) runs, a few hundred entries in place of one per raw read.
    """

    params: ChannelParams
    disk: DiskModel
    schedule: AccessSchedule
    runs: tuple[np.ndarray, np.ndarray]

    def trace(self, seed: int) -> ContentionTrace:
        """The probe trace under this seed's noise, from noisy_windows.

        The buffer noisy_windows expands the runs into is the one
        trace-sized array of the trial.
        """
        return noisy_windows(self.runs, self.disk, self.params.probe_interval_ms, seed)


def payload_schedule(payload: Bits, sender: SenderConfig) -> AccessSchedule:
    """Frame the payload and plan the sender's accesses for the frame."""
    tcv = encode_tcv(encapsulate(payload), sender.bit_time_ms)
    return build_access_schedule(tcv, sender)


def run_length(
    schedule: AccessSchedule,
    pri_ms: int,
    lead_in_ms: int | None = None,
    tail_ms: int | None = None,
) -> tuple[int, int]:
    """Lead-in and total length in ms of the run that sends the schedule.

    The run is an idle lead-in (two bit times unless given), the schedule,
    an idle tail (one bit time unless given), rounded up to whole probing
    windows. A schedule of unknown bit time (0) gets neither by default.
    """
    bit_time = schedule.bit_time_ms
    lead_in = 2 * bit_time if lead_in_ms is None else lead_in_ms
    tail = bit_time if tail_ms is None else tail_ms
    return lead_in, whole_windows(lead_in + schedule.total_duration_ms + tail, pri_ms)


def prepare_transmission(
    params: ChannelParams,
    payload: Bits,
    disk: DiskModel,
    interferer: InterfererProfile,
    lead_in_ms: int | None = None,
    tail_ms: int | None = None,
) -> Transmission:
    """Frame and schedule the payload, then run it through the noiseless disk.

    The run's lead-in and length follow run_length.
    """
    pri = params.probe_interval_ms
    schedule = payload_schedule(payload, params.sender)
    lead_in, run_ms = run_length(schedule, pri, lead_in_ms, tail_ms)
    runs = noiseless_runs(schedule, disk, interferer, pri, run_ms, lead_in)
    return Transmission(params, disk, schedule, runs)


def _spec_transmission(spec: ExperimentSpec, payload: Bits) -> Transmission:
    return prepare_transmission(
        spec.params, payload, spec.disk, spec.interferer, spec.lead_in_ms, spec.tail_ms
    )


def _decode_trial(
    transmission: Transmission, seed: int, payload: Bits
) -> tuple[int, str | None]:
    try:
        decoded = decode_message(transmission.trace(seed), transmission.params.decoder)
    except DecodeError as exc:
        return len(payload), exc.phase
    return count_payload_errors(payload, decoded), None


def run_trial(spec: ExperimentSpec, trial: int, payload: Bits) -> tuple[int, str | None]:
    """One framed transmission; returns (bit errors, failed phase or None)."""
    transmission = _spec_transmission(spec, payload)
    return _decode_trial(transmission, spec.base_seed + trial, payload)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Helper threads that run trials beside the calling thread, one per other
# CPU, built on first use and kept for the process. Noise draws, the wander
# filter and the array arithmetic release the GIL, and they are most of a
# trial. The pool persists because one built per run_ber made a 3-trial run
# at ROBUSTNESS_POINT 1.0-1.9 ms (4-8%) slower at the median: 24.9 against
# 22.9 ms over 40 interleaved rounds, 2 CPUs.
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _trial_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            # Imported here, where it is first needed: the import takes ~10 ms.
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(
                _cpu_count() - 1, thread_name_prefix="diskchannel-trial"
            )
        return _pool


def _drop_pool() -> None:
    # A forked child has none of the parent's threads, and the lock may
    # have been held by one of them; the child builds its own pool.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _decode_trials(
    transmission: Transmission, seeds: range, payload: Bits
) -> list[tuple[int, str | None]]:
    """_decode_trial at each seed, results in seed order.

    The calling thread and one pool helper per other CPU, up to one thread
    per seed, each take the next seed until none is left; with one CPU or
    one seed the caller runs them all, through the same loop. Every trial
    has ended before a result or an error leaves, so no trial outlives the
    call, and the error raised is that of the first seed that failed.
    """
    helpers = min(_cpu_count(), len(seeds)) - 1
    outcomes: list = [None] * len(seeds)  # a result, or the error raised
    unclaimed = iter(range(len(seeds)))
    claim_lock = threading.Lock()

    def run_trials() -> None:
        while True:
            with claim_lock:
                i = next(unclaimed, None)
            if i is None:
                return
            try:
                outcomes[i] = _decode_trial(transmission, seeds[i], payload)
            except Exception as exc:
                outcomes[i] = exc

    running = [_trial_pool().submit(run_trials) for _ in range(helpers)]
    try:
        run_trials()
    finally:
        for helper in running:
            helper.exception()  # waits for it
    for helper in running:
        helper.result()
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def run_ber(spec: ExperimentSpec) -> BerReport:
    """Aggregate BER over spec.n_trials independent noise realisations.

    The payload is fixed by payload_seed so that every trial (and every
    scenario sharing the spec) transmits the same bits; only the channel
    seed varies, so the noiseless transmission is prepared once and each
    trial is run_trial's noise and decode on top of it. Trials run on the
    calling thread and one helper thread per other CPU the process may use,
    and the report is the same for any number of them.
    """
    payload = random_bits(spec.payload_bits, spec.payload_seed)
    transmission = _spec_transmission(spec, payload)
    seeds = range(spec.base_seed, spec.base_seed + spec.n_trials)
    bit_errors = 0
    phases: Counter[str] = Counter()
    for errors, failed_phase in _decode_trials(transmission, seeds, payload):
        bit_errors += errors
        if failed_phase is not None:
            phases[failed_phase] += 1
    return BerReport(
        params=spec.params,
        interferer_kind=spec.interferer.kind,
        n_trials=spec.n_trials,
        payload_bits=spec.payload_bits,
        bit_errors=bit_errors,
        decode_failures=sum(phases.values()),
        failure_phases=tuple(sorted(phases.items())),
    )


def sweep(spec: ExperimentSpec, axis: str, values) -> tuple[BerReport, ...]:
    """run_ber at each value of one ChannelParams field, rest held fixed."""
    names = {f.name for f in dataclasses.fields(ChannelParams)}
    if axis not in names:
        raise ValueError(f"unknown sweep axis {axis!r}, expected one of {sorted(names)}")
    reports = []
    for value in values:
        params = dataclasses.replace(spec.params, **{axis: value})
        reports.append(run_ber(dataclasses.replace(spec, params=params)))
    return tuple(reports)


def robustness_scenarios(spec: ExperimentSpec) -> tuple[BerReport, ...]:
    """BER under no, benchmark and stress interference with shared seeds."""
    profiles = (getattr(InterfererProfile, kind)() for kind in INTERFERER_KINDS)
    return tuple(run_ber(dataclasses.replace(spec, interferer=p)) for p in profiles)


CSV_HEADER = (
    "bit_time_ms,probe_interval_ms,n_accessors,threshold,"
    "interferer,trials,total_bits,bit_errors,decode_failures,ber"
)


def report_csv_row(report: BerReport) -> str:
    p = report.params
    cells = (
        p.bit_time_ms,
        p.probe_interval_ms,
        p.n_accessors,
        p.threshold,
        report.interferer_kind,
        report.n_trials,
        report.total_bits,
        report.bit_errors,
        report.decode_failures,
        report.ber,
    )
    return ",".join(str(c) for c in cells)


def reports_to_csv(reports) -> str:
    lines = [CSV_HEADER]
    lines.extend(report_csv_row(r) for r in reports)
    return "\n".join(lines) + "\n"


def scenarios_to_csv(reports) -> str:
    """reports_to_csv with a leading scenario column, the interferer kind."""
    lines = ["scenario," + CSV_HEADER]
    lines.extend(f"{r.interferer_kind},{report_csv_row(r)}" for r in reports)
    return "\n".join(lines) + "\n"
