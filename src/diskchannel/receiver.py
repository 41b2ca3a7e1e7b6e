"""Four-phase blind decoder for contention traces.

Phase 1 finds where bits start: the trace is cut into disjoint windows of
samples_per_bit samples, every same-length subsequence starting inside a
window is scored by variance, and the modal argmin offset across windows
wins (a correctly aligned window sits inside one bit and is nearly flat).
Offsets within a relative tolerance of a window's minimum tie and the
smallest votes; a window with no contrast at all (a noiseless plateau, or
a truncated last window with a single candidate) abstains.
Phase 2 averages each bit period and classifies against a threshold that
starts at the global average and is corrected from the class means.
Phase 3 locates the alternating preamble, phase 4 checks the start marker
and finds the end marker; both live in framing, beside the frame layout.
Destuffing the span in between yields the payload.

decode_message prepends a small onset detector that trims leading idle
before phase 1, so the receiver may start probing well before the sender
wakes up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bits import Bits
from .channel import ContentionTrace
from .errors import (
    AllOneClass,
    AmbiguousPhase,
    ConstantSignal,
    DecodeError,
    DiskChannelError,
)
from .framing import destuff_bits, frame_sync, symbol_sync

# Phase 1 tie tolerance, relative to the trace variance: offsets whose
# variances differ by at most VARIANCE_EPSILON * var(trace) tie. It sits
# 150x or more above the cumulative-sum rounding (about 3 * N * eps * var
# for traces of up to 10**6 samples); an absolute tolerance would fall
# below that rounding on long traces with a large spread.
VARIANCE_EPSILON = 1e-7

# Windows of idle baseline onset detection needs before it can trigger.
ONSET_BASELINE_WINDOWS = 4

# Upper bound on threshold correction rounds in decode_with_gab.
MAX_GAB_ITERATIONS = 16


@dataclass(frozen=True)
class DecoderConfig:
    """Receiver-side knobs.

    samples_per_bit = bit_time_ms / probe_interval_ms must be an integer.
    The designed operating range is >= 2 samples per bit; a value of 1 is
    accepted so that degenerate probing (window as long as a bit) can be
    driven on purpose, but phase 1 then has a single candidate offset per
    window, so no window shows a contrast and it raises AmbiguousPhase.
    """

    bit_time_ms: int
    probe_interval_ms: int

    def __post_init__(self) -> None:
        if self.bit_time_ms < 1:
            raise ValueError(f"bit_time_ms must be >= 1, got {self.bit_time_ms}")
        if self.probe_interval_ms < 1:
            raise ValueError(
                f"probe_interval_ms must be >= 1, got {self.probe_interval_ms}"
            )
        if self.bit_time_ms % self.probe_interval_ms != 0:
            raise ValueError(
                f"bit_time_ms {self.bit_time_ms} is not a multiple of "
                f"probe_interval_ms {self.probe_interval_ms}"
            )

    @property
    def samples_per_bit(self) -> int:
        return self.bit_time_ms // self.probe_interval_ms


@dataclass(frozen=True)
class BitEstimates:
    """Phase 2 output: averages, decisions and the final threshold."""

    offset_samples: int
    per_bit_avg: tuple[float, ...]
    decoded: Bits
    gab_final: float
    gab_history: tuple[float, ...] = ()


@dataclass
class DecodeDiagnostics:
    """Per-phase artifacts collected by decode_message_with_diagnostics.

    estimates is the threshold phase's output (offset, per-bit averages,
    decisions, threshold history), None until that phase has run.
    """

    onset_window: int = 0
    estimates: BitEstimates | None = None
    sync_end: int | None = None
    payload_span: tuple[int, int] | None = None


def detect_bit_start(trace: Sequence[float], config: DecoderConfig) -> int:
    """Modal minimum-variance offset of bit boundaries, in samples.

    Every samples_per_bit-long subsequence of the trace is scored by its
    variance, in O(N) from cumulative sums of the mean-centred values.
    The trace is cut into disjoint windows of samples_per_bit samples and
    each window votes among the subsequences starting inside it, with
    tol = VARIANCE_EPSILON * var(trace):

    - offsets within tol of the window's minimum variance tie, and the
      window votes the smallest of them;
    - a window whose candidates all lie within tol of each other is flat
      and abstains (noiseless plateaus, where every offset fits, and a
      truncated last window with a single candidate);
    - the offset with the most votes wins, a tie going to the smaller.

    Raises:
        AmbiguousPhase: no window has two or more candidates whose
            variances spread by more than tol, so no offset is better
            than any other.
        ValueError: trace shorter than three bit times.
    """
    values = np.asarray(trace, dtype=np.float64)
    spb = config.samples_per_bit
    if values.size < 3 * spb:
        raise ValueError(
            f"need at least {3 * spb} samples for phase detection, "
            f"got {values.size}"
        )
    # Centring keeps a large DC level out of the cumulative sums, whose
    # rounding then stays near size * eps * var, far below tol.
    x = values - values.mean()
    s1 = np.concatenate(([0.0], np.cumsum(x)))
    s2 = np.concatenate(([0.0], np.cumsum(x * x)))
    means = (s1[spb:] - s1[:-spb]) / spb
    variances = (s2[spb:] - s2[:-spb]) / spb - means * means
    tol = VARIANCE_EPSILON * s2[-1] / values.size

    n_windows = values.size // spb
    grid = np.full(n_windows * spb, np.inf)
    grid[: variances.size] = variances
    grid = grid.reshape(n_windows, spb)
    tied = grid <= grid.min(axis=1, keepdims=True) + tol
    n_candidates = np.full(n_windows, spb)
    n_candidates[-1] = variances.size - (n_windows - 1) * spb
    contrast = tied.sum(axis=1) < n_candidates
    if not contrast.any():
        raise AmbiguousPhase(
            "no sampling offset shows a variance contrast above "
            f"{VARIANCE_EPSILON} of the trace variance"
        )
    votes = tied.argmax(axis=1)[contrast]
    return int(np.argmax(np.bincount(votes, minlength=spb)))


def per_bit_averages(
    trace: Sequence[float], offset: int, config: DecoderConfig
) -> tuple[float, ...]:
    """Mean of each consecutive bit-period group starting at offset.

    A trailing partial group is discarded.
    """
    spb = config.samples_per_bit
    if not 0 <= offset < spb:
        raise ValueError(f"offset must be in [0, {spb}), got {offset}")
    values = np.asarray(trace, dtype=np.float64)[offset:]
    n_bits = values.size // spb
    if n_bits == 0:
        return ()
    means = values[: n_bits * spb].reshape(n_bits, spb).mean(axis=1)
    return tuple(float(m) for m in means)


def decode_with_gab(
    per_bit_avg: Sequence[float], config: DecoderConfig, offset_samples: int = 0
) -> BitEstimates:
    """Classify per-bit averages against an iteratively corrected threshold.

    The initial threshold is the global average. Each round computes the
    class means V1/V0 and counts N1/N0 of the current decisions and moves
    the current threshold by -(N1 - N0) * (V1 - V0) / (2 * (N1 + N0)).
    Only the first round, which starts from the global average, lands on
    the class midpoint and so cancels the bias a skewed 1/0 mix puts on
    the average. Later rounds subtract the shift from a threshold that has
    already moved, so they can overshoot the midpoint, and on a skewed mix
    run away into a single class. Iteration stops when the classification
    stabilises, when both classes are equally large, or after
    MAX_GAB_ITERATIONS.
    config is not read; it keeps the call shape of the other phases.

    Raises:
        ConstantSignal: every average is identical.
        AllOneClass: iteration degenerated into a single class.
        ValueError: fewer than two averages.
    """
    averages = np.asarray(per_bit_avg, dtype=np.float64)
    if averages.size < 2:
        raise ValueError("need at least two per-bit averages")
    if np.all(averages == averages[0]):
        raise ConstantSignal("per-bit averages are constant")
    gab = float(averages.mean())
    history = [gab]
    decoded = averages > gab
    for _ in range(MAX_GAB_ITERATIONS):
        n1 = int(decoded.sum())
        n0 = decoded.size - n1
        if n1 == 0 or n0 == 0:
            raise AllOneClass("threshold iteration left a single class")
        if n1 == n0:
            break
        v1 = float(averages[decoded].mean())
        v0 = float(averages[~decoded].mean())
        gab = gab - (n1 - n0) * (v1 - v0) / (2.0 * (n1 + n0))
        history.append(gab)
        next_decoded = averages > gab
        if np.array_equal(next_decoded, decoded):
            break
        decoded = next_decoded
    return BitEstimates(
        offset_samples=offset_samples,
        per_bit_avg=tuple(float(a) for a in averages),
        decoded=tuple(int(b) for b in decoded),
        gab_final=gab,
        gab_history=tuple(history),
    )


def find_transmission_onset(values: Sequence[float]) -> int:
    """First window that jumps above the trailing mean + 3 sigma, else 0.

    Only windows after the first ONSET_BASELINE_WINDOWS can trigger, each
    against the mean and sigma of all windows before it. Returning 0 when
    nothing triggers keeps short or already-hot traces usable; phase 1's
    modal vote absorbs a bit of leading idle anyway.
    """
    v = np.asarray(values, dtype=np.float64)
    first = ONSET_BASELINE_WINDOWS
    if v.size <= first:
        return 0
    counts = np.arange(1, v.size + 1, dtype=np.float64)
    means = np.cumsum(v) / counts
    mean_sq = np.cumsum(v * v) / counts
    stds = np.sqrt(np.maximum(mean_sq - means**2, 0.0))
    thresholds = (means + 3.0 * stds)[first - 1 : -1]
    hits = np.nonzero(v[first:] > thresholds + 1e-9)[0]
    if hits.size == 0:
        return 0
    return int(hits[0]) + first


def decode_message(trace: ContentionTrace, config: DecoderConfig) -> Bits:
    """Run the full pipeline and return the recovered payload bits.

    Raises:
        DecodeError: any phase failed; .phase names the culprit and
            .cause carries the underlying error.
    """
    payload, _ = decode_message_with_diagnostics(trace, config)
    return payload


def decode_message_with_diagnostics(
    trace: ContentionTrace, config: DecoderConfig
) -> tuple[Bits, DecodeDiagnostics]:
    """decode_message, also returning the artifacts of the phases that ran."""
    diag = DecodeDiagnostics()
    values = trace.values()

    onset = _run_phase("onset detection", find_transmission_onset, values)
    diag.onset_window = onset
    active = values[onset:]

    offset = _run_phase("bit-start detection", detect_bit_start, active, config)
    averages = _run_phase("per-bit averaging", per_bit_averages, active, offset, config)
    estimates = _run_phase(
        "threshold decoding", decode_with_gab, averages, config, offset
    )
    diag.estimates = estimates
    decoded = bytes(estimates.decoded)

    sync_end = _run_phase("symbol sync", symbol_sync, decoded)
    diag.sync_end = sync_end

    span = _run_phase("frame sync", frame_sync, decoded, sync_end)
    diag.payload_span = span

    payload = _run_phase("destuffing", destuff_bits, decoded[span[0] : span[1]])
    return payload, diag


def _run_phase(phase: str, fn, *args):
    try:
        return fn(*args)
    except (DiskChannelError, ValueError) as exc:
        raise DecodeError(phase, exc) from exc
