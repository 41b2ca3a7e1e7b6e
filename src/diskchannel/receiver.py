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

# Windows the onset scan tests before it tests the whole trace.
ONSET_PREFIX_WINDOWS = 1024

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
    """Phase 2 output: decisions and the final threshold."""

    decoded: Bits
    gab_final: float
    gab_history: tuple[float, ...] = ()


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
    # rounding then stays near size * eps * var, far below tol. Each array
    # below is written into a preallocated buffer, with the arithmetic and
    # order of the expression in its comment.
    n = values.size
    x = values - values.mean()
    s1 = np.empty(n + 1)  # [0, *cumsum(x)]
    s1[0] = 0.0
    np.cumsum(x, out=s1[1:])
    s2 = np.empty(n + 1)  # [0, *cumsum(x * x)]
    s2[0] = 0.0
    np.cumsum(np.multiply(x, x, out=x), out=s2[1:])
    tol = VARIANCE_EPSILON * s2[-1] / n

    n_variances = n - spb + 1
    # (s1[spb:] - s1[:-spb]) / spb, in x's buffer
    means = np.subtract(s1[spb:], s1[:-spb], out=x[:n_variances])
    means /= spb
    # (s2[spb:] - s2[:-spb]) / spb - means * means, padded with inf to
    # whole windows
    n_windows = n // spb
    grid = np.empty(n_windows * spb)
    variances = np.subtract(s2[spb:], s2[:-spb], out=grid[:n_variances])
    variances /= spb
    variances -= np.multiply(means, means, out=means)
    grid[n_variances:] = np.inf
    grid = grid.reshape(n_windows, spb)
    tied = grid <= grid.min(axis=1, keepdims=True) + tol
    tied[-1, n_variances - (n_windows - 1) * spb :] = True  # padding never breaks a tie
    contrast = ~tied.all(axis=1)
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
    averages: Sequence[float], config: DecoderConfig, offset_samples: int = 0
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
    Neither config nor offset_samples is read: config keeps the call
    shape of the other phases, and offset_samples the positional call
    that bench/workloads.py makes with the bit-start offset.

    Raises:
        ConstantSignal: every average is identical.
        AllOneClass: iteration degenerated into a single class.
        ValueError: fewer than two averages.
    """
    averages = np.asarray(averages, dtype=np.float64)
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

    The scan tests the first ONSET_PREFIX_WINDOWS windows, and the whole
    trace only when none of them fires. A cumulative sum is a sequential
    accumulate, so the prefix's sums equal the whole trace's bit for bit.
    """
    v = np.asarray(values, dtype=np.float64)
    onset = _onset_pass(v[:ONSET_PREFIX_WINDOWS])
    if onset == 0 and v.size > ONSET_PREFIX_WINDOWS:
        onset = _onset_pass(v)
    return onset


def _onset_pass(v: np.ndarray) -> int:
    first = ONSET_BASELINE_WINDOWS
    if v.size <= first:
        return 0
    s1 = np.cumsum(v)
    s2 = np.multiply(v, v)
    np.cumsum(s2, out=s2)
    # Window i is tested against the statistics of windows [0, i):
    # means + 3 * sqrt(max(mean_sq - means**2, 0)) + 1e-9, in place.
    counts = np.arange(first, v.size, dtype=np.float64)
    means = s1[first - 1 : -1]
    means /= counts
    bound = s2[first - 1 : -1]
    bound /= counts  # mean_sq
    bound -= np.square(means, out=counts)
    np.sqrt(np.maximum(bound, 0.0, out=bound), out=bound)
    bound *= 3.0
    bound += means
    bound += 1e-9
    hits = np.flatnonzero(v[first:] > bound)
    return int(hits[0]) + first if hits.size else 0


def decode_message(trace: ContentionTrace, config: DecoderConfig) -> Bits:
    """Run the full pipeline and return the recovered payload bits.

    The phases run in order: onset detection, bit-start detection,
    per-bit averaging, threshold decoding, symbol sync, frame sync and
    destuffing.

    Raises:
        DecodeError: any phase failed; .phase names the culprit and
            .cause carries the underlying error.
    """
    values = trace.values_ms
    onset = _run_phase("onset detection", find_transmission_onset, values)
    active = values[onset:]
    offset = _run_phase("bit-start detection", detect_bit_start, active, config)
    averages = _run_phase("per-bit averaging", per_bit_averages, active, offset, config)
    estimates = _run_phase("threshold decoding", decode_with_gab, averages, config)
    decoded = bytes(estimates.decoded)
    sync_end = _run_phase("symbol sync", symbol_sync, decoded)
    start, end = _run_phase("frame sync", frame_sync, decoded, sync_end)
    return _run_phase("destuffing", destuff_bits, decoded[start:end])


def _run_phase(phase: str, fn, *args):
    try:
        return fn(*args)
    except (DiskChannelError, ValueError) as exc:
        raise DecodeError(phase, exc) from exc
