"""Timing-side encoding: message bits to run durations to an access plan.

A message is first turned into a time change vector, the run-length view
of the bit stream as alternating access and idle durations. The schedule
builder then shortens the tail of every access run by the kill lead
(1 - threshold) * bit_time, which models the time needed to stop the
accessor tasks before the next idle bit begins. All accessor tasks run
the same intervals; their count only scales the contention amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable

from .bits import as_bits
from .errors import DegenerateInterval, LeadingZero


@dataclass(frozen=True)
class SenderConfig:
    """Sender-side knobs.

    threshold is the fraction of the final bit time of each access run
    that stays active before the accessors are killed (0 < threshold <= 1).
    """

    bit_time_ms: int
    n_accessors: int = 5
    threshold: float = 0.9

    def __post_init__(self) -> None:
        if self.bit_time_ms < 1:
            raise ValueError(f"bit_time_ms must be >= 1, got {self.bit_time_ms}")
        if self.n_accessors < 1:
            raise ValueError(f"n_accessors must be >= 1, got {self.n_accessors}")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")

    @property
    def kill_lead_ms(self) -> int:
        """How long before a run's last bit ends the accessors are stopped."""
        return round((1.0 - self.threshold) * self.bit_time_ms)


@dataclass(frozen=True)
class TimeChangeVector:
    """Alternating access/idle durations in ms; the first entry is access."""

    durations: tuple[int, ...]

    def total_ms(self) -> int:
        return sum(self.durations)


@dataclass(frozen=True)
class AccessSchedule:
    """Concrete access plan shared by every accessor task.

    intervals are half-open [start_ms, end_ms) windows during which all
    n_accessors tasks hammer the disk. total_duration_ms covers the whole
    message including any trailing idle run. bit_time_ms is the bit time
    the schedule was built with, 0 where it is unknown.
    """

    intervals: tuple[tuple[int, int], ...]
    n_accessors: int
    total_duration_ms: int
    bit_time_ms: int = 0

    def to_text(self) -> str:
        """Serialise as one 'accessor_id start_ms end_ms' line per task.

        A '# total_duration_ms N' comment carries the full message span,
        which can exceed the last interval end by the kill lead residue,
        and a '# bit_time_ms N' comment the bit time.
        """
        lines = [f"# total_duration_ms {self.total_duration_ms}"]
        lines.append(f"# bit_time_ms {self.bit_time_ms}")
        for accessor in range(self.n_accessors):
            for start, end in self.intervals:
                lines.append(f"{accessor} {start} {end}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "AccessSchedule":
        """Parse the line format written by to_text.

        Without the total_duration_ms comment the total falls back to the
        last interval end, losing any trailing idle tail. Without the
        bit_time_ms comment, as in older files, the bit time is 0.
        """
        per_accessor: dict[int, list[tuple[int, int]]] = {}
        comments: dict[str, int] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] in ("total_duration_ms", "bit_time_ms"):
                    comments[parts[0]] = int(parts[1])
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'accessor start end'")
            accessor, start, end = (int(p) for p in parts)
            per_accessor.setdefault(accessor, []).append((start, end))
        if not per_accessor:
            raise ValueError("schedule text contains no intervals")
        if sorted(per_accessor) != list(range(len(per_accessor))):
            raise ValueError("accessor ids must be contiguous from 0")
        first = per_accessor[0]
        for accessor, intervals in per_accessor.items():
            if intervals != first:
                raise ValueError(
                    f"accessor {accessor} intervals differ from accessor 0"
                )
        last_end = max(end for _, end in first)
        total = comments.get("total_duration_ms", last_end)
        if total < last_end:
            raise ValueError(
                f"total_duration_ms {total} ends before the last interval at {last_end}"
            )
        bit_time = comments.get("bit_time_ms", 0)
        if bit_time < 0:
            raise ValueError(f"bit_time_ms must be >= 0, got {bit_time}")
        return cls(tuple(first), len(per_accessor), total, bit_time)


def encode_tcv(message: Iterable[int], bit_time_ms: int) -> TimeChangeVector:
    """Run-length encode a bit message into alternating durations.

    The message must start with 1 so the first duration is an access run;
    the framing layer guarantees this for real transmissions.

    Raises:
        LeadingZero: the first bit is 0.
        ValueError: empty message or invalid bit values.
    """
    message = as_bits(message)
    if bit_time_ms < 1:
        raise ValueError(f"bit_time_ms must be >= 1, got {bit_time_ms}")
    if not message:
        raise ValueError("message is empty")
    if message[0] != 1:
        raise LeadingZero("message must start with a 1 (access) bit")
    durations = tuple(
        sum(1 for _ in group) * bit_time_ms for _, group in groupby(message)
    )
    return TimeChangeVector(durations)


def build_access_schedule(
    tcv: TimeChangeVector, config: SenderConfig
) -> AccessSchedule:
    """Turn a time change vector into concrete access intervals.

    Every access run of duration D becomes [t, t + D - kill_lead); the
    following run still starts exactly at t + D, so the bit grid is kept.

    Raises:
        DegenerateInterval: an access run would close before it opens.
        ValueError: durations that are not positive multiples of bit_time.
    """
    bt = config.bit_time_ms
    for d in tcv.durations:
        if d < bt or d % bt != 0:
            raise ValueError(
                f"durations must be positive multiples of bit_time_ms, got {d}"
            )
    kill_lead = config.kill_lead_ms
    intervals: list[tuple[int, int]] = []
    t = 0
    for index, duration in enumerate(tcv.durations):
        if index % 2 == 0:  # access run
            end = t + duration - kill_lead
            if end <= t:
                raise DegenerateInterval(
                    f"kill lead {kill_lead} ms swallows a {duration} ms access run"
                )
            intervals.append((t, end))
        t += duration
    return AccessSchedule(
        intervals=tuple(intervals),
        n_accessors=config.n_accessors,
        total_duration_ms=t,
        bit_time_ms=bt,
    )
