"""Metric catalogue, metric-name check and the percentile rule.

BENCHMARK.json lists the same metrics; test_bench.py keeps the two equal.
"""

from __future__ import annotations

import re

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_name(name: str) -> str:
    """Return name if it is a valid metric name, else raise ValueError."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def percentile(samples, q: int, min_beyond: int = 10) -> float:
    """Nearest-rank q-th percentile of samples.

    Raises ValueError unless at least min_beyond samples rank above it,
    so a reported tail percentile always rests on enough samples.
    """
    ordered = sorted(samples)
    rank = -(-q * len(ordered) // 100)
    if rank < 1 or len(ordered) - rank < min_beyond:
        raise ValueError(
            f"p{q} of {len(ordered)} samples has fewer than {min_beyond} beyond it"
        )
    return ordered[rank - 1]


# Untraced run: (name, unit, better). The last three are channel and
# correctness outcomes; they are printed for reading, not in the JSON line,
# because they are 0 on some workloads and vary with the seed far more than
# any bound allows.
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
OUTCOMES = (
    ("ber", "ratio", "lower"),
    ("decode_failure_rate", "ratio", "lower"),
    ("op_failure_rate", "ratio", "lower"),
)

# Span names whose self time is reported, summed per run and per op.
# bench.op is the op's root span: its self time is benchmark glue.
SELF_TIME_SPANS = (
    "bits.random_bits",
    "bits.text_codec",
    "framing.encapsulate",
    "framing.decapsulate",
    "sender.encode_tcv",
    "sender.build_schedule",
    "channel.simulate",
    "channel.to_csv",
    "channel.from_csv",
    "receiver.onset",
    "receiver.bit_start",
    "receiver.averaging",
    "receiver.threshold",
    "receiver.symbol_sync",
    "receiver.frame_sync",
    "receiver.destuff",
    "experiment.trial",
    "experiment.report_csv",
    "bench.op",
)
CLI_SPANS = ("cli.encode", "cli.simulate", "cli.decode")

# DecodeError.phase -> short phase name used in metric names.
PHASES = {
    "onset detection": "onset",
    "bit-start detection": "bit_start",
    "per-bit averaging": "averaging",
    "threshold decoding": "threshold",
    "symbol sync": "symbol_sync",
    "frame sync": "frame_sync",
    "destuffing": "destuff",
}

# Counts over the determinism window: identical for two runs of one seed.
COUNTS = (
    ("framing.payload_bits", "bit", "lower"),
    ("sender.intervals", "count", "lower"),
    ("channel.simulate.calls", "count", "lower"),
    ("channel.virtual_ms", "ms", "lower"),
    ("channel.windows", "count", "lower"),
    ("channel.csv_bytes", "B", "lower"),
    ("receiver.windows", "count", "lower"),
    ("receiver.bits", "count", "lower"),
    ("receiver.gab_iterations", "count", "lower"),
    ("cli.exit_1", "count", "lower"),
    ("cli.exit_2", "count", "lower"),
) + tuple((f"receiver.failures.{p}", "count", "lower") for p in PHASES.values())

RATIOS = (
    ("channel.virtual_s_per_host_s", "s/s", "higher"),
    ("channel.noiseless_share", "ratio", "higher"),
    ("channel.overload_share", "ratio", "lower"),
    ("channel.repeat_schedule_share", "ratio", "higher"),
    ("receiver.decode_ok_ratio", "ratio", "higher"),
    ("experiment.ber", "ratio", "lower"),
    ("experiment.decode_failure_rate", "ratio", "lower"),
    ("bench.op_failure_rate", "ratio", "lower"),
    ("bench.untraced_ops_per_s", "1/s", "higher"),
    ("bench.traced_ops_per_s", "1/s", "higher"),
    ("bench.trace_overhead_share", "ratio", "lower"),
)

PER_LAYER = (
    tuple(
        (f"{span}.{what}", "ms", "lower")
        for span in SELF_TIME_SPANS
        for what in ("self_ms", "self_ms_per_op")
    )
    + tuple((f"{span}.ms", "ms", "lower") for span in CLI_SPANS)
    + COUNTS
    + RATIOS
)
