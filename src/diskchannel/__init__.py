"""Covert timing channel over shared hard disk contention.

The sender encodes bits as timed bursts of disk access, the receiver
probes access latency and decodes the bit stream blind. This package
bundles the framing layer, the sender scheduling, a contention channel
simulator with noise and cross-traffic models, the four-phase decoder
and the error rate experiment harness behind the `diskchannel` CLI.
"""

from .bits import (
    Bits,
    bits_from_string,
    bits_from_text,
    bits_to_string,
    bits_to_text,
    random_bits,
)
from .channel import (
    NOISE_PRESETS,
    ContentionTrace,
    DiskModel,
    InterfererProfile,
    parse_channel_config,
    simulate,
)
from .errors import (
    AllOneClass,
    AmbiguousPhase,
    ConstantSignal,
    DecodeError,
    DegenerateInterval,
    DiskChannelError,
    LeadingZero,
    MalformedStuffing,
    NoEndMarker,
    NoStartMarker,
    SyncNotFound,
    WindowMismatch,
)
from .experiment import (
    OPERATING_POINTS,
    ROBUSTNESS_POINT,
    BerReport,
    ChannelParams,
    ExperimentSpec,
    reports_to_csv,
    robustness_scenarios,
    run_ber,
    scenarios_to_csv,
    sweep,
)
from .framing import (
    END_MARKER,
    START_MARKER,
    SYMBOL_SYNC,
    decapsulate,
    destuff_bits,
    encapsulate,
    frame_sync,
    stuff_bits,
    symbol_sync,
)
from .receiver import (
    BitEstimates,
    DecoderConfig,
    decode_message,
    decode_with_gab,
    detect_bit_start,
    find_transmission_onset,
    per_bit_averages,
)
from .sender import (
    AccessSchedule,
    SenderConfig,
    TimeChangeVector,
    build_access_schedule,
    encode_tcv,
)

__version__ = "0.1.0"

__all__ = [
    "AccessSchedule",
    "AllOneClass",
    "AmbiguousPhase",
    "BerReport",
    "BitEstimates",
    "Bits",
    "ChannelParams",
    "ConstantSignal",
    "ContentionTrace",
    "DecodeError",
    "DecoderConfig",
    "DegenerateInterval",
    "DiskChannelError",
    "DiskModel",
    "END_MARKER",
    "ExperimentSpec",
    "InterfererProfile",
    "LeadingZero",
    "MalformedStuffing",
    "NOISE_PRESETS",
    "NoEndMarker",
    "NoStartMarker",
    "OPERATING_POINTS",
    "ROBUSTNESS_POINT",
    "START_MARKER",
    "SYMBOL_SYNC",
    "SenderConfig",
    "SyncNotFound",
    "TimeChangeVector",
    "WindowMismatch",
    "bits_from_string",
    "bits_from_text",
    "bits_to_string",
    "bits_to_text",
    "build_access_schedule",
    "decapsulate",
    "decode_message",
    "decode_with_gab",
    "destuff_bits",
    "detect_bit_start",
    "encapsulate",
    "encode_tcv",
    "find_transmission_onset",
    "frame_sync",
    "parse_channel_config",
    "per_bit_averages",
    "random_bits",
    "reports_to_csv",
    "robustness_scenarios",
    "run_ber",
    "scenarios_to_csv",
    "simulate",
    "stuff_bits",
    "sweep",
    "symbol_sync",
]
