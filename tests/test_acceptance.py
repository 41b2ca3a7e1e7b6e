"""Acceptance suite: one test per shipping criterion.

Every test prints a single PASS/FAIL line (run with -s to watch them) and
then asserts, so a red criterion is visible in both the stream and the
pytest report. Experiments use seeded virtual-time simulation throughout;
the whole module runs in well under a minute.
"""

import dataclasses
import itertools
import random
import time

from diskchannel import (
    OPERATING_POINTS,
    ChannelParams,
    DecoderConfig,
    DiskModel,
    ExperimentSpec,
    InterfererProfile,
    SenderConfig,
    build_access_schedule,
    decapsulate,
    decode_message,
    decode_with_gab,
    detect_bit_start,
    encapsulate,
    encode_tcv,
    find_transmission_onset,
    random_bits,
    robustness_scenarios,
    run_ber,
    simulate,
    stuff_bits,
)
from diskchannel.cli import main
from oracles import bit_start_vote_loop, round_up, stuffed_runs_ok


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {criterion}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def moderate() -> DiskModel:
    return DiskModel.preset("moderate")


def test_c01_framing_round_trip_exhaustive_and_random():
    started = time.monotonic()
    ok = True
    for length in range(17):
        for payload in itertools.product((0, 1), repeat=length):
            stuffed = stuff_bits(payload)
            if not stuffed_runs_ok(stuffed):
                ok = False
            if decapsulate(encapsulate(payload)) != payload:
                ok = False
    rng = random.Random(2024)
    for _ in range(1000):
        payload = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 512)))
        if decapsulate(encapsulate(payload)) != payload:
            ok = False
        if not stuffed_runs_ok(stuff_bits(payload)):
            ok = False
    elapsed = time.monotonic() - started
    report(
        "01 framing round-trip (exhaustive <=16 + 1000 random <=512)",
        ok and elapsed < 5.0,
        f"{elapsed:.2f}s",
    )


def test_c02_run_length_encoding_reference_vectors():
    a = encode_tcv((1, 0, 1, 0), 5000).durations
    b = encode_tcv((1, 0, 1, 1, 1, 0, 0, 0, 0), 3000).durations
    ok = a == (5000, 5000, 5000, 5000) and b == (3000, 3000, 9000, 12000)
    report("02 run-length durations match reference vectors", ok, f"{a} / {b}")


def test_c03_threshold_trims_access_run_tail():
    schedule = build_access_schedule(
        encode_tcv((1, 1, 1, 1), 300), SenderConfig(300, threshold=0.9)
    )
    access_ms = sum(end - start for start, end in schedule.intervals)
    report("03 threshold keeps 1170 ms of a 4x300 ms run", access_ms == 1170,
           f"{access_ms} ms")


def test_c04_threshold_correction_reference_case():
    estimates = decode_with_gab(
        [10.0, 10.0, 10.0, 2.0], DecoderConfig(1000, 200)
    )
    first_shift = estimates.gab_history[0] - estimates.gab_history[1]
    n1, n0, v1, v0 = 3, 1, 10.0, 2.0
    formula = 0.5 * abs(n1 - n0) * (v1 - v0) / (n1 + n0)
    ok = (
        estimates.decoded == (1, 1, 1, 0)
        and estimates.gab_final == 6.0
        and first_shift == 2.0
        and formula == 2.0
    )
    report("04 corrected decision level converges to 6 and decodes 1110", ok,
           f"final={estimates.gab_final}, shift={first_shift}")


def _ber_at(params: ChannelParams, disk: DiskModel, n_trials: int,
            payload_seed: int = 1234, interferer: InterfererProfile | None = None):
    spec = ExperimentSpec(
        params=params,
        payload_bits=96,
        n_trials=n_trials,
        payload_seed=payload_seed,
        disk=disk,
        interferer=interferer or InterfererProfile.none(),
    )
    return run_ber(spec)


def test_c05_operating_points_error_free_when_noiseless():
    started = time.monotonic()
    noiseless_ok = True
    worst = 0.0
    for params in OPERATING_POINTS:
        for rep in range(3):
            ber = _ber_at(params, DiskModel(), 1, payload_seed=1234 + rep).ber
            worst = max(worst, ber)
            if ber != 0.0:
                noiseless_ok = False
    slow = _ber_at(OPERATING_POINTS[-1], moderate(), 20).ber
    mid = _ber_at(OPERATING_POINTS[4], moderate(), 20).ber
    elapsed = time.monotonic() - started
    ok = noiseless_ok and slow == 0.0 and mid < 0.10 and elapsed < 30.0
    report(
        "05 all operating points at BER 0 noiseless; slow rows hold under noise",
        ok,
        f"noiseless worst={worst}, 0.1bps={slow}, 0.2bps={mid}, {elapsed:.1f}s",
    )


def test_c06_bit_grid_recovered_for_every_start_offset():
    bit_time, pri = 2000, 200
    payload = random_bits(96, 1234)
    schedule = build_access_schedule(
        encode_tcv(encapsulate(payload), bit_time), SenderConfig(bit_time)
    )
    config = DecoderConfig(bit_time, pri)
    ok = True
    details = []
    for lead_in in range(0, bit_time, pri):
        run_ms = round_up(lead_in + schedule.total_duration_ms + bit_time, pri)
        trace = simulate(
            schedule, DiskModel(), InterfererProfile.none(), pri, run_ms,
            lead_in, seed=0,
        )
        if decode_message(trace, config) != payload:
            ok = False
            details.append(f"decode@{lead_in}")
        values = list(trace.values_ms)
        active = values[find_transmission_onset(values):]
        got = detect_bit_start(active, config)
        want = bit_start_vote_loop(active, config.samples_per_bit)
        if got != want:
            ok = False
            details.append(f"offset@{lead_in}: {got}!={want}")
    report("06 every start offset decodes exactly and matches the vote oracle",
           ok, ", ".join(details) or f"{bit_time // pri} offsets")


def test_c07_probe_window_sweep_fails_only_at_bit_time():
    params = ChannelParams(10_000, 400, 5, 0.9)
    interior = {}
    for pri in (40, 200, 400, 1000, 2000, 5000):
        p = dataclasses.replace(params, probe_interval_ms=pri)
        interior[pri] = _ber_at(p, moderate(), 20).ber
    at_bit_time = _ber_at(
        dataclasses.replace(params, probe_interval_ms=10_000), moderate(), 20
    ).ber
    worst_interior = max(interior.values())
    ok = worst_interior < 0.02 and at_bit_time > max(10 * worst_interior, 0.1)
    report(
        "07 probe windows inside the bit time stay clean; window = bit time fails",
        ok,
        f"interior max={worst_interior}, at bit time={at_bit_time}",
    )


def test_c08_background_load_ordering():
    spec = ExperimentSpec(
        params=ChannelParams(10_000, 400, 5, 0.9),
        payload_bits=96,
        n_trials=20,
        disk=moderate(),
    )
    bers = {r.interferer_kind: r.ber for r in robustness_scenarios(spec)}
    ok = (
        bers["none"] == 0.0
        and bers["benchmark"] == 0.0
        and bers["stress"] > bers["benchmark"]
        and bers["stress"] > 0.05
    )
    report("08 idle and benchmark load stay clean, stress load degrades", ok,
           f"{bers}")


def test_c09_cli_output_is_deterministic(capsys, tmp_path):
    schedule = tmp_path / "s.txt"
    main(["encode", "--bits", "110100", "--bt", "500", "--output", str(schedule)])
    capsys.readouterr()
    invocations = [
        ["simulate", str(schedule), "--pri", "100", "--noise", "harsh",
         "--seed", "11", "--lead-in", "700"],
        ["probe", "--pri", "100", "--duration", "3000", "--noise", "moderate",
         "--seed", "3", "--interferer", "benchmark"],
        ["sweep", "--axis", "th", "--values", "0.8,0.9", "--bt", "500",
         "--pri", "100", "--trials", "2", "--payload-bits", "24",
         "--noise", "moderate", "--seed", "42"],
    ]
    ok = True
    for argv in invocations:
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        second = capsys.readouterr().out
        if first != second or not first:
            ok = False
    report("09 repeated CLI invocations emit byte-identical CSV", ok,
           f"{len(invocations)} invocations x2")


def test_c10_accessor_sweep_has_interior_plateau():
    params = ChannelParams(1000, 200, 5, 0.9)
    bers = {}
    for n in range(1, 17):
        p = dataclasses.replace(params, n_accessors=n)
        bers[n] = _ber_at(p, moderate(), 6).ber
    plateau_ok = all(
        bers[n] < bers[1] and bers[n] < bers[16] for n in range(4, 13)
    )
    report(
        "10 accessor sweep: low plateau for 4..12, elevated at both edges",
        plateau_ok,
        f"n=1: {bers[1]:.3f}, n=4..12 max: {max(bers[n] for n in range(4, 13)):.3f}, "
        f"n=16: {bers[16]:.3f}",
    )
