"""Decode-outcome ledger: what the pipeline decodes, trial by trial.

The ledger pins every decode outcome of a fixed matrix of runs, so a
change that moves one shows up as a diff of tests/ledger.csv:

- one row per trial, (bit errors, failed phase or "-"), for every
  OPERATING_POINTS row and for ROBUSTNESS_POINT under each interferer,
  under moderate and harsh noise, at base seeds 0 and 9001, 10 trials
  each, with run_ber's default payload;
- one row per in-process CLI main() call of transmit, sweep and
  robustness at seeds 0-3 under moderate and harsh noise: its exit code
  and the sha256 of its stdout and of its stderr.

tests/test_ledger.py rebuilds the rows and compares them with the file.
A change that moves outcomes on purpose rewrites the file with

    PYTHONPATH=src python tests/ledger.py

and lists each changed row.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from pathlib import Path

from diskchannel import (
    OPERATING_POINTS,
    ROBUSTNESS_POINT,
    DiskModel,
    ExperimentSpec,
    InterfererProfile,
    random_bits,
)
from diskchannel.channel import INTERFERER_KINDS
from diskchannel.cli import main
from diskchannel.experiment import run_trial

PATH = Path(__file__).with_name("ledger.csv")
NOISES = ("moderate", "harsh")
BASE_SEEDS = (0, 9001)
TRIALS = 10
CLI_SEEDS = range(4)
CLI_COMMANDS = (
    ("transmit", "--text", "ledger", "--bt", "2000", "--pri", "100"),
    ("sweep", "--axis", "th", "--values", "0.6,0.8", "--bt", "2000", "--pri", "200",
     "--trials", "3", "--payload-bits", "32"),
    ("robustness", "--trials", "2", "--payload-bits", "32"),
)
TRIAL_HEADER = (
    "bit_time_ms", "probe_interval_ms", "n_accessors", "threshold",
    "interferer", "noise", "seed", "bit_errors", "failed_phase",
)
CLI_HEADER = ("argv", "exit", "stdout_sha256", "stderr_sha256")


def trial_rows():
    """One row per trial; ROBUSTNESS_POINT with no interferer is listed once."""
    points = [(params, "none") for params in OPERATING_POINTS]
    points += [(ROBUSTNESS_POINT, kind) for kind in INTERFERER_KINDS]
    for params, kind in dict.fromkeys(points):
        for noise in NOISES:
            for base_seed in BASE_SEEDS:
                spec = ExperimentSpec(
                    params,
                    n_trials=TRIALS,
                    base_seed=base_seed,
                    disk=DiskModel.preset(noise),
                    interferer=getattr(InterfererProfile, kind)(),
                )
                payload = random_bits(spec.payload_bits, spec.payload_seed)
                for trial in range(TRIALS):
                    errors, phase = run_trial(spec, trial, payload)
                    yield (
                        params.bit_time_ms, params.probe_interval_ms,
                        params.n_accessors, params.threshold, kind, noise,
                        base_seed + trial, errors, phase or "-",
                    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_rows():
    """One row per main() call: argv, exit code, stdout and stderr digests."""
    for command in CLI_COMMANDS:
        for noise in NOISES:
            for seed in CLI_SEEDS:
                argv = [*command, "--noise", noise, "--seed", str(seed)]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                yield " ".join(argv), code, _sha256(out.getvalue()), _sha256(err.getvalue())


def ledger_lines() -> list[str]:
    """The ledger file's lines, without line ends."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(TRIAL_HEADER)
    writer.writerows(trial_rows())
    writer.writerow(CLI_HEADER)
    writer.writerows(cli_rows())
    return text.getvalue().splitlines()


if __name__ == "__main__":
    PATH.write_text("\n".join(ledger_lines()) + "\n", encoding="utf-8")
