#!/usr/bin/env python3
"""Benchmark of the diskchannel pipeline, one workload per process.

    python3 bench/run.py --workload robustness --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all      # every workload, one process each

Every workload is a closed loop with one client. --trace 0 measures the
end-to-end metrics with tracing off; --trace 1 first runs untraced for a
third of --seconds, then records spans around each call into diskchannel
and reports the per-layer metrics and the tracing overhead. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 only when every output check and
determinism check passed.
"""

import os

# Single-threaded numerics in this process and its children; this must
# happen before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / ".out"

if not (SRC / "diskchannel" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'diskchannel'} not found; run from a diskchannel checkout")
sys.path.insert(0, str(SRC))

import metrics  # noqa: E402
from tracing import NullTracer, Tracer, root_ids, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Ops every run completes: enough for 10 samples beyond p90, and the
# window over which outcomes and counts must repeat exactly per seed.
MIN_OPS = 100
SETUP_RUNS = 3
UNTRACED_SHARE = 1 / 3
HELD_OUT_SEED = 9001


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def prepare(name: str, seed: int, workdir: Path):
    """Set up a workload: generate it, run its control, warm up with one op."""
    workload = WORKLOADS[name](seed, workdir)
    workload.control()
    inputs = workload.inputs(-1)
    workload.check(inputs, workload.run(inputs), NullTracer())
    return workload


def measure_setup(args) -> float:
    """Median seconds from process start to ready-for-first-op, over fresh processes."""
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed)],
            stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            ready = perf_counter()
            child.communicate(timeout=120)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up process failed with exit code {child.returncode}")
        times.append(ready - start)
    return statistics.median(times)


def run_op(workload, i: int, tracer: Tracer | None):
    """Run and check op i; returns (op seconds, outcome)."""
    inputs = workload.inputs(i)
    if tracer is None:
        start = perf_counter()
        result = workload.run(inputs)
        seconds = perf_counter() - start
        return seconds, workload.check(inputs, result, NullTracer())
    with tracer.span("bench.op", trace_id=f"op{i}") as root:
        result = workload.run_traced(inputs, tracer)
    with tracer.span("bench.check", trace_id=f"op{i}"):
        outcome = workload.check(inputs, result, tracer)
    return root.duration, outcome


def run_loop(workload, seconds: float, min_ops: int, tracer: Tracer | None):
    """Ops 0, 1, ... until both seconds and min_ops are reached.

    Returns the seconds of each completed op, the outcome of every op
    (None where it failed) and the tracebacks of failed ops.
    """
    durations, outcomes, failures = [], [], []
    start = perf_counter()
    while len(outcomes) < min_ops or perf_counter() - start < seconds:
        try:
            op_seconds, outcome = run_op(workload, len(outcomes), tracer)
        except Exception:  # a failed op is counted; the loop goes on
            failures.append(traceback.format_exc())
            outcome = None
        else:
            durations.append(op_seconds)
        outcomes.append(outcome)
    return durations, outcomes, failures


def outcome_key(outcome):
    if outcome is None:
        return None
    return outcome.trials, outcome.payload_bits, outcome.bit_errors, outcome.failed_phases


def window_outcomes(workload, outcomes) -> dict:
    """Channel outcomes over the first MIN_OPS ops; deterministic per seed."""
    done = [o for o in outcomes[:MIN_OPS] if o is not None]
    trials = sum(o.trials for o in done)
    bits = sum(o.payload_bits for o in done)
    decode_failures = sum(len(o.failed_phases) for o in done)
    decodes = workload.decodes and trials > 0
    return {
        "ops": len(outcomes[:MIN_OPS]),
        "failed_ops": len(outcomes[:MIN_OPS]) - len(done),
        "trials": trials,
        "ber": sum(o.bit_errors for o in done) / bits if decodes else None,
        "decode_failure_rate": decode_failures / trials if decodes else None,
    }


def code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(BENCH_DIR.parent)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_repeat(args, record: dict) -> str | None:
    """Compare with an earlier run of the same code, workload, seed and mode."""
    folder = OUT_DIR / "determinism"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{args.workload}-seed{args.seed}-trace{args.trace}-{code_digest()[:16]}.json"
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier != record:
            return f"outcomes differ from an earlier run with this seed ({path.name})"
        return None
    pending = path.with_suffix(".tmp")
    pending.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    os.replace(pending, path)
    return None


def end_to_end(workload, args, problems: list[str]) -> tuple[dict, list, list]:
    setup_s = measure_setup(args)
    durations, outcomes, failures = run_loop(workload, args.seconds, MIN_OPS, None)
    first = outcome_key(outcomes[0])
    _, again = run_op(workload, 0, None)
    if outcome_key(again) != first:
        problems.append("op 0 gave a different outcome when run again after the loop")
    quality = window_outcomes(workload, outcomes)
    ms = [d * 1e3 for d in durations]
    p50 = metrics.percentile(ms, 50)
    p90 = metrics.percentile(ms, 90)
    values = {
        "ops_per_s": len(durations) / sum(durations),
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ber": quality["ber"],
        "decode_failure_rate": quality["decode_failure_rate"],
        "op_failure_rate": len(failures) / len(outcomes),
    }
    notes = {
        "op_ms_p50": f"n={len(ms)}",
        "op_ms_p90": f"n={len(ms)}, {sum(m > p90 for m in ms)} beyond",
        "setup_s": f"median of {SETUP_RUNS} processes",
        "ber": f"first {quality['ops']} ops, {quality['trials']} trials",
        "decode_failure_rate": f"first {quality['ops']} ops, {quality['trials']} trials",
    }
    for name, unit, _ in metrics.END_TO_END + metrics.OUTCOMES:
        value = values[name]
        shown = "n/a (no decoding)" if value is None else f"{value:.6g} {unit}"
        note = f"  ({notes[name]})" if name in notes and value is not None else ""
        print(f"{name:<22} {shown}{note}")
    return (
        {name: values[name] for name, _, _ in metrics.END_TO_END},
        outcomes,
        failures,
    )


def per_layer(workload, args, problems: list[str]) -> tuple[dict, list, list]:
    base_durations, base_outcomes, base_failures = run_loop(
        workload, args.seconds * UNTRACED_SHARE, 1, None
    )
    tracer = Tracer()
    durations, outcomes, failures = run_loop(
        workload, args.seconds * (1 - UNTRACED_SHARE), MIN_OPS, tracer
    )
    for i, (untraced, traced) in enumerate(zip(base_outcomes, outcomes)):
        if outcome_key(untraced) != outcome_key(traced):
            problems.append(f"op {i} gave different outcomes untraced and traced")
            break

    spans = tracer.spans
    own = self_times(spans)
    roots = root_ids(spans)
    tree_self: Counter = Counter()
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for s in spans:
        tree_self[roots[s.span_id]] += own[s.span_id]
        self_s[s.name] += own[s.span_id]
        calls[s.name] += 1
    for s in spans:
        if s.name == "bench.op" and abs(tree_self[s.span_id] - s.duration) > 1e-9:
            problems.append(f"self times of {s.trace_id} do not add up to its span")
            break
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    ops = len(durations)
    window: Counter = Counter()
    for o in outcomes[:MIN_OPS]:
        if o is not None:
            window.update(o.counts)
            window.update(f"receiver.failures.{metrics.PHASES[p]}" for p in o.failed_phases)
    virtual_ms = sum(o.counts["channel.virtual_ms"] for o in outcomes if o is not None)
    quality = window_outcomes(workload, outcomes)
    untraced_rate = len(base_durations) / sum(base_durations)
    traced_rate = ops / sum(durations)

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for name in metrics.SELF_TIME_SPANS:
        values[f"{name}.self_ms"] = self_s[name] * 1e3
        values[f"{name}.self_ms_per_op"] = self_s[name] * 1e3 / ops
    for name in metrics.CLI_SPANS:
        values[f"{name}.ms"] = ratio(self_s[name] * 1e3, calls[name])
    for name, _, _ in metrics.COUNTS:
        values[name] = window[name]
    values.update({
        "channel.virtual_s_per_host_s": ratio(virtual_ms, self_s["channel.simulate"] * 1e6),
        "channel.noiseless_share": ratio(
            self_s["channel.simulate_noiseless"], self_s["channel.simulate"]
        ),
        "channel.overload_share": ratio(window["channel.overload_ms"], window["channel.virtual_ms"]),
        "channel.repeat_schedule_share": ratio(
            window["channel.repeat_calls"], window["channel.simulate.calls"]
        ),
        "receiver.decode_ok_ratio": (
            1 - quality["decode_failure_rate"] if quality["decode_failure_rate"] is not None else 0.0
        ),
        "experiment.ber": quality["ber"] or 0.0,
        "experiment.decode_failure_rate": quality["decode_failure_rate"] or 0.0,
        "bench.op_failure_rate": len(failures) / len(outcomes),
        "bench.untraced_ops_per_s": untraced_rate,
        "bench.traced_ops_per_s": traced_rate,
        "bench.trace_overhead_share": 1 - traced_rate / untraced_rate,
    })
    print(f"traced {ops} ops after {len(base_durations)} untraced; "
          f"tracing overhead {values['bench.trace_overhead_share']:.2%} of ops_per_s")
    for name, unit, _ in metrics.PER_LAYER:
        print(f"{name:<40} {values[name]:.6g} {unit}")
    return values, outcomes, failures + base_failures


def bench(args) -> int:
    print("env " + json.dumps(environment(), sort_keys=True))
    problems: list[str] = []
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        workload = prepare(args.workload, args.seed, workdir)
        measure = per_layer if args.trace else end_to_end
        values, outcomes, failures = measure(workload, args, problems)
    finally:
        shutil.rmtree(workdir)

    record = window_outcomes(workload, outcomes)
    if args.trace:
        record["counts"] = {name: values[name] for name, _, _ in metrics.COUNTS}
    mismatch = check_repeat(args, record)
    if mismatch:
        problems.append(mismatch)
    if failures:
        problems.append(f"{len(failures)} of {len(outcomes)} ops failed; first:\n{failures[0]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    catalogue = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {
            metrics.check_metric_name(name): {"value": values[name], "unit": unit}
            for name, unit, _ in catalogue
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    codes = []
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        codes.append(subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
        ).returncode)
    return 0 if not any(codes) else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help=f"workload seed (hold out {HELD_OUT_SEED} to confirm claims)")
    parser.add_argument("--seconds", type=float, default=24.0, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR))
        try:
            prepare(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir)
        print("ready", flush=True)
        return 0
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
