import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import diskchannel

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def parse(path) -> ast.Module:
    return ast.parse(Path(path).read_text(encoding="utf-8"))


def test_all_lists_exactly_the_names_init_binds():
    body = parse(diskchannel.__file__).body
    bound = {
        alias.asname or alias.name
        for node in body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    bound |= {
        target.id
        for node in body
        if isinstance(node, ast.Assign)
        for target in node.targets
    }
    public = {name for name in bound if not name.startswith("_")}
    assert sorted(diskchannel.__all__) == sorted(public)


def test_all_covers_what_the_benchmark_imports():
    wanted = {
        alias.name
        for node in ast.walk(parse(WORKLOADS))
        if isinstance(node, ast.ImportFrom) and node.module == "diskchannel"
        for alias in node.names
    }
    assert wanted
    assert wanted <= set(diskchannel.__all__)


def run_fresh(code: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of code run in a fresh interpreter."""
    src = str(Path(diskchannel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True,
    )
    return result.returncode, result.stdout, result.stderr


def test_importing_the_cli_leaves_scipy_unloaded():
    # The noisy run filters the wander; the filter must not import scipy.signal.
    code = """
        import sys, diskchannel.cli
        imported = [m for m in sys.modules if m.startswith("scipy.signal")]
        argv = ["transmit", "--bits", "1011", "--bt", "1000", "--pri", "100",
                "--noise", "moderate", "--seed", "3"]
        code = diskchannel.cli.main(argv)
        ran = [m for m in sys.modules if m.startswith("scipy.signal")]
        print(imported, code, ran)
    """
    exit_code, out, err = run_fresh(code)
    assert (exit_code, out.splitlines()[-1], err) == (0, "[] 0 []", "")


def test_scipy_signal_imports_after_the_wander_filter_loaded():
    code = """
        import numpy as np
        from diskchannel.channel import _linear_filter

        linear_filter = _linear_filter()
        import scipy.signal._sigtools as sigtools
        from scipy.signal import lfilter

        innovations = np.random.default_rng(5).standard_normal(5000)
        b, a, state = np.array([0.17]), np.array([1.0, -0.9997]), np.array([0.4])
        ours = linear_filter(b, a, innovations, -1, state)
        for theirs in (
            sigtools._linear_filter(b, a, innovations, -1, state),
            lfilter(b, a, innovations, zi=state),
        ):
            print(all(np.array_equal(x, y) for x, y in zip(ours, theirs)))
    """
    assert run_fresh(code) == (0, "True\nTrue\n", "")


def test_first_noisy_run_ber_in_the_pool_equals_a_loop_of_run_trial():
    # The trials start together in run_ber's pool, with the filter not yet
    # loaded, where the process has 2+ CPUs.
    code = """
        from collections import Counter
        from diskchannel import (
            ChannelParams, DiskModel, ExperimentSpec, random_bits, run_ber
        )
        from diskchannel import experiment

        spec = ExperimentSpec(
            ChannelParams(500, 100, 5, 0.9), payload_bits=32, n_trials=3,
            base_seed=4, disk=DiskModel.preset("harsh"),
        )
        report = run_ber(spec)
        payload = random_bits(spec.payload_bits, spec.payload_seed)
        trials = [experiment.run_trial(spec, t, payload) for t in range(3)]
        phases = Counter(phase for _, phase in trials if phase is not None)
        pooled = experiment._pool is not None or experiment._cpu_count() == 1
        print(pooled, report.bit_errors == sum(e for e, _ in trials),
              report.failure_phases == tuple(sorted(phases.items())))
    """
    assert run_fresh(code) == (0, "True True True\n", "")


def test_readme_library_example_prints_hi():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert run_fresh(code) == (0, "hi\n", "")
