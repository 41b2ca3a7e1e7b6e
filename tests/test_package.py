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
    # The noisy run filters the wander, which must import no scipy module,
    # the top-level package included, and builds the noiseless trace, which
    # must not import numpy.ma. numpy 1.x imports numpy.ma with numpy, so
    # only modules the run adds count.
    code = """
        import sys, diskchannel.cli
        def watched():
            return {m for m in sys.modules
                    if (m + ".").startswith(("scipy.", "numpy.ma."))}
        before = watched()
        imported = sorted(m for m in before if m.startswith("scipy"))
        argv = ["transmit", "--bits", "1011", "--bt", "1000", "--pri", "100",
                "--noise", "moderate", "--seed", "3"]
        code = diskchannel.cli.main(argv)
        print(imported, code, sorted(watched() - before))
    """
    exit_code, out, err = run_fresh(code)
    assert (exit_code, out.splitlines()[-1], err) == (0, "[] 0 []", "")


def test_wander_filter_loads_through_scipy_when_its_file_is_not_found():
    # scipy's import spec names numpy's directory, which holds no
    # signal/_sigtools*, so the loader imports scipy and loads it from there.
    code = """
        import importlib.machinery, importlib.util, sys
        import numpy as np

        asked, find_spec = [], importlib.util.find_spec
        def find_elsewhere(name, package=None):
            if name != "scipy":
                return find_spec(name, package)
            asked.append(name)
            spec = importlib.machinery.ModuleSpec(name, None, is_package=True)
            spec.submodule_search_locations = list(np.__path__)
            return spec
        importlib.util.find_spec = find_elsewhere

        from diskchannel.channel import _linear_filter
        linear_filter = _linear_filter()
        print(asked, "scipy" in sys.modules, "scipy.signal" in sys.modules)
        importlib.util.find_spec = find_spec
        from scipy.signal import lfilter

        innovations = np.random.default_rng(5).standard_normal(5000)
        b, a, state = np.array([0.17]), np.array([1.0, -0.9997]), np.array([0.4])
        ours = linear_filter(b, a, innovations, -1, state)
        theirs = lfilter(b, a, innovations, zi=state)
        print(all(np.array_equal(x, y) for x, y in zip(ours, theirs)))
    """
    assert run_fresh(code) == (0, "['scipy'] True False\nTrue\n", "")


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
