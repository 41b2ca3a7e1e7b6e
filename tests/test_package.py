import ast
import os
import subprocess
import sys
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


def test_importing_the_cli_leaves_scipy_unloaded():
    src = str(Path(diskchannel.__file__).resolve().parents[1])
    code = "import sys, diskchannel.cli; sys.exit('scipy.signal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
