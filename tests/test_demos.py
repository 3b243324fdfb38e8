"""The demos run, the package's advertised names exist, and the runtime
imports nothing outside the standard library."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import tgmc
from oracles import source_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    run = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=source_env(), cwd=str(tmp_path),
                         check=False)
    assert run.returncode == 0, run.stderr
    assert run.stdout


def test_public_names_resolve():
    for name in tgmc.__all__:
        assert getattr(tgmc, name) is not None, name


def test_runtime_imports_only_the_standard_library():
    sources = sorted(Path(tgmc.__file__).resolve().parent.glob("*.py"))
    assert sources
    for source in sources:
        tree = ast.parse(source.read_text(encoding="utf-8"), str(source))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{source.name}: {name}"
