"""Rules the library keeps, checked on its source or in a fresh interpreter."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cantorsalem"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so library invariants raise instead
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


_PARSER_COUNT = """
import argparse, contextlib, io, json
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append((type(self).__name__, kwargs.get("prog")))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
from cantorsalem import cli
counts = [len(built)]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.run(["uniformity-demo", "--n", "5", "--elements", "0"]) != 0:
            raise SystemExit("run failed")
    counts.append(len(built))
print(json.dumps({"counts": counts, "built": built}))
"""


def test_cli_builds_its_parser_once_and_not_at_import():
    # importing the CLI stays cheap, and repeated runs reuse one parser
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PARSER_COUNT], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    at_import, first_run, second_run = result["counts"]
    assert at_import == 0 and 0 < first_run == second_run
    # one top-level parser; the rest are its subcommand parsers
    assert {name for name, _ in result["built"]} == {"_Parser"}
    assert [prog for _, prog in result["built"]].count("cantorsalem") == 1


def test_importing_the_cli_leaves_mpmath_unloaded():
    # mpmath costs start-up time and serves only interval refinement in
    # _cmp_pow and increment_bound, which import it when they run
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    probe = "import sys, cantorsalem.cli; print('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_benchmark_traced_functions_stay_plain_functions():
    # the benchmark's tracer wraps only what inspect.isfunction accepts and
    # skips anything else silently, so a decorated traced function (say,
    # functools.cache) would read as zero time in every per-layer metric
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    not_plain = [
        f"{mod}.{name}"
        for mod, names in tracer.TRACED.items()
        for name in names
        if not inspect.isfunction(getattr(importlib.import_module(f"cantorsalem.{mod}"), name))
    ]
    assert not_plain == []


def _loads_by_function(tree: ast.AST, name: str, func: str = "") -> list:
    """The enclosing function of every read of a module-level name ("" outside any function)."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _loads_by_function(node, name, node.name)
        else:
            if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
                found.append(func)
            found += _loads_by_function(node, name, func)
    return found


def test_int64_width_is_decided_in_cantor_tree_alone():
    # every int64-or-Python-int choice goes through cantor_tree._int_dtype, and the
    # Fourier kernel is single-threaded, so no worker option is read
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert "cantor_tree.py" in sources
    bounds = [name for name, text in sources.items() if re.search(r"1\s*<<\s*6[23]\b", text)]
    assert bounds == ["cantor_tree.py"]
    assert [name for name, text in sources.items() if "_INT64_BOUND" in text] == ["cantor_tree.py"]
    assert _loads_by_function(ast.parse(sources["cantor_tree.py"]), "_INT64_BOUND") == ["_int_dtype"]
    assert [name for name, text in sources.items() if "SALEM_THREADS" in text] == []
