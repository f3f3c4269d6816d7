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

import pytest

import cantorsalem as cs
from cantorsalem import cantor_tree, cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cantorsalem"


def _run_probe(source: str) -> str:
    """Run source in a fresh interpreter that imports the package from src/ and return its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
    result = json.loads(_run_probe(_PARSER_COUNT))
    at_import, first_run, second_run = result["counts"]
    assert at_import == 0 and 0 < first_run == second_run
    # one top-level parser; the rest are its subcommand parsers
    assert {name for name, _ in result["built"]} == {"_Parser"}
    assert [prog for _, prog in result["built"]].count("cantorsalem") == 1


def test_importing_the_cli_leaves_mpmath_unloaded():
    # mpmath costs start-up time and serves only interval refinement in
    # _cmp_pow and increment_bound, which import it when they run
    assert _run_probe("import sys, cantorsalem.cli; print('mpmath' in sys.modules)").strip() == "False"


# the names the package exported when it imported every module eagerly
_PUBLIC_NAMES = {
    "ApCertificate", "ApWitness", "DecayProfile", "DEFAULT_K_CAP", "FourierCoeffs", "IncrementBound",
    "IncrementReport", "LevelMassCheck", "MassBandReport", "MeasureTree", "NodeCertificates", "OracleVerdict",
    "RegularityReport", "ResidueSet", "Schedule", "StepMeasure", "TreeLoadError", "UniformityReport",
    "ap_report", "ball_mass", "behrend_sphere", "build_tree", "cell_mass", "cross_cell_scan", "custom_schedule",
    "decay_profile", "derive_run_seed", "derive_translation", "dft_uniformity", "double_embed", "dyadic_radii",
    "emit_svg", "find_3ap_mod", "frostman_scan", "hoeffding_bound", "increment_bound", "increment_scan",
    "interval_of", "is_ap_free", "level_intervals", "load_tree", "max_property_ii", "modulation_check", "mu_hat",
    "mu_hat_batch", "node_certificates", "property_ii_oracle", "realize_cross_cell_triple", "save_tree",
    "schedule_a", "schedule_b", "tail_envelope", "tree_from_dict", "tree_to_dict", "uniformity_demo",
    "variant_b_mass_check", "write_coeffs_csv",
}


def test_package_declares_each_public_name_once():
    assert len(_PUBLIC_NAMES) == 57
    assert len(cs.__all__) == len(set(cs.__all__))
    assert set(cs.__all__) == _PUBLIC_NAMES
    assert cli.__all__ == ["run", "main"]


def test_each_public_name_comes_from_the_module_that_defines_it():
    for module_name, names in cs._EXPORTS.items():
        module = importlib.import_module(f"cantorsalem.{module_name}")
        for name in names:
            obj = getattr(cs, name)
            assert obj is getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name
            else:
                assert name in vars(module), name


def test_package_lookup_covers_dir_star_import_and_unknown_names():
    assert set(cs.__all__) <= set(dir(cs))
    namespace = {}
    exec("from cantorsalem import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cs.__all__)
    with pytest.raises(AttributeError, match="'cantorsalem' has no attribute 'no_such_name'"):
        cs.no_such_name


_LAZY_IMPORT = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith(("numpy.", "cantorsalem.")))
import cantorsalem
bare = loaded()
from cantorsalem import build_tree
print(json.dumps({"bare": bare, "build_tree": loaded()}))
"""


def test_importing_the_package_loads_a_module_only_when_one_of_its_names_is_read():
    result = json.loads(_run_probe(_LAZY_IMPORT))
    assert result["bare"] == []
    assert [m for m in result["build_tree"] if m.startswith("cantorsalem.")] == [
        "cantorsalem.cantor_tree", "cantorsalem.discrete_ap",
    ]


def test_package_names_follow_a_patched_module(monkeypatch):
    # nothing is cached in the package, so a patch and its undo both show through it
    stand_in = type("StandIn", (), {})
    monkeypatch.setattr(cantor_tree, "StepMeasure", stand_in)
    assert cs.StepMeasure is stand_in
    monkeypatch.undo()
    assert cs.StepMeasure is cantor_tree.StepMeasure
    assert "StepMeasure" not in vars(cs)


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
