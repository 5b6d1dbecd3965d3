"""The public names: each submodule's ``__all__`` is the one list, the
package re-exports exactly those lists, the benchmark's tracer and
scripts find every function they name, and the README's quickstart runs
as its comments say."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

import orbmod

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SUBMODULES = ("modular_data", "perm_orbifold", "restricted", "sl2z")


def load_spans():
    # spans.py imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    for layer, (modname, fnames) in load_spans().LAYERS.items():
        module = importlib.import_module(f"orbmod.{modname}")
        for fname in fnames:
            assert callable(getattr(module, fname, None)), (layer, fname)


@pytest.mark.parametrize("modname", ("orbmod", "orbmod.cli") + tuple(f"orbmod.{m}" for m in SUBMODULES))
def test_every_public_name_resolves(modname):
    module = importlib.import_module(modname)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_package_exports_exactly_the_submodule_lists():
    lists = [importlib.import_module(f"orbmod.{m}").__all__ for m in SUBMODULES]
    names = [name for names in lists for name in names] + ["__version__"]
    assert len(set(names)) == len(names), "a name is public in two submodules"
    assert set(orbmod.__all__) == set(names)


def test_benchmark_uses_only_exported_names():
    used = set()
    for script in PERFBENCH.glob("*.py"):
        used |= set(re.findall(r"\borbmod\.(\w+)", script.read_text()))
    packages = {"cli", "fixtures", *SUBMODULES}
    assert used - packages <= set(orbmod.__all__)


def run_quickstart():
    """Run the README's ``python`` block one statement at a time; returns its
    namespace and the value of each expression statement, by its text."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace, shown = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            shown[ast.get_source_segment(block, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return namespace, shown


def test_readme_quickstart_does_what_its_comments_say():
    namespace, shown = run_quickstart()
    assert namespace["report"].ok
    assert shown["report.fusion.table[2, 2]"].tolist() == [1, 1, 0]
    orb = namespace["orb"]
    assert len(orb.datum.modules) == 15
    assert shown["orb.report.ok"]
    assert abs(shown["orbmod.quantum_dimensions(orb.datum)[1]"] - 64) <= 1e-12
    assert np.max(np.abs(namespace["s"] - orb.datum.s_matrix)) <= 1e-12
