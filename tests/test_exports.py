"""The public names: each submodule's ``__all__`` is the one list, the
package re-exports exactly those lists, and the benchmark's tracer and
scripts find every function they name."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import orbmod

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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
