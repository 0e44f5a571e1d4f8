"""Every fnlswaves name the benchmark harness reads still resolves.

bench/ reaches the package through ``from fnlswaves... import X`` and through
attribute reads on the fnlswaves modules it imports.  Some of those names
(m_symbol, apply_multiplier, linear_phase_params) are read only by its
traced reference pass, which no passing test runs, so this test parses
bench/*.py with ``ast`` and resolves each name.  It reads bench/ and writes
nothing there.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _is_fnlswaves(module: str | None) -> bool:
    return (module or "").split(".")[0] == "fnlswaves"


def bench_names() -> list:
    """Sorted (module, name) pairs: each name imported from a fnlswaves
    module, and each attribute read through a fnlswaves module bound to a
    local name."""
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {}  # local name -> the fnlswaves module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _is_fnlswaves(node.module):
                for alias in node.names:
                    names.add((node.module, alias.name))
                    value = _resolve(node.module, alias.name)
                    if isinstance(value, types.ModuleType):
                        bound[alias.asname or alias.name] = value.__name__
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if _is_fnlswaves(alias.name):
                        if alias.asname:
                            bound[alias.asname] = alias.name
                        else:
                            bound[alias.name.split(".")[0]] = alias.name.split(".")[0]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound):
                names.add((bound[node.value.id], node.attr))
    return sorted(names)


def _resolve(module: str, name: str):
    """``from module import name`` as Python does it: an attribute of the
    module, else its submodule; None if neither exists."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


NAMES = bench_names()


def test_the_harness_reads_the_package():
    # the parse found the harness's imports, the reference pass's among them
    assert len(NAMES) >= 25
    assert ("fnlswaves.spectral", "m_symbol") in NAMES
    assert ("fnlswaves.evolve", "mass") in NAMES


@pytest.mark.parametrize("module, name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_bench_name_resolves(module, name):
    assert _resolve(module, name) is not None, f"bench/ reads {module}.{name}, which is gone"
