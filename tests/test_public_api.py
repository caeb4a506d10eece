"""Public-API surface: exports resolve, docstrings exist, version sane.

These meta-tests keep the package release-worthy: everything advertised
in an ``__all__`` must import, and every public callable and class must
carry a docstring (the documentation deliverable, enforced).
"""

import argparse
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

MODULES = [
    "repro",
    "repro.units",
    "repro.utils",
    "repro.obs",
    "repro.network",
    "repro.energy",
    "repro.core",
    "repro.online",
    "repro.sim",
    "repro.planning",
    "repro.experiments",
    "repro.service",
    "repro.verify",
    "repro.cli",
]


def iter_all_modules():
    seen = []
    for pkg_name in MODULES:
        module = importlib.import_module(pkg_name)
        seen.append(module)
        if hasattr(module, "__path__"):
            for info in pkgutil.iter_modules(module.__path__):
                if info.name == "__main__":
                    continue  # importing it would run the CLI
                seen.append(importlib.import_module(f"{pkg_name}.{info.name}"))
    return {m.__name__: m for m in seen}.values()


def test_version():
    assert repro.__version__.count(".") == 2


@pytest.mark.parametrize("module_name", MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


def test_every_module_has_docstring():
    for module in iter_all_modules():
        assert module.__doc__, f"module {module.__name__} lacks a docstring"


def test_every_public_symbol_documented():
    """Every public class/function reachable from an ``__all__`` has a
    docstring, and every public method of those classes does too."""
    missing = []
    for module in iter_all_modules():
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    missing.append(f"{module.__name__}.{name}")
                if inspect.isclass(obj):
                    for meth_name, meth in vars(obj).items():
                        if meth_name.startswith("_"):
                            continue
                        if inspect.isfunction(meth) and not inspect.getdoc(meth):
                            missing.append(f"{module.__name__}.{name}.{meth_name}")
    assert not missing, f"undocumented public symbols: {missing}"


def test_quickstart_docstring_example_runs():
    """The example in the package docstring must actually work."""
    from repro import ScenarioConfig, get_algorithm, run_tour

    scenario = ScenarioConfig(num_sensors=30, path_length=1500.0).build(seed=7)
    result = run_tour(scenario, get_algorithm("Offline_Appro"))
    assert result.collected_megabits > 0


def test_paper_algorithm_names_exported():
    from repro.sim.algorithms import ALGORITHMS

    for name in (
        "Offline_Appro",
        "Online_Appro",
        "Offline_MaxMatch",
        "Online_MaxMatch",
    ):
        assert name in ALGORITHMS


def test_api_doc_cli_line_matches_parser():
    """The ``python -m repro {...}`` line of docs/API.md names exactly
    the subcommands ``repro --help`` lists."""
    from repro.cli import build_parser

    doc = (Path(__file__).resolve().parents[1] / "docs" / "API.md").read_text(encoding="utf-8")
    match = re.search(r"`python -m repro \{([^}]*)\}", doc)
    assert match, "docs/API.md has no `python -m repro {...}` line"
    documented = {name.strip() for name in match.group(1).split(",")}
    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert documented == set(subparsers.choices)
