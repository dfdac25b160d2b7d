"""API hygiene: every public item is exported deliberately and documented.

These tests freeze two contracts a downstream user relies on: (a) names
in ``__all__`` exist and carry docstrings, and (b) the subpackage
surfaces stay importable from the top level.
"""

import importlib
import inspect
import pkgutil
import shutil
import subprocess
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.photonics",
    "repro.core",
    "repro.mesh",
    "repro.memory",
    "repro.energy",
    "repro.fft",
    "repro.analysis",
    "repro.llmore",
    "repro.util",
    "repro.store",
    "repro.serve",
    "repro.faults",
    "repro.workloads",
    "repro.obs",
    "repro.perf",
    "repro.check",
]

MODULES = [
    "repro.viz",
    "repro.cli",
    "repro.serve.cli",
    "repro.serve.server",
    "repro.store.leases",
    "repro.faults.chaos",
    "repro.report",
    "repro.sim.engine",
    "repro.core.pscan",
    "repro.core.schedule",
    "repro.mesh.network",
    "repro.mesh.vc_network",
    "repro.workloads.registry",
    "repro.workloads.runner",
    "repro.obs.slo",
    "repro.memory.layout",
    "repro.analysis.perf_model",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} has no __all__"
    for item in exported:
        assert hasattr(module, item), f"{name}.__all__ lists missing {item!r}"


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_public_items_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"
    undocumented = []
    for item in getattr(module, "__all__", []):
        obj = getattr(module, item)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(item)
    assert not undocumented, f"{name}: undocumented public items {undocumented}"


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_lists_every_export(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_no_export_is_shadowed_by_a_submodule(name):
    """An export named like a submodule must be that submodule.

    Package namespaces are lazy: importing ``pkg.x`` binds ``pkg.x`` to
    the module, so an export ``x`` owned by some other submodule would
    silently change value once ``pkg.x`` is imported.
    """
    package = importlib.import_module(name)
    submodules = {info.name for info in pkgutil.iter_modules(package.__path__)}
    for item in set(package.__all__) & submodules:
        assert getattr(package, item) is importlib.import_module(f"{name}.{item}"), item


def test_public_classes_document_their_methods():
    """Public methods of the flagship classes carry docstrings."""
    from repro.core.pscan import Pscan
    from repro.core.psync import PsyncMachine
    from repro.mesh.network import MeshNetwork
    from repro.sim.engine import Simulator

    for cls in (Simulator, Pscan, PsyncMachine, MeshNetwork):
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            assert member.__doc__ and member.__doc__.strip(), (
                f"{cls.__name__}.{name} lacks a docstring"
            )


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_every_source_module_is_committed():
    """A module that exists only on disk imports here and nowhere else.

    Every ``src/repro/**/*.py`` must be tracked by git and matched by no
    ignore pattern, so a clean clone imports exactly what this tree does.
    """
    root = Path(__file__).resolve().parent.parent
    git = shutil.which("git")
    if git is None or not (root / ".git").exists():
        pytest.skip("not a git checkout")
    sources = sorted(
        p.relative_to(root).as_posix() for p in (root / "src" / "repro").rglob("*.py")
    )
    tracked = set(
        subprocess.run(
            [git, "ls-files", "--", "src/repro"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.splitlines()
    )
    assert [s for s in sources if s not in tracked] == []
    ignored = subprocess.run(
        [git, "check-ignore", "--no-index", "--", *sources],
        cwd=root, capture_output=True, text=True,
    )
    assert ignored.returncode in (0, 1), ignored.stderr
    assert ignored.stdout.splitlines() == []
