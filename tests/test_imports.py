"""Every module of the package imports on its own, first.

Each import runs in a fresh interpreter, so an import cycle that only
bites when a particular module is loaded before its package siblings
(and is hidden in one long-lived test process) fails here.
"""

import os
import pkgutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def _modules() -> list[str]:
    names = [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not info.name.endswith(".__main__")
    ]
    return ["repro", *sorted(names)]


def _import_error(name: str) -> str:
    """The last stderr line of importing *name* alone ("" on success)."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import {name}"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    if proc.returncode == 0:
        return ""
    return (proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"])[-1]


def test_every_module_imports_first_in_a_fresh_interpreter():
    modules = _modules()
    assert "repro.faults.domains" in modules and len(modules) > 50
    with ThreadPoolExecutor(max_workers=4) as pool:
        errors = dict(zip(modules, pool.map(_import_error, modules)))
    assert {name: err for name, err in errors.items() if err} == {}


def _core_imports(module: str) -> bool:
    """Whether ``import repro.core`` in a fresh interpreter loads *module*."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, repro.core; print({module!r} in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_repro_core_does_not_import_networkx():
    """networkx serves only fault routing and the analytical cross-checks,
    so the simulator's own import path must not pay for loading it."""
    assert not _core_imports("networkx")


def test_repro_core_does_not_import_numpy_random():
    """The batched noise draws (``des/rng.py``) load ``numpy.random``
    on first use, so a deterministic campaign's start-up does not."""
    assert not _core_imports("numpy.random")
