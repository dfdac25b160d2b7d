"""Import cost: package namespaces load their submodules on first use.

Every paper artifact is a fresh ``python -m repro`` process, so what an
import drags in is paid once per artifact.  These checks run in fresh
interpreters (one pytest run shares ``sys.modules``) and compare module
sets, not timings, so they are deterministic.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# The closed-form artifacts and small simulations: none of them needs numpy.
NUMPY_FREE_ARTIFACTS = [
    "table1",
    "table2",
    "table3",
    "fig4",
    "fig5",
    "fig11",
    "fig13",
    "fig14",
    "summary",
]


def _fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_repro_loads_no_submodule():
    loaded = _fresh(
        "import json, sys, repro\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.'))))\n"
    )
    assert loaded == ["repro._lazy"]


@pytest.mark.parametrize("artifact", NUMPY_FREE_ARTIFACTS)
def test_closed_form_artifact_does_not_load_numpy(artifact):
    result = _fresh(
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main([{artifact!r}])\n"
        "print(json.dumps({'code': code, 'numpy': 'numpy' in sys.modules}))\n"
    )
    assert result == {"code": 0, "numpy": False}


def test_fig4_loads_only_the_bus_simulator():
    # The Fig. 4 construction lives beside the PSCAN executor, so
    # rendering it loads neither the tracer nor any other layer.
    loaded = _fresh(
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['fig4'])\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'repro' or m.startswith('repro.'))))\n"
    )
    assert loaded == [
        "repro", "repro._lazy", "repro.cli",
        "repro.core", "repro.core.cp", "repro.core.pscan", "repro.core.schedule",
        "repro.photonics", "repro.photonics.clocking", "repro.photonics.devices",
        "repro.photonics.waveguide", "repro.photonics.wdm",
        "repro.sim", "repro.sim.engine",
        "repro.util", "repro.util.constants", "repro.util.errors",
        "repro.util.validation",
        "repro.viz",
    ]
