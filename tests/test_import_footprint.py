"""numpy is the only third-party package an entry module may import.

``setup.py`` declares ``install_requires=["numpy"]``; anything else on
an entry module's import path is an undeclared dependency (a clean
``pip install .`` would fail at ``import repro``) and start-up time and
memory every process of the serving stack pays for.  No timing
assertion: that is machine-dependent.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Only what the import itself loads counts: site hooks (``.pth`` files)
# put their own modules in before the probe starts.  ``__mp_main__`` is
# the alias of ``__main__`` that importing multiprocessing registers.
PROBE = """
import importlib, json, sys
before = set(sys.modules)
importlib.import_module(sys.argv[1])
tops = {name.partition(".")[0] for name in set(sys.modules) - before}
own = {"repro", "__mp_main__"}
print(json.dumps(sorted(tops - sys.stdlib_module_names - own)))
"""


@pytest.mark.parametrize(
    "entry",
    [
        "repro.cli",
        "repro.serve",
        "repro.maintain",
        "repro.replay",
        "repro.bench",
    ],
)
def test_entry_module_imports_only_numpy(entry):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", PROBE, entry],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == ["numpy"]
