"""Every ``repro`` module imports on its own, in a fresh interpreter.

The rest of the suite imports ``repro.scheduling`` (via the shared
fixtures) before anything else, which hides import cycles that only
bite when a module is the first ``repro`` import of a process.  This
lane runs one subprocess that, for each module in the package, drops
every ``repro.*`` entry from ``sys.modules`` and imports that module
afresh.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = """
import importlib
import pkgutil
import sys

import repro

names = ["repro"] + sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
)
failed = []
for name in names:
    for key in [k for k in sys.modules if k == "repro" or k.startswith("repro.")]:
        del sys.modules[key]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failed.append(f"{name}: {exc!r}")
print(len(names))
print("\\n".join(failed))
"""


def test_every_module_imports_first():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    count, _, failures = proc.stdout.partition("\n")
    assert int(count) > 50  # the walk found the package
    assert not failures.strip(), f"modules failing a fresh import:\n{failures}"
