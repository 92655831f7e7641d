"""Tier-1 dependency guard: the process entry points import only stdlib + NumPy.

Every CLI run, daemon start and ``repro worker`` start pays for what
``repro.cli``, ``repro.experiments.remote`` and ``repro.serve.daemon``
import. A heavy third-party package pulled in transitively (SciPy once
cost ~0.65 s of a ~0.84 s ``import repro.cli``) would silently raise
that floor, so this test fails and names the offender instead.
"""

import json
import os
import pathlib
import subprocess
import sys

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Runs in a fresh interpreter. Modules already present before the
#: imports (``site`` hooks such as ``.pth`` files) are not ours, and
#: ``__mp_main__`` is the alias ``multiprocessing`` gives ``__main__``.
_DRIVER = """
import json, sys
before = set(sys.modules)
import repro.cli, repro.experiments.remote, repro.serve.daemon
allowed = set(sys.stdlib_module_names) | {"numpy", "repro", "__mp_main__"}
print(json.dumps(sorted(
    name for name in set(sys.modules) - before
    if name.split(".")[0] not in allowed
)))
"""


def test_entry_points_import_only_stdlib_and_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-c", _DRIVER],
        capture_output=True, text=True, env=env, cwd=_REPO_ROOT,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    offenders = json.loads(completed.stdout)
    top_level = sorted({name.split(".")[0] for name in offenders})
    assert not offenders, (
        f"importing the entry points loads non-stdlib packages {top_level}: "
        f"{offenders[:20]}"
    )
