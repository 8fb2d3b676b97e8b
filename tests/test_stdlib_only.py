"""The runtime imports nothing outside the standard library.

``pyproject.toml`` declares no dependencies, so every module the
package loads must be ``repro`` itself or part of the stdlib.  The
check runs in a fresh interpreter: the test process has pytest,
hypothesis and their dependencies loaded already.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

ENTRY_POINTS = (
    "repro", "repro.cli", "repro.mutation", "repro.generation",
    "repro.service", "repro.jobs",
)

PROBE = textwrap.dedent("""
    import importlib, sys
    before = set(sys.modules)
    for name in {entry_points!r}:
        importlib.import_module(name)
    loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
    allowed = set(sys.stdlib_module_names) | {{"repro", "__mp_main__"}}
    print(",".join(sorted(loaded - allowed)))
""")


def test_runtime_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(entry_points=ENTRY_POINTS)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"non-stdlib modules loaded: {proc.stdout.strip()}"
