"""Start a Python child process that imports spxkit from this checkout.

pytest's ``pythonpath`` setting reaches only the test process, so every
test that runs a child goes through :func:`run_python`, the one place
that knows how a child reaches ``src/``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(*args, env=None, **kwargs) -> subprocess.CompletedProcess:
    """Run ``sys.executable *args`` and capture its output as text.

    The child gets this process's environment as it is at the call,
    updated with ``env``, and ``src/`` first on ``PYTHONPATH``. Other
    keyword arguments (``cwd``, ``timeout``) go to ``subprocess.run``.
    """
    child_env = dict(os.environ, **(env or {}))
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, child_env.get("PYTHONPATH")])
    )
    return subprocess.run([sys.executable, *args], env=child_env,
                          capture_output=True, text=True, **kwargs)
