"""A fresh interpreter for a test whose code could hang, or must run as
the command line runs it: the timeout fails the test instead of stalling
the suite."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_isolated(args, timeout):
    """Run ``python *args`` in a fresh interpreter that sees ``src`` and
    ``bench``.  Raises subprocess.TimeoutExpired after ``timeout`` seconds."""
    path = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, *args], env=env, timeout=timeout,
                          capture_output=True, text=True)
