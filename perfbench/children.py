"""Environments and launching for the benchmark's child processes.

``PYTHONPATH``, ``PYTHONPYCACHEPREFIX`` and the bytecode switch are set only
in the environments built here, never in the benchmark's own process.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 170


def env(pycache_prefix=None):
    """Child environment: the checkout's ``src`` on the path and a fixed hash
    seed (so traced counts repeat).  Without a prefix, bytecode writes are
    off, so the library is compiled from source in every process; with one,
    bytecode is read from and written to that directory only."""
    out = dict(os.environ)
    out["PYTHONPATH"] = str(SRC)
    out["PYTHONHASHSEED"] = "0"
    out.pop("PYTHONPYCACHEPREFIX", None)
    out.pop("PYTHONDONTWRITEBYTECODE", None)
    if pycache_prefix is None:
        out["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        out["PYTHONPYCACHEPREFIX"] = str(pycache_prefix)
    return out


def run(argv, pycache_prefix=None, cwd=None, timeout=CHILD_TIMEOUT_S):
    """Run a Python child to completion.  On a timeout or an exception here
    (SIGTERM unwinds as SystemExit) the child gets SIGTERM, so it can clean
    up, then SIGKILL if it has not ended; it is always reaped."""
    with subprocess.Popen([sys.executable] + argv, env=env(pycache_prefix), cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException:
            proc.terminate()
            try:
                proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)
