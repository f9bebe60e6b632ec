"""Max RSS of a command, for the memory-guard steps of the CI workflow.

A step's script puts this directory on ``sys.path`` and imports
:func:`max_rss_mb`; the command, its baseline, its bound and the comparison
stay in the step."""

import os
import subprocess
import sys


def max_rss_mb(argv):
    """Run ``argv`` with its stdout discarded and return its max RSS in MB,
    from ``os.wait4``; exit the step if the command fails."""
    child = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"{argv} failed")
    return usage.ru_maxrss / 1024
