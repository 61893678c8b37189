"""Machine fingerprint for a run record.

A disturbed host shows in the record: the CPU steal share over the run
comes from ``/proc/stat``, next to the commit, CPU model, CPU count and
the Python, NumPy and SQLite versions.
"""

from __future__ import annotations

import os
import platform
import sqlite3
from pathlib import Path


def cpu_times() -> list[int] | None:
    """The aggregate ``cpu`` line of ``/proc/stat`` (jiffies), or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    return [int(x) for x in fields[1:]]


def steal_share(before: list[int] | None,
                after: list[int] | None) -> float | None:
    """Share of all CPU time stolen by the hypervisor between two reads.

    Guest time is already counted in user/nice, so only the first eight
    fields (user .. steal) make up the total.
    """
    if not before or not after or len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before[:8], after[:8])]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` without running git; "unknown"
    outside a repository (a bare checkout of the files)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(root: Path) -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    return {
        "commit": git_commit(root),
        "cpu_model": cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
    }
