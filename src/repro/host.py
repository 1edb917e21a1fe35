"""Host facts shared by the decode planner and the experiment runner."""

from __future__ import annotations

import os


def host_cpus() -> int:
    """CPUs this process may run on.

    The scheduler affinity mask where the platform has one (a container
    CPU set or ``taskset`` narrows it below the machine's count), else
    ``os.cpu_count()``.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
