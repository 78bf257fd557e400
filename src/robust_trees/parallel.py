"""Worker count from the ROBUST_TREES_THREADS environment variable.

No library code reads it.  The benchmark still records and traces
:func:`worker_count`; its next change drops that import, and then this module.
"""

from __future__ import annotations

import os

ENV_THREADS = "ROBUST_TREES_THREADS"


def worker_count() -> int:
    """Worker cap from the ROBUST_TREES_THREADS environment variable.

    Unset or 0 means auto (one worker per CPU); values below 0 are rejected.
    Results never depend on this number, only wall time does.
    """
    raw = os.environ.get(ENV_THREADS, "0").strip()
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_THREADS} must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"{ENV_THREADS} must be >= 0, got {value}")
    if value == 0:
        return os.cpu_count() or 1
    return value
