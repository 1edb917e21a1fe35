"""The benchmark's own statistics: the tail rule and the failure ratio."""

from __future__ import annotations

from typing import Optional

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
#: ``op_tail_s`` is reported only for runs with at least this many ops.
TAIL_MIN_SAMPLES = 20


def tail(samples, beyond: int = TAIL_BEYOND,
         min_samples: int = TAIL_MIN_SAMPLES) -> Optional[dict]:
    """The highest percentile with at least *beyond* samples above it.

    With the samples sorted ascending, that is the value at rank
    ``n - beyond`` (1-based): exactly *beyond* samples rank above it.
    Its percentile is the share of samples at or below that rank.
    Returns ``None`` for runs with fewer than *min_samples* samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < max(min_samples, beyond + 1):
        return None
    rank = n - beyond
    return {
        "value": ordered[rank - 1],
        "percentile": 100.0 * rank / n,
        "samples": n,
        "beyond": beyond,
    }


def tally(op_problems, leaks) -> dict:
    """Count attempted and failed ops.

    *op_problems* holds one list per attempted op: the reasons it failed
    (an exception or a failed output check), empty when it passed.
    Each leak found after the workload (a left-over ``/dev/shm`` segment,
    a changed ``results/`` or ``git status``) fails one more op that had
    passed, so ``failed`` never exceeds ``attempted``.
    """
    attempted = len(op_problems)
    failed_ops = sum(1 for problems in op_problems if problems)
    failed = min(attempted, failed_ops + len(leaks))
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
    }
