"""Reset point for process-local state between independent runs.

Today that state is the shared worker pool, whose workers were forked
from the parent as it stood then.  rrSTR calls
:func:`repro.geometry.fermat.fermat_point` without a memo: an A/B showed
the one it had bought nothing end to end (docs/PERFORMANCE.md, "No
geometry memo").
"""

from __future__ import annotations

from repro.perf.parallel import retire_pool


def clear_caches() -> None:
    """Retire the shared worker pool (:func:`repro.perf.parallel.retire_pool`).

    The next pooled call forks fresh workers from the parent as it is now,
    so nothing patched into or loaded by the parent since the last fork is
    missing from them.
    """
    retire_pool()
