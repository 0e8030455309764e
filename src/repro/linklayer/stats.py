"""Link-layer counters: what the channel did to the traffic.

Counters are split by owning multicast session (collisions, retransmissions,
ARQ drops, ...) with a global bucket for infrastructure traffic (beacons).
They surface through ``TaskResult.perf`` — instrumentation that is excluded
from result digests, like the perf-cache counters, because they describe the
*path* the simulation took, not its outcome; the outcome (delivery, energy,
timing) is digested separately.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, Optional, Tuple


class LinkStats:
    """Per-session and global tallies of link-layer events."""

    def __init__(self) -> None:
        #: ``(session id, key) -> tally``; session ``None`` is the global
        #: (infrastructure) bucket.
        self._counts: DefaultDict[Tuple[Optional[int], str], int] = defaultdict(int)
        self._adversary: Dict[str, int] = {}

    def bump(
        self, key: str, session_id: Optional[int] = None, amount: int = 1
    ) -> None:
        """Add ``amount`` to ``key`` (session bucket, or global if ``None``)."""
        self._counts[session_id, key] += amount

    def session_count(self, session_id: int, key: str) -> int:
        return self._counts.get((session_id, key), 0)

    def global_count(self, key: str) -> int:
        return self._counts.get((None, key), 0)

    def _bucket(self, session_id: Optional[int]) -> Dict[str, int]:
        return {
            key: count
            for (owner, key), count in self._counts.items()
            if owner == session_id
        }

    def bump_adv(self, key: str, amount: int = 1) -> None:
        """Add ``amount`` to the adversary-behavior counter ``key``.

        Adversarial traffic (jam frames, swallowed packets) belongs to no
        session, like beacons, but is kept in its own bucket so benign
        infrastructure counters stay comparable across A/B runs.
        """
        self._adversary[key] = self._adversary.get(key, 0) + amount

    def adversary_count(self, key: str) -> int:
        return self._adversary.get(key, 0)

    def session_perf(self, session_id: int) -> Dict[str, float]:
        """Flat perf mapping for one session: ``mac.*``, ``link.*``, ``adv.*``.

        The global (infrastructure) and adversary counters are repeated in
        every session's view — they describe the shared channel all
        sessions ran over.
        """
        out: Dict[str, float] = {}
        bucket = self._bucket(session_id)
        for key in sorted(bucket):
            out[f"mac.{key}"] = float(bucket[key])
        infrastructure = self._bucket(None)
        for key in sorted(infrastructure):
            out[f"link.{key}"] = float(infrastructure[key])
        for key in sorted(self._adversary):
            out[f"adv.{key}"] = float(self._adversary[key])
        return out
