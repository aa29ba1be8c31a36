"""Adaptive size-based dedup filter (§3.4.2, Fig. 7).

Across the paper's datasets the largest ~60 % of records contribute
90–95 % of all dedup savings, so skipping the small ones sheds ~40 % of
the dedup work for a 5–10 % ratio loss. The cut-off is learned online: it
starts at zero (dedup everything) and is refreshed every
``refresh_interval`` insertions to the :data:`CUT_PERCENTILE` (the
40 %-tile) of recently observed record sizes.
"""

from __future__ import annotations

from collections import deque

from repro.util.stats import percentile

#: Percentile of recent record sizes used as the dedup cut-off (§3.4.2).
CUT_PERCENTILE = 40.0


class AdaptiveSizeFilter:
    """Per-database record-size cut-off with periodic refresh."""

    def __init__(
        self,
        refresh_interval: int = 1000,
        history: int = 10_000,
        enabled: bool = True,
    ) -> None:
        if refresh_interval < 1:
            raise ValueError(f"refresh_interval must be >= 1, got {refresh_interval}")
        self.refresh_interval = refresh_interval
        self.enabled = enabled
        self._sizes: dict[str, deque[int]] = {}
        self._thresholds: dict[str, int] = {}
        self._counts: dict[str, int] = {}
        self._history = history
        self.skipped = 0

    def threshold(self, database: str) -> int:
        """Current cut-off size for a database (0 until first refresh)."""
        return self._thresholds.get(database, 0)

    def should_dedup(self, database: str, size: int) -> bool:
        """Observe a record's size; True if it should go through dedup.

        Records strictly smaller than the learned threshold bypass dedup
        and are treated as unique.
        """
        sizes = self._sizes.setdefault(database, deque(maxlen=self._history))
        sizes.append(size)
        count = self._counts.get(database, 0) + 1
        self._counts[database] = count
        if count % self.refresh_interval == 0:
            self._thresholds[database] = int(
                percentile(list(sizes), CUT_PERCENTILE)
            )
        if not self.enabled:
            return True
        if size < self._thresholds.get(database, 0):
            self.skipped += 1
            return False
        return True
