"""Selective commit policy: the stability-aware cost model of Eq. 1.

When a block-level replacement evicts a stage-area victim, Baryon chooses
between *committing* it (promote into the cache/flat area, displacing that
area's own victim) and *evicting* it back to slow memory. The benefit of
committing is

    B = k * (MRUMissCnt / assoc - MissCnt) + (#Dirty_stage - #Dirty_area)

The first term is the expected miss saving: ``MRUMissCnt / assoc``
estimates the miss rate of a just-staged block (i.e. what this block would
suffer if *not* committed and re-fetched later), while its own ``MissCnt``
— aged so it reflects the recent end of the stage phase — estimates the
misses it would still produce after commit. The second term is Hybrid2's
write-traffic cost: dirty sub-blocks the two candidate victims would write
back. ``k = 0`` degenerates to Hybrid2's policy, ``k = inf`` to stability
only; the paper finds k slightly above 1 (default 4) best because writes
are off the critical path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import CommitConfig
from repro.common.stats import CounterGroup
from repro.obs.tracer import NULL_TRACER


@dataclass(frozen=True)
class CommitDecision:
    """The decision and the inputs that produced it (for tests/analysis)."""

    commit: bool
    benefit: float
    stability_term: float
    dirty_term: float


class CommitPolicy:
    """Evaluates Eq. 1 for a stage-area victim block."""

    def __init__(self, config: CommitConfig | None = None) -> None:
        self.config = config or CommitConfig()
        self.stats = CounterGroup("commit_policy")
        #: Observability hook point; see :mod:`repro.obs`.
        self.obs = NULL_TRACER

    def decide(
        self,
        mru_miss_cnt: int,
        associativity: int,
        victim_miss_cnt: int,
        dirty_stage: int,
        dirty_area: int,
        quarantined: bool = False,
    ) -> CommitDecision:
        """Apply Eq. 1; ``commit`` is True when B >= 0.

        ``dirty_area`` is the dirty-sub-block count of the cache/flat-area
        block that committing would displace; for the flat area all
        sub-blocks count as dirty because a swap moves them regardless.

        ``quarantined`` vetoes the cost model entirely: a super-block the
        recovery layer has poisoned must never be promoted into the
        committed area, whatever Eq. 1 says — it is evicted to slow
        memory, where degraded service is safe.
        """
        stability = mru_miss_cnt / max(1, associativity) - victim_miss_cnt
        dirty = float(dirty_stage - dirty_area)
        if quarantined:
            self.stats.inc("evictions")
            self.stats.inc("quarantine_vetoes")
            decision = CommitDecision(False, float("-inf"), stability, dirty)
        elif self.config.commit_all:
            self.stats.inc("commits")
            decision = CommitDecision(True, float("inf"), stability, dirty)
        else:
            k = self.config.k
            if k == float("inf"):
                benefit = stability
            else:
                benefit = k * stability + dirty
            commit = benefit >= 0
            self.stats.inc("commits" if commit else "evictions")
            decision = CommitDecision(commit, benefit, stability, dirty)
        if self.obs.enabled:
            self.obs.emit(
                "commit_decision",
                commit=decision.commit, benefit=decision.benefit,
                stability=decision.stability_term, dirty=decision.dirty_term,
                mru_miss_cnt=mru_miss_cnt, victim_miss_cnt=victim_miss_cnt,
                dirty_stage=dirty_stage, dirty_area=dirty_area,
            )
        return decision
