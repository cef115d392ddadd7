"""Label-hash shard planning for batch maintenance rounds.

The batch pipeline already buckets a batch's Δ candidates by label
(:class:`repro.maintenance.delta.BatchCandidates`); the planner turns
that bucketing into a parallel execution plan:

* every label is assigned a **shard** by a stable hash
  (:func:`shard_of_label` -- ``crc32``, not Python's randomized
  ``hash``, so the mapping is identical across worker processes and
  runs);
* the propagation work of the affected views -- Δ extraction, term
  development and evaluation, snowcap upkeep, stored-attribute
  refreshes -- becomes independent :mod:`work units
  <repro.sharding.units>`.  The unit of parallelism is the (view,
  side) pair: a unit reads its view's full candidate buckets, and the
  shard owning its dominant Δ label anchors it for deterministic
  ordering, with LPT by estimated size balancing the pool's makespan.
  The ``shards`` count therefore shapes anchoring/ordering, not a
  finer work split;
* :meth:`ShardPlanner.partition_candidates` exposes the underlying
  bucket partition itself (per-shard candidate fragments) for
  diagnostics and tests.

Units are pure with respect to the engine state they read, so any
assignment of units to workers yields the same fragments; the shard
anchor fixes a *deterministic* plan (stable unit order, stable
ownership) on top of that freedom.  View-granular sharding across
*resident* workers -- where each worker owns a view subset and its
replica state -- lives in :class:`repro.sharding.session.ShardSession`;
its view->worker partition (and the rebalance policy's re-planning of
it) uses the module-level :func:`lpt_assignment`/:func:`imbalance_ratio`
helpers here, so there is exactly one LPT implementation.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Sequence, Union

from repro.maintenance.delta import BatchCandidates
from repro.pattern.tree_pattern import Pattern


def shard_of_label(label: str, shards: int) -> int:
    """Stable shard assignment of one label (crc32 mod shard count)."""
    if shards <= 1:
        return 0
    return zlib.crc32(label.encode("utf-8")) % shards


def lpt_assignment(weights: Dict[str, float], workers: int) -> List[List[str]]:
    """Deterministic LPT partition of weighted names across workers.

    Names are placed heaviest-first (ties broken by name) into the
    currently lightest bucket (ties broken by bucket index), the classic
    longest-processing-time approximation whose makespan stays within
    4/3 of the optimum.  Both the session's fork-time view assignment
    and the rebalance policy's migration planning call this one
    implementation, so a frozen plan and a re-planned one can never
    disagree about what "balanced" means.
    """
    if workers < 1:
        raise ValueError("need at least one worker, got %d" % workers)
    buckets: List[List[str]] = [[] for _ in range(workers)]
    loads = [0.0] * workers
    for name in sorted(weights, key=lambda key: (-weights[key], key)):
        slot = loads.index(min(loads))
        buckets[slot].append(name)
        loads[slot] += weights[name]
    return buckets


def imbalance_ratio(loads: Sequence[float]) -> float:
    """Max over mean bucket load; 1.0 for an empty or all-zero plan.

    The makespan quality metric shared by the session's
    ``repro_session_lpt_imbalance_ratio`` gauge and the rebalance
    policy's trigger/target thresholds: 1.0 is a perfectly level plan,
    N means one worker carries everything.
    """
    loads = list(loads)
    if not loads:
        return 1.0
    mean = sum(loads) / len(loads)
    return max(loads) / mean if mean > 0.0 else 1.0


class ShardPlanner:
    """Hashes labels into ``shards`` groups and plans batch work units."""

    def __init__(self, shards: int = 4):
        if shards < 1:
            raise ValueError("need at least one shard, got %d" % shards)
        self.shards = shards

    @classmethod
    def coerce(
        cls, value: Union[None, int, "ShardPlanner"], workers: int = 0
    ) -> "ShardPlanner":
        """Accept a planner, a shard count, or None (defaults scale
        with the worker count so each worker owns at least one shard)."""
        if isinstance(value, ShardPlanner):
            return value
        if isinstance(value, int):
            return cls(value)
        if value is None:
            return cls(max(4, workers))
        raise TypeError("shard_plan must be a ShardPlanner or int, got %r" % (value,))

    # -- label / candidate partitioning ---------------------------------

    def shard_of(self, label: str) -> int:
        return shard_of_label(label, self.shards)

    def partition_candidates(
        self, candidates: BatchCandidates
    ) -> Dict[int, BatchCandidates]:
        """Split a batch's Δ candidate buckets into per-shard fragments.

        Fragments partition the candidate set exactly: every node lands
        in the shard owning its label, buckets keep document order.
        """
        out: Dict[int, BatchCandidates] = {}
        grouped: Dict[int, List] = {}
        for label, nodes in candidates.by_label.items():
            grouped.setdefault(self.shard_of(label), []).extend(nodes)
        for shard, nodes in grouped.items():
            out[shard] = BatchCandidates(nodes)
        return out

    # -- view-side planning ---------------------------------------------

    def touched_labels(
        self, pattern: Pattern, candidates: BatchCandidates
    ) -> List[str]:
        """Candidate labels this pattern's Δ tables can see (label-level
        liveness check: an empty result proves every Δ table empty, so
        the whole side can be skipped without σ-filtering anything)."""
        if not candidates.by_label:
            return []
        touched: List[str] = []
        wildcard = any(node.label == "*" for node in pattern.nodes())
        pattern_labels = {node.label for node in pattern.nodes()}
        for label in sorted(candidates.by_label):
            if label in pattern_labels or wildcard:
                touched.append(label)
        return touched

    def anchor_shard(self, labels: Sequence[str]) -> int:
        """The shard owning a unit, from the labels its Δ side reads.

        The dominant (first, in sorted order) label decides; a unit
        with no Δ labels (e.g. a refresh scan) anchors to shard 0.
        """
        for label in sorted(labels):
            return self.shard_of(label)
        return 0

    def order_units(self, units: Sequence) -> List:
        """Deterministic LPT schedule: heaviest unit first, ties broken
        by (shard, kind, view) so the plan is stable across runs."""
        return sorted(
            units,
            key=lambda u: (-u.estimate, u.shard, u.kind, u.view_name),
        )

    def describe(self) -> Dict[str, int]:
        return {"shards": self.shards}

    def __repr__(self) -> str:
        return "ShardPlanner(%d shards)" % self.shards
