"""Policy-driven trace replay of the cache-tier read benchmark.

This is the shared trace-replay interface behind the cluster emulation's
read benchmarks: a :class:`ReplayTrace` (seeded Poisson request stream), a
:class:`~repro.policies.base.ChunkCachingPolicy` deciding residency, and a
latency model mirroring the emulated devices (CRUSH-placed chunk reads on
FIFO HDD OSDs, fork-join over the fetched chunks, a small bank of SSD cache
devices serving hits and landing promotions).  Two engines replay the same
trace over the *same randomness*:

* ``engine="request"`` -- the reference per-request event loop: the base
  :meth:`~repro.policies.base.ChunkCachingPolicy.classify`, one policy
  ``observe`` per request in arrival order, then a scalar queue update per
  miss chunk and a scalar two-server SSD pass.

* ``engine="epoch"`` -- the batched engine.  Hit/miss classification is
  one bulk ``classify`` pass of the policy itself: LRU walks its own
  ``OrderedDict`` once (move to the MRU end on a hit, evict from the LRU
  end and insert on a miss), and the static functional cache, whose
  residency never changes, gathers each request's cached chunk count
  ``d_i``.  A policy without an override falls back to the per-request
  loop, so every policy classifies *exactly* as in the request engine.
  Per-OSD FIFO departures (Lindley scans), the fork-join maxima and the
  SSD multi-server queue are then computed in bulk with the batch-engine
  primitives.  Hit/miss/promotion/eviction counters match the request
  engine exactly and latency statistics agree to within floating-point
  reassociation (~1e-12 relative; the closed-form Lindley scans regroup
  the same additions).

Randomness is decomposed so the two engines consume identical draws: the
classification pass touches no generator at all, and the storage-node
choices and chunk service times are then drawn *per miss* from two
dedicated streams of one root ``SeedSequence`` -- both engines agree on
the miss set, so they see identical draws.  Node selection is uniform over
the object's CRUSH placement (state-free, unlike the queue-dependent
least-backlog rule of the per-request
:class:`~repro.cluster.cachetier.CacheTier` path, which cannot be replayed
out of order).

**Failure suite.**  ``run(faults=..., fault_params=...)`` replays under a
:mod:`repro.faults` schedule.  The schedule compiles (from a third child of
the same root ``SeedSequence``, so the healthy draws are untouched) into a
piecewise-constant :class:`~repro.faults.base.FaultTimeline`.  Hit/miss
classification never reads the timeline: policy admission is
fault-oblivious by design, so a faulted replay classifies every request
exactly like the healthy one.  The timeline acts only on the storage
fetches, and both engines share one deterministic *fetch plan*: a miss
whose preferred chunks (its first ``storage_chunks`` schedule choices) all
sit on live OSDs reads exactly those chunks; if any preferred OSD is down
the read *degrades* to a k-of-n repair read
(``ReedSolomonCode.repair_chunk`` semantics: any ``k`` distinct chunks
reconstruct the stripe) against the first ``k`` surviving OSDs in schedule
order; if fewer than the needed chunks survive the read *fails* and is
excluded from the latency population.  Straggler multipliers scale
per-chunk service times through the per-OSD lane of the grouped Lindley
kernels, and background repair jobs are spliced into the per-OSD FIFO
queues as competing constant-service work (arrival-time order, foreground
first on ties) in both engines.  An empty schedule is bit-equal to the healthy
replay; under any seeded schedule the two engines still agree (counters
bit-equal, latencies to ~1e-12 reassociation error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

import numpy as np

from repro.cluster.crush import CrushMap, placement_group_count
from repro.cluster.devices import (
    hdd_service_for_chunk_size,
    hdd_speed_multipliers,
    whole_object_ssd_latency,
)
from repro.exceptions import ClusterError
from repro.faults.base import FaultLike, compile_fault_schedule
from repro.policies import ChunkCachingPolicy, create_policy
from repro.simulation.arrivals import generate_request_arrays
from repro.kernels import (
    fifo_departures_grouped,
    multi_server_departures,
    segment_max,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.cluster.cluster import ClusterConfig


@dataclass(frozen=True)
class ReplayTrace:
    """A request trace: sorted arrival times plus object indices.

    Construction validates the arrays -- negative, non-finite or
    non-monotone ``times_ms``, mismatched ``times_ms``/``object_positions``
    lengths, non-integral positions and positions outside ``object_ids``
    raise :class:`~repro.exceptions.ClusterError` immediately instead of
    silently corrupting the Lindley scans downstream.
    """

    times_ms: np.ndarray
    object_positions: np.ndarray
    object_ids: List[str]

    def __post_init__(self) -> None:
        times = np.asarray(self.times_ms, dtype=np.float64)
        positions = np.asarray(self.object_positions)
        if positions.dtype.kind not in "iu" and bool(np.any(np.mod(positions, 1.0) != 0.0)):
            # A cast would truncate 1.9 to 1 and replay the wrong object.
            raise ClusterError("object_positions must hold integral object indices")
        positions = positions.astype(np.int64, copy=False)
        if times.ndim != 1 or positions.ndim != 1:
            raise ClusterError("times_ms and object_positions must be one-dimensional")
        if times.size != positions.size:
            raise ClusterError(
                f"times_ms has {times.size} entries but object_positions has "
                f"{positions.size}; every request needs exactly one of each"
            )
        if times.size:
            if not bool(np.all(np.isfinite(times))):
                raise ClusterError("times_ms must be finite")
            if float(times[0]) < 0.0:
                raise ClusterError("times_ms must be non-negative")
            if bool(np.any(np.diff(times) < 0.0)):
                raise ClusterError("times_ms must be sorted in non-decreasing arrival order")
            lowest = int(positions.min())
            highest = int(positions.max())
            if lowest < 0 or highest >= len(self.object_ids):
                raise ClusterError(
                    f"object_positions must index object_ids "
                    f"(got range [{lowest}, {highest}] against {len(self.object_ids)} ids)"
                )
        object.__setattr__(self, "times_ms", times)
        object.__setattr__(self, "object_positions", positions)

    @property
    def num_requests(self) -> int:
        """Number of requests in the trace."""
        return int(self.times_ms.size)

    @classmethod
    def from_rates(
        cls,
        arrival_rates: Dict[str, float],
        duration_s: float,
        seed: Optional[int] = None,
    ) -> "ReplayTrace":
        """Draw a seeded Poisson trace (times in milliseconds)."""
        rng = np.random.default_rng(seed)
        times_s, positions, object_ids = generate_request_arrays(
            arrival_rates, duration_s, rng
        )
        return cls(
            times_ms=times_s * 1000.0,
            object_positions=positions,
            object_ids=object_ids,
        )

    @classmethod
    def from_request_stream(cls, stream) -> "ReplayTrace":
        """Wrap a :class:`~repro.workloads.base.RequestStream` for replay.

        The stream's times are seconds (the workloads/ingest convention);
        replay traces keep milliseconds, matching the device latency model.
        """
        return cls(
            times_ms=np.asarray(stream.times, dtype=np.float64) * 1000.0,
            object_positions=np.asarray(stream.object_positions, dtype=np.int64),
            object_ids=list(stream.object_ids),
        )


@dataclass
class ReplayResult:
    """Statistics of one trace replay.

    ``latencies_ms`` covers the *served* requests only: under a fault
    schedule, reads that could not reach enough surviving chunks are
    counted in ``failed_reads`` (and cleared in ``served_mask``) rather
    than assigned a fictitious latency.  On a healthy replay every read is
    served and the two views coincide.
    """

    engine: str
    policy: str
    reads: int
    hits: int
    promotions: int
    evictions_mb: float
    chunks_from_cache: int
    chunks_from_storage: int
    latencies_ms: np.ndarray
    hit_mask: np.ndarray
    degraded_reads: int = 0
    failed_reads: int = 0
    repair_jobs: int = 0
    faults: Optional[str] = None
    served_mask: Optional[np.ndarray] = None

    @property
    def misses(self) -> int:
        """Number of reads not served entirely from the cache tier."""
        return self.reads - self.hits

    @property
    def served(self) -> int:
        """Number of reads that completed (reads minus failed reads)."""
        return self.reads - self.failed_reads

    @property
    def hit_ratio(self) -> float:
        """Fraction of reads that fully hit the cache (0.0 if no reads)."""
        if self.reads == 0:
            return 0.0
        return self.hits / self.reads

    def mean_latency_ms(self) -> float:
        """Mean access latency in milliseconds over the served reads.

        Contract: an empty latency population (an empty trace, or a fault
        schedule that failed every read) yields ``nan`` -- callers can
        propagate or filter it -- rather than an exception from deep inside
        NumPy.
        """
        if self.latencies_ms.size == 0:
            return math.nan
        return float(self.latencies_ms.mean())

    def percentile_ms(self, q: float) -> float:
        """Latency percentile in milliseconds over the served reads.

        Same contract as :meth:`mean_latency_ms`: ``nan`` when no read was
        served.
        """
        if self.latencies_ms.size == 0:
            return math.nan
        return float(np.percentile(self.latencies_ms, q))


#: How a policy may be supplied: a registered name or a factory
#: ``(capacity_chunks, chunks_per_file, **params) -> ChunkCachingPolicy``.
PolicyLike = Union[str, Callable[..., ChunkCachingPolicy]]


@dataclass(frozen=True)
class _FetchPlan:
    """The deterministic storage-fetch plan shared by both engines.

    Computed once from the classification result, the per-miss randomness
    and the (optional) fault timeline; the engines then differ only in how
    they evaluate the queueing dynamics over the *same* chunk fetches.
    ``entry_*`` arrays are flat chunk fetches grouped per fetching request
    (``fetch_requests``/``segment_starts``), in request order; the repair
    arrays are the background jobs that actually run (jobs landing on a
    down OSD are dropped).
    """

    fetch_requests: np.ndarray
    segment_starts: np.ndarray
    entry_requests: np.ndarray
    entry_osds: np.ndarray
    entry_services: np.ndarray
    served_mask: np.ndarray
    degraded_mask: np.ndarray
    repair_times_ms: np.ndarray
    repair_osds: np.ndarray
    repair_services_ms: np.ndarray

    @property
    def chunks_from_storage(self) -> int:
        """Chunk fetches actually issued (degraded reads fan out to k)."""
        return int(self.entry_osds.size)

    @property
    def degraded_reads(self) -> int:
        """Served reads that re-routed to a k-of-n repair read."""
        return int(np.count_nonzero(self.degraded_mask))

    @property
    def failed_reads(self) -> int:
        """Reads with fewer surviving chunks than needed."""
        return int(self.served_mask.size - np.count_nonzero(self.served_mask))


class ClusterReplay:
    """Replays read traces against the emulated cluster's latency model.

    Parameters
    ----------
    config:
        The :class:`~repro.cluster.cluster.ClusterConfig` describing the
        cluster (code, object size, cache capacity, seeds).
    object_ids:
        The objects of the workload; each occupies one CRUSH placement of
        ``n`` OSDs and ``k`` chunks of the configured chunk size.
    policy:
        Registered cache-policy name (``"lru"`` or ``"functional_static"``)
        or a factory ``(capacity_chunks, chunks_per_file, **params)``.  A fresh
        policy is built per :meth:`run`, so one replay instance can run
        both engines from identical initial state.
    policy_params:
        Extra keyword arguments for the policy factory.
    warm:
        Whether to pre-populate the cache by touching every object once in
        order (mirrors writing the objects through the cache tier).
    """

    def __init__(
        self,
        config: "ClusterConfig",
        object_ids: List[str],
        policy: PolicyLike = "lru",
        policy_params: Optional[Dict[str, object]] = None,
        warm: bool = True,
    ):
        self._config = config
        self._object_ids = [str(object_id) for object_id in object_ids]
        self._object_index = {
            object_id: position for position, object_id in enumerate(self._object_ids)
        }
        if len(self._object_index) != len(self._object_ids):
            raise ClusterError("object_ids contains duplicates")
        self._policy = policy
        self._policy_params = dict(policy_params or {})
        self._warm = bool(warm)

        n, k = config.n, config.k
        self._k = k
        self._num_osds = config.num_osds
        parity = n - k if k > 0 else n
        crush = CrushMap(
            sorted(range(config.num_osds)),
            num_placement_groups=placement_group_count(config.num_osds, parity),
            width=n,
            seed=config.seed,
        )
        self._placement = np.asarray(
            [crush.osds_for_object(object_id) for object_id in self._object_ids],
            dtype=np.int64,
        ).reshape(len(self._object_ids), n)
        multipliers = hdd_speed_multipliers(
            config.num_osds, spread=config.osd_speed_spread, seed=config.seed + 13
        )
        self._multipliers = np.asarray(multipliers) * config.service_time_inflation
        self._service = hdd_service_for_chunk_size(config.chunk_size_mb)
        self._ssd_devices = 2
        # Shared with CacheTier._ssd_read_latency, so the replay's latency
        # model cannot drift from the per-request emulation's.
        self._ssd_latency_ms = whole_object_ssd_latency(config.object_size_mb, config.k)

    # ------------------------------------------------------------------
    # Model pieces
    # ------------------------------------------------------------------

    def _build_policy(self) -> ChunkCachingPolicy:
        chunks_per_file = {object_id: self._k for object_id in self._object_ids}
        capacity = self._config.cache_capacity_chunks
        if isinstance(self._policy, str):
            policy = create_policy(
                self._policy, capacity, chunks_per_file, **self._policy_params
            )
        else:
            policy = self._policy(capacity, chunks_per_file, **self._policy_params)
        if self._warm:
            policy.warm(self._object_ids)
        return policy

    @property
    def policy_name(self) -> str:
        """Name (or repr) of the configured policy."""
        return self._policy if isinstance(self._policy, str) else repr(self._policy)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(
        self,
        trace: ReplayTrace,
        engine: str = "epoch",
        seed: Optional[int] = None,
        faults: FaultLike = None,
        fault_params: Optional[Dict[str, object]] = None,
    ) -> ReplayResult:
        """Replay ``trace`` and return the collected statistics.

        Parameters
        ----------
        trace:
            The request trace (its object ids must be registered).
        engine:
            ``"epoch"`` (vectorised) or ``"request"`` (reference loop).
        seed:
            Root seed of the per-miss scheduling/service randomness; with
            the same seed both engines consume identical draws.
        faults:
            Optional fault schedule: a registered generator name (with
            ``fault_params``), a :class:`~repro.faults.base.FaultSchedule`,
            a compiled :class:`~repro.faults.base.FaultTimeline`, or a
            sequence of those (composed).  The schedule compiles from a
            dedicated third child of the root ``seed``, so the healthy
            scheduling/service draws are byte-identical with or without it;
            an empty schedule reproduces the healthy replay bit-for-bit.
        fault_params:
            Keyword parameters for a generator referenced by name.
        """
        if engine not in ("epoch", "request"):
            raise ClusterError(f"unknown replay engine {engine!r}")
        for object_id in trace.object_ids:
            if object_id not in self._object_index:
                raise ClusterError(f"object {object_id!r} was never placed")
        # Map the trace's object positions onto this replay's object table.
        remap = np.asarray(
            [self._object_index[object_id] for object_id in trace.object_ids],
            dtype=np.int64,
        )
        positions = (
            remap[trace.object_positions]
            if trace.num_requests
            else np.empty(0, np.int64)
        )
        times = np.asarray(trace.times_ms, dtype=float)
        num_requests = trace.num_requests
        k = self._k

        # Children 0/1 feed the healthy scheduling/service draws exactly as
        # before; child 2 is reserved for the fault schedule, so adding or
        # removing faults never perturbs the shared randomness.
        streams = np.random.SeedSequence(seed).spawn(3)
        horizon_ms = float(times[-1]) + 1.0 if num_requests else 0.0
        timeline = compile_fault_schedule(
            faults,
            fault_params,
            num_osds=self._num_osds,
            horizon_ms=horizon_ms,
            seed=streams[2],
            service_ms=self._service.mean,
        )
        fault_label = timeline.label if timeline is not None else None
        if timeline is not None and timeline.trivial:
            # A no-op schedule must be indistinguishable from a healthy
            # replay.
            timeline = None

        # Phase 1 (engine-specific): hit/miss classification and policy
        # state evolution.  Touches no random stream and no fault state.
        hit_mask, cached_chunks, promotions, evicted_chunks = self._classify(
            positions, engine
        )

        # Phase 2 (shared): per-miss randomness, drawn identically for both
        # engines from one root seed.
        miss_requests = np.flatnonzero(~hit_mask)
        schedule_rng = np.random.default_rng(streams[0])
        service_rng = np.random.default_rng(streams[1])
        num_misses = int(miss_requests.size)
        selection = np.argsort(
            schedule_rng.random((num_misses, self._config.n)), axis=1
        )
        base_draws = np.asarray(
            self._service.sample(service_rng, size=(num_misses, k)), dtype=float
        ).reshape(num_misses, k)

        # Phase 2b (shared): the deterministic fetch plan -- which chunks
        # are read from which OSDs at what service time, degraded k-of-n
        # re-routes, failed reads and surviving background repair jobs.
        plan = self._plan_fetches(
            positions, times, miss_requests, cached_chunks, selection, base_draws, timeline
        )

        # Phase 3: latency assembly -- scalar in the reference engine,
        # closed-form vectorised in the epoch engine.
        if engine == "request":
            completion = self._assemble_scalar(times, plan)
        else:
            completion = self._assemble_vectorised(times, plan)

        served = np.flatnonzero(plan.served_mask)
        latencies = completion[served] - times[served]
        hits = int(np.count_nonzero(hit_mask))
        chunks_from_cache = int(cached_chunks.sum())
        return ReplayResult(
            engine=engine,
            policy=self.policy_name,
            reads=num_requests,
            hits=hits,
            promotions=promotions,
            evictions_mb=float(evicted_chunks * self._config.chunk_size_mb),
            chunks_from_cache=chunks_from_cache,
            chunks_from_storage=plan.chunks_from_storage,
            latencies_ms=latencies,
            hit_mask=hit_mask,
            degraded_reads=plan.degraded_reads,
            failed_reads=plan.failed_reads,
            repair_jobs=int(plan.repair_times_ms.size),
            faults=fault_label,
            served_mask=plan.served_mask,
        )

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def _classify(self, positions, engine):
        """Classify every request with a fresh policy.

        The request engine runs the base per-request ``observe`` loop, the
        epoch engine the policy's own bulk pass.  The per-request id array
        is freed on return, before the fetch plan's memory peak.
        """
        policy = self._build_policy()
        file_ids = np.asarray(self._object_ids, dtype=object)[positions]
        if engine == "request":
            return ChunkCachingPolicy.classify(policy, file_ids)
        return policy.classify(file_ids)

    # ------------------------------------------------------------------
    # Fetch planning (shared by both engines)
    # ------------------------------------------------------------------

    def _plan_fetches(
        self, positions, times, miss_requests, cached_chunks, selection, base_draws, timeline
    ):
        """Resolve every miss into concrete chunk fetches.

        Healthy path: miss ``m`` with ``s = k - cached`` storage chunks
        reads its first ``s`` schedule choices, service drawn from draw
        columns ``0..s-1``.  Under a fault timeline the miss is looked up
        in its constant-state interval: if every preferred OSD is alive the
        plan is unchanged (and with a trivial timeline, byte-identical --
        the draws, OSDs and 1.0-multiplied services are bit-equal); if a
        preferred OSD is down the read degrades to the first ``k``
        surviving schedule choices (repair-read fan-out), and with fewer
        than the needed survivors it fails.  Straggler multipliers scale
        the per-entry services; repair jobs arriving on a dead OSD are
        dropped.
        """
        k = self._k
        num_requests = times.size
        no_repairs = (np.empty(0, float), np.empty(0, np.int64), np.empty(0, float))
        storage_counts = k - cached_chunks[miss_requests]
        served_mask = np.ones(num_requests, dtype=bool)
        degraded_mask = np.zeros(num_requests, dtype=bool)

        if timeline is None:
            active = storage_counts > 0
            fetch_requests = miss_requests[active]
            counts = storage_counts[active]
            total_chunks = int(counts.sum())
            if total_chunks:
                ranks = np.flatnonzero(active)
                rows = np.repeat(ranks, counts)
                entry_requests = np.repeat(fetch_requests, counts)
                starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
                columns = np.arange(total_chunks) - np.repeat(starts, counts)
                chosen = selection[rows, columns]
                entry_osds = self._placement[positions[entry_requests], chosen]
                entry_services = base_draws[rows, columns] * self._multipliers[entry_osds]
            else:
                starts = np.empty(0, dtype=np.int64)
                entry_requests = np.empty(0, dtype=np.int64)
                entry_osds = np.empty(0, dtype=np.int64)
                entry_services = np.empty(0, dtype=float)
            return _FetchPlan(
                fetch_requests=fetch_requests,
                segment_starts=starts,
                entry_requests=entry_requests,
                entry_osds=entry_osds,
                entry_services=entry_services,
                served_mask=served_mask,
                degraded_mask=degraded_mask,
                repair_times_ms=no_repairs[0],
                repair_osds=no_repairs[1],
                repair_services_ms=no_repairs[2],
            )

        n = self._config.n
        num_misses = int(miss_requests.size)
        interval = timeline.interval_of(times[miss_requests])
        placement_rows = self._placement[positions[miss_requests]].reshape(num_misses, n)
        up = ~timeline.down[interval[:, None], placement_rows]
        # Availability in schedule order: column c of sel_up is the miss's
        # c-th preferred chunk.
        sel_up = np.take_along_axis(up, selection, axis=1)
        preferred = np.arange(n)[None, :] < storage_counts[:, None]
        degraded = np.any(preferred & ~sel_up, axis=1)
        needed = np.where(degraded, k, storage_counts)
        surviving = sel_up.sum(axis=1)
        failed = needed > surviving
        counts_per_miss = np.where(failed, 0, needed)
        # Rank of each schedule choice among the surviving ones; the j-th
        # fetched chunk consumes service draw column j, so the healthy case
        # (all alive: rank == column) replays the exact same draws.
        survivor_rank = np.cumsum(sel_up, axis=1) - 1
        entry_grid = sel_up & (survivor_rank < counts_per_miss[:, None])
        rows, columns = np.nonzero(entry_grid)
        chosen = selection[rows, columns]
        entry_requests = miss_requests[rows]
        entry_osds = placement_rows[rows, chosen]
        entry_services = (
            base_draws[rows, survivor_rank[rows, columns]]
            * self._multipliers[entry_osds]
            * timeline.slow[interval[rows], entry_osds]
        )
        active = counts_per_miss > 0
        fetch_requests = miss_requests[active]
        counts = counts_per_miss[active]
        if counts.size:
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        else:
            starts = np.empty(0, dtype=np.int64)
        served_mask[miss_requests[failed]] = False
        degraded_mask[miss_requests[degraded & ~failed]] = True
        repair_times = timeline.repair_times_ms
        repair_osds = timeline.repair_osds
        repair_services = timeline.repair_services_ms
        if repair_times.size:
            job_alive = ~timeline.down[timeline.interval_of(repair_times), repair_osds]
            repair_times = repair_times[job_alive]
            repair_osds = repair_osds[job_alive]
            repair_services = repair_services[job_alive]
        return _FetchPlan(
            fetch_requests=fetch_requests,
            segment_starts=starts,
            entry_requests=entry_requests,
            entry_osds=entry_osds,
            entry_services=entry_services,
            served_mask=served_mask,
            degraded_mask=degraded_mask,
            repair_times_ms=repair_times,
            repair_osds=repair_osds,
            repair_services_ms=repair_services,
        )

    # ------------------------------------------------------------------
    # Latency assembly
    # ------------------------------------------------------------------

    def _assemble_scalar(self, times, plan):
        """Reference assembly: scalar FIFO updates in request order.

        Background repair jobs with an arrival strictly before the current
        fetching request are flushed into their OSD queue first, matching
        the grouped kernel's (time, foreground-first) merge order.
        """
        busy = [0.0] * self._num_osds
        ssd_entry = times.copy()
        times_list = times.tolist()
        fetch_requests = plan.fetch_requests.tolist()
        starts = plan.segment_starts.tolist()
        entry_osds = plan.entry_osds.tolist()
        entry_services = plan.entry_services.tolist()
        num_entries = len(entry_osds)
        repair_times = plan.repair_times_ms.tolist()
        repair_osds = plan.repair_osds.tolist()
        repair_services = plan.repair_services_ms.tolist()
        num_repairs = len(repair_times)
        pending_repair = 0
        for rank, request in enumerate(fetch_requests):
            arrival = times_list[request]
            while pending_repair < num_repairs and repair_times[pending_repair] < arrival:
                osd = repair_osds[pending_repair]
                job_arrival = repair_times[pending_repair]
                start = job_arrival if busy[osd] < job_arrival else busy[osd]
                busy[osd] = start + repair_services[pending_repair]
                pending_repair += 1
            first = starts[rank]
            last = starts[rank + 1] if rank + 1 < len(starts) else num_entries
            storage_completion = arrival
            for entry in range(first, last):
                osd = entry_osds[entry]
                service = entry_services[entry]
                start = arrival if busy[osd] < arrival else busy[osd]
                departure = start + service
                busy[osd] = departure
                if departure > storage_completion:
                    storage_completion = departure
            ssd_entry[request] = storage_completion
        # SSD pass: the cache devices serve the *served* IOs in arrival
        # order (failed reads never reach the cache tier).
        served = np.flatnonzero(plan.served_mask)
        order = np.argsort(ssd_entry[served], kind="stable")
        entries = ssd_entry[served][order].tolist()
        ssd_busy = [0.0] * self._ssd_devices
        service = self._ssd_latency_ms
        departures = np.empty(len(entries), dtype=float)
        for rank, arrival in enumerate(entries):
            earliest = min(ssd_busy)
            start = arrival if earliest < arrival else earliest
            departure = start + service
            ssd_busy[ssd_busy.index(earliest)] = departure
            departures[rank] = departure
        completion = np.full(times.size, np.nan, dtype=float)
        completion[served[order]] = departures
        return completion

    def _assemble_vectorised(self, times, plan):
        """Epoch assembly: Lindley scans per OSD, segmented fork-join, SSD lanes.

        Repair jobs are appended after the foreground entries before the
        grouped scan: the kernel's stable (time, input-position) order then
        serves a foreground chunk ahead of a repair job arriving at the
        same instant, exactly like the scalar engine's strict-inequality
        flush.
        """
        ssd_entry = times.copy()
        num_entries = int(plan.entry_osds.size)
        if num_entries:
            if plan.repair_times_ms.size:
                groups = np.concatenate((plan.entry_osds, plan.repair_osds))
                arrivals = np.concatenate(
                    (times[plan.entry_requests], plan.repair_times_ms)
                )
                services = np.concatenate(
                    (plan.entry_services, plan.repair_services_ms)
                )
                departures = fifo_departures_grouped(
                    groups, arrivals, services, self._num_osds
                )[:num_entries]
            else:
                departures = fifo_departures_grouped(
                    plan.entry_osds,
                    times[plan.entry_requests],
                    plan.entry_services,
                    self._num_osds,
                )
            # Fork-join: each miss completes when its slowest chunk departs.
            ssd_entry[plan.fetch_requests] = segment_max(
                departures, plan.segment_starts
            )
        served = np.flatnonzero(plan.served_mask)
        order = np.argsort(ssd_entry[served], kind="stable")
        departures = multi_server_departures(
            ssd_entry[served][order], self._ssd_latency_ms, self._ssd_devices
        )
        completion = np.full(times.size, np.nan, dtype=float)
        completion[served[order]] = departures
        return completion
