"""The four benchmark workloads, each driving one layer from its public API.

Every workload builds its inputs in :meth:`setup` (untimed) and performs
one repetition of its work in :meth:`run`, which returns a :class:`Rep`:
the operations attempted, the failed correctness checks, the model-level
outcome (deterministic for a fixed seed) and program-reported timings.

The storage cluster layout (which servers hold which chunks) is the
Section V-A default, fixed at ``LAYOUT_SEED`` like the paper's one
simulated cluster.  ``--seed`` drives everything a user sends to it: the
simulated arrivals, the sampled diurnal stream, the CDN trace and its
fault schedule, and the file payloads.  Keeping the layout fixed keeps the
solver's work identical from seed to seed, so run-to-run timing spread is
host noise rather than a different optimisation problem.
"""

from __future__ import annotations

import copy
import functools
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.api import Scenario, Session, get_controller, get_engine, get_solver
from repro.cluster.cluster import ClusterConfig
from repro.cluster.devices import chunk_size_for_object
from repro.cluster.replay import ClusterReplay, ReplayTrace
from repro.erasure.functional import FunctionalCacheCoder
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.exec import ResultCache, sweep_map
from repro.faults import GeneratedFaultSchedule
from repro.policies.functional import StaticFunctionalPolicy
from repro.simulation import SimulationConfig
from repro.workloads.catalog import paper_default_model
from repro.workloads.ingest import load_trace
from repro.workloads.ingest.trace_workload import TraceWorkload

from tracing import NULL_TRACER

LAYOUT_SEED = 2016
SOLVER = "projected_gradient"


@dataclass
class Rep:
    """One repetition of a workload."""

    attempted: int
    failures: List[str] = field(default_factory=list)
    #: Model-level values and counts; must repeat exactly for a fixed seed.
    outcome: Dict[str, float] = field(default_factory=dict)
    #: Wall-clock values the program itself reports (vary run to run).
    timing: Dict[str, float] = field(default_factory=dict)
    #: Reads the cluster could not serve (fewer than k chunks reachable).
    failed_reads: int = 0
    #: Wall times of the units ``run_s`` takes its median over, when a
    #: repetition holds several (default: the repetition as one unit).
    unit_times: Optional[List[float]] = None

    @property
    def failed(self) -> int:
        return len(self.failures) + self.failed_reads

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)


def _seeds(seed: int, count: int) -> List[int]:
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(child.generate_state(1)[0]) for child in children]


def _check_placement(rep: Rep, placement, model, label: str) -> None:
    rep.check(
        placement.total_cached_chunks <= model.cache_capacity,
        f"{label}: {placement.total_cached_chunks} chunks exceed capacity {model.cache_capacity}",
    )
    rep.check(math.isfinite(placement.objective), f"{label}: latency bound is not finite")


# ----------------------------------------------------------------------
# paper_sweep: Algorithm 1 over cache sizes, each placement simulated
# ----------------------------------------------------------------------

SWEEP_CAPACITIES = (100, 300, 500, 700, 900)
PAPER_HORIZON = 2_000_000.0
PAPER_WARMUP = 0.05 * PAPER_HORIZON


def sweep_point(point, tracer=NULL_TRACER) -> Dict[str, Any]:
    """Solve and simulate one cache size (module level so it pickles)."""
    capacity, model, sim_seed = point
    with tracer.span("core.optimize"):
        outcome = get_solver(SOLVER).optimize(model)
    config = SimulationConfig(horizon=PAPER_HORIZON, seed=sim_seed, warmup=PAPER_WARMUP)
    with tracer.span("simulation.simulate"):
        sim = get_engine("batch").simulate(model, outcome.placement, config)
    return {
        "capacity": capacity,
        "model": model,
        "placement": outcome.placement,
        "objective": outcome.placement.objective,
        "outer_iterations": outcome.outer_iterations,
        "inner_solves": outcome.inner_solves,
        "converged": outcome.converged,
        "requests": sim.requests_completed,
        "chunks_from_cache": sim.chunks_from_cache,
        "chunks_from_storage": sim.chunks_from_storage,
        "latencies": sim.metrics.all_latencies(),
    }


def point_summary(result: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON-safe part of a sweep point (what the result cache stores)."""
    keys = ("capacity", "objective", "outer_iterations", "inner_solves", "converged",
            "requests", "chunks_from_cache", "chunks_from_storage")
    summary = {key: result[key] for key in keys}
    summary["latency_sum"] = float(np.sum(result["latencies"]))
    return summary


class PaperSweep:
    name = "paper_sweep"

    def setup(self, seed: int, workdir: Path, tracer) -> None:
        with tracer.span("workloads.model"):
            models = [
                paper_default_model(cache_capacity=capacity, seed=LAYOUT_SEED)
                for capacity in SWEEP_CAPACITIES
            ]
        self.points = list(zip(SWEEP_CAPACITIES, models, _seeds(seed, len(models))))
        self.workdir = workdir

    def run(self, tracer) -> Rep:
        with tracer.span("exec.sweep"):
            results = sweep_map(
                functools.partial(sweep_point, tracer=tracer), self.points, jobs=1, cache=None
            )
        self.last_summaries = [point_summary(result) for result in results]
        rep = Rep(attempted=len(results))
        with tracer.span("bench.check"):
            for result in results:
                label = f"C={result['capacity']}"
                _check_placement(rep, result["placement"], result["model"], label)
                rep.check(result["converged"], f"{label}: Algorithm 1 did not converge")
            latencies = np.concatenate([result["latencies"] for result in results])
            from_cache = sum(result["chunks_from_cache"] for result in results)
            from_storage = sum(result["chunks_from_storage"] for result in results)
            rep.outcome = {
                "objective": float(np.mean([result["objective"] for result in results])),
                "cache_frac": from_cache / (from_cache + from_storage),
                "core.outer_iterations": sum(r["outer_iterations"] for r in results),
                "core.inner_solves": sum(r["inner_solves"] for r in results),
                "simulation.requests": sum(r["requests"] for r in results),
                "simulation.cache_chunk_frac": from_cache / (from_cache + from_storage),
                "simulation.sim_mean": float(latencies.mean()),
                "simulation.sim_p99": float(np.percentile(latencies, 99.0)),
            }
        return rep

    def traced_extras(self, tracer, reps: List[Rep], timings: Dict[str, float]) -> Dict[str, float]:
        """The ``exec`` measurements: a jobs=2 pass and a cached pass.

        The jobs=2 pass stores every point in a temporary result cache; a
        second jobs=1 pass then reads every point back from it.  Both must
        reproduce the jobs=1 sweep of the measured repetitions exactly.
        """
        rep = reps[0]
        cache = ResultCache(Path(tempfile.mkdtemp(prefix="sweep-cache-", dir=self.workdir)))

        def key(cache_obj, point, index):
            capacity, _, sim_seed = point
            return cache_obj.key_for(
                {"capacity": capacity, "layout": LAYOUT_SEED, "sim_seed": sim_seed,
                 "horizon": PAPER_HORIZON}
            )

        with tracer.span("exec.fanout") as fanout:
            parallel = sweep_map(sweep_point, self.points, jobs=2, cache=cache,
                                 cache_key=key, encode=point_summary)
        with tracer.span("exec.cache_pass") as cached_pass:
            cached = sweep_map(sweep_point, self.points, jobs=1, cache=cache,
                               cache_key=key, encode=point_summary)
        rep.check([point_summary(r) for r in parallel] == self.last_summaries,
                  "jobs=2 sweep differs from jobs=1")
        rep.check(cached == self.last_summaries, "cached sweep differs from jobs=1")
        return {
            "exec.fanout_speedup": timings["exec.sweep_s"] / fanout.duration,
            "exec.cache_hits": cache.stats.hits,
            "exec.cache_misses": cache.stats.misses,
            "exec.cache_hit_s": cached_pass.duration,
        }


# ----------------------------------------------------------------------
# diurnal_online: the online controller over sampled diurnal streams
# ----------------------------------------------------------------------

DIURNAL_FILES = 1000
DIURNAL_CAPACITY = 500
#: Independent streams per repetition.  One stream in a dozen or so holds
#: a warm re-solve that runs for thousands of iterations; the median over
#: three streams keeps one such stream from deciding a run's timings.
DIURNAL_STREAMS = 3


class DiurnalOnline:
    name = "diurnal_online"

    def setup(self, seed: int, workdir: Path, tracer) -> None:
        scenario = Scenario(workload="diurnal", num_files=DIURNAL_FILES,
                            cache_capacity=DIURNAL_CAPACITY, controller="online",
                            seed=LAYOUT_SEED)
        with tracer.span("workloads.model"):
            self.workload = Session().build_workload(scenario)
            self.model = self.workload.model()
        self.horizon = scenario.effective_horizon
        self.stream_seeds = np.random.SeedSequence(seed).spawn(DIURNAL_STREAMS)
        self.controller = get_controller(scenario.controller)

    def run(self, tracer) -> Rep:
        # The bootstrap solves the model's own rates, so it is the same for
        # every stream: solve it once and run each stream on a copy.
        started = time.perf_counter()
        with tracer.span("control.bootstrap"):
            bootstrapped = self.controller.build(self.model)
            bootstrapped.bootstrap()
        bootstrap_s = time.perf_counter() - started
        rep = Rep(attempted=0, unit_times=[])
        streams, warm_seconds = [], []
        for stream_seed in self.stream_seeds:
            started = time.perf_counter()
            with tracer.span("workloads.sample"):
                stream = self.workload.sample(np.random.default_rng(stream_seed), horizon=self.horizon)
            with tracer.span("control.run"):
                result = copy.deepcopy(bootstrapped).run(stream)
            rep.unit_times.append(bootstrap_s + time.perf_counter() - started)
            with tracer.span("bench.check"):
                streams.append(self._check_stream(rep, stream, result))
                warm_seconds.append([record.report.seconds for record in result.bins[1:]])
        with tracer.span("bench.check"):
            rep.outcome = {key: float(np.median([values[key] for values in streams]))
                           for key in streams[0]}
            rep.timing = {
                "control.warm_s": float(np.median([sum(seconds) for seconds in warm_seconds])),
                "control.replan_p50_s": float(np.percentile(np.concatenate(warm_seconds), 50)),
                "control.replan_p80_s": float(np.percentile(np.concatenate(warm_seconds), 80)),
            }
        return rep

    def _check_stream(self, rep: Rep, stream, result) -> Dict[str, Any]:
        """Check one controller run; return its values (medians are kept)."""
        bins = result.bins
        rep.attempted += len(bins)
        k = np.asarray([spec.k for spec in self.model.files], dtype=float)
        served = []
        for record in bins:
            applied = np.asarray(record.churn.applied, dtype=float)
            rep.check(applied.sum() <= DIURNAL_CAPACITY and np.all(applied <= k),
                      f"bin {record.index}: applied allocation does not fit C={DIURNAL_CAPACITY}")
            rep.check(math.isfinite(record.report.objective),
                      f"bin {record.index}: latency bound is not finite")
            rates = np.asarray(record.rates, dtype=float)
            served.append(float(rates @ applied) / float(rates @ k))
        warm = [record.report for record in bins[1:]]
        rep.check(len(warm) > 0, "the stream opened no bin after the bootstrap")
        return {
            "objective": float(np.mean([record.report.objective for record in bins])),
            "cache_frac": float(np.mean(served)),
            "workloads.sampled_requests": stream.num_requests,
            "control.bootstrap_iterations": bins[0].report.iterations,
            "control.warm_iterations": sum(report.iterations for report in warm),
            "control.bins": len(bins),
            "control.drift_events": result.num_drift_events,
            "control.fallbacks": sum(1 for report in warm if report.fallback),
            "control.fraction_frozen": float(np.mean([report.fraction_frozen for report in warm])),
            "control.churn_chunks": result.total_added_chunks + result.total_dropped_chunks,
        }


# ----------------------------------------------------------------------
# crash_replay: an ingested CDN trace replayed under OSD crashes
# ----------------------------------------------------------------------

TRACE_ROWS = 600_000
TRACE_OBJECTS = 1000
TRACE_RATE_RPS = 4.0  # aggregate, as Session.replay_cluster normalizes to
PUT_FRACTION = 0.10
OBJECT_SIZE_MB = 64
REPLAY_CAPACITY = 300  # chunks; the working set does not fit
SECTION_VA_RATE = 0.14  # aggregate req/s of the Section V-A model
CRASH_RATE = 1.0 / 6000.0  # per OSD per second; x 60 s downtime = 1% down
DOWNTIME_MS = 60_000.0
REPAIR_RATE = 0.05  # background repair jobs per second


def write_cdn_trace(path: Path, seed: int) -> int:
    """Write a seeded CDN-format trace; return its number of read rows."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / TRACE_RATE_RPS, TRACE_ROWS))
    weights = 1.0 / np.arange(1, TRACE_OBJECTS + 1) ** 0.9
    objects = rng.choice(TRACE_OBJECTS, size=TRACE_ROWS, p=weights / weights.sum())
    puts = rng.random(TRACE_ROWS) < PUT_FRACTION
    size = OBJECT_SIZE_MB * 1024 * 1024
    ops = np.where(puts, "PUT", "GET")
    lines = [f"{t:.6f},obj-{o:04d},{size},{op}" for t, o, op in zip(times.tolist(), objects.tolist(), ops.tolist())]
    path.write_text("timestamp,object_id,size,op\n" + "\n".join(lines) + "\n")
    return int(TRACE_ROWS - np.count_nonzero(puts))


class CrashReplay:
    name = "crash_replay"

    def setup(self, seed: int, workdir: Path, tracer) -> None:
        trace_seed, replay_seed = _seeds(seed, 2)
        self.path = workdir / "cdn_trace.csv"
        with tracer.span("bench.trace_write"):
            self.expected_reads = write_cdn_trace(self.path, trace_seed)
            self.path.read_bytes()  # warm the page cache before timing
        self.replay_seed = replay_seed
        k = 4
        self.config = ClusterConfig(
            num_osds=12, n=7, k=k, object_size_mb=OBJECT_SIZE_MB,
            cache_capacity_mb=REPLAY_CAPACITY * chunk_size_for_object(OBJECT_SIZE_MB, k),
            seed=LAYOUT_SEED,
        )
        self.faults = [
            GeneratedFaultSchedule("osd_crash", {"crash_rate": CRASH_RATE, "downtime_ms": DOWNTIME_MS}),
            GeneratedFaultSchedule("repair_traffic", {"rate": REPAIR_RATE}),
        ]

    def _replay(self, object_ids, trace, policy):
        return ClusterReplay(self.config, object_ids, policy=policy).run(
            trace, engine="epoch", seed=self.replay_seed, faults=self.faults
        )

    def run(self, tracer) -> Rep:
        with tracer.span("workloads.ingest"):
            stream = load_trace(self.path, schema="cdn")
        with tracer.span("workloads.trace_model"):
            total_rate = stream.num_requests / stream.duration
            # Session.replay_cluster scales model rates up to the cluster's
            # aggregate; the solve needs the inverse, down to Section V-A's.
            model = TraceWorkload(stream, cache_capacity=REPLAY_CAPACITY, seed=LAYOUT_SEED,
                                  rate_scale=SECTION_VA_RATE / total_rate).model()
        with tracer.span("core.optimize"):
            solved = get_solver(SOLVER).optimize(model)
        with tracer.span("cluster.trace"):
            trace = ReplayTrace.from_request_stream(stream)
            object_ids = list(stream.object_ids)
            allocation = solved.placement.cached_chunks()
        with tracer.span("cluster.lru_replay"):
            lru = self._replay(object_ids, trace, "lru")
        with tracer.span("cluster.functional_replay"):
            functional = self._replay(
                object_ids, trace,
                lambda capacity, chunks_per_file: StaticFunctionalPolicy(
                    capacity, chunks_per_file, allocation=allocation),
            )
        rep = Rep(attempted=lru.reads + functional.reads,
                  failed_reads=lru.failed_reads + functional.failed_reads)
        with tracer.span("bench.check"):
            for label, result in (("lru", lru), ("functional", functional)):
                served = int(np.count_nonzero(result.served_mask))
                rep.check(served + result.failed_reads == result.reads == stream.num_requests,
                          f"{label}: served + failed reads != total reads")
                rep.check(served == result.latencies_ms.size, f"{label}: latency count != served reads")
            rep.check(stream.num_requests == self.expected_reads, "ingested reads != GET rows written")
            rep.check([spec.file_id for spec in model.files] == object_ids,
                      "trace object ids do not match the model's files")
            rep.check(set(object_ids) <= {f"obj-{i:04d}" for i in range(TRACE_OBJECTS)},
                      "trace holds object ids that were never written")
            _check_placement(rep, solved.placement, model, "trace model")
            cache_frac = functional.chunks_from_cache / (
                functional.chunks_from_cache + functional.chunks_from_storage)
            rep.outcome = {
                "objective": solved.placement.objective,
                "cache_frac": cache_frac,
                "core.outer_iterations": solved.outer_iterations,
                "core.inner_solves": solved.inner_solves,
                "cluster.reads": functional.reads,
                "cluster.chunks_from_storage": functional.chunks_from_storage,
                "cluster.replay_p50_ms": functional.percentile_ms(50.0),
                "cluster.replay_p99_ms": functional.percentile_ms(99.0),
                "cluster.hit_ratio": functional.hit_ratio,
                "cluster.lru_replay_p99_ms": lru.percentile_ms(99.0),
                "policies.lru_hit_ratio": lru.hit_ratio,
                "policies.lru_promotions": lru.promotions,
                "policies.lru_evictions_mb": lru.evictions_mb,
                "faults.degraded_reads": functional.degraded_reads,
                "faults.failed_reads": functional.failed_reads + lru.failed_reads,
                "faults.repair_jobs": functional.repair_jobs,
                "workloads.ingest_rows": TRACE_ROWS,
            }
        return rep


# ----------------------------------------------------------------------
# functional_io: bytes through the functional-cache coder
# ----------------------------------------------------------------------

IO_FILES = 160
IO_FILE_BYTES = 256 * 1024
IO_CAPACITY = 320  # chunks: half of the 160 x k = 640 a full cache would hold


class FunctionalIO:
    name = "functional_io"

    def setup(self, seed: int, workdir: Path, tracer) -> None:
        # The cache allocation d_i is Algorithm 1's for a fixed 160-file
        # model; the payloads and the storage chunks each read fetches
        # come from the seed.
        with tracer.span("workloads.model"):
            model = paper_default_model(num_files=IO_FILES, cache_capacity=IO_CAPACITY,
                                        seed=LAYOUT_SEED)
        placement = get_solver(SOLVER).optimize(model).placement
        self.placement, self.model = placement, model
        code = ReedSolomonCode(7, 4)
        rng = np.random.default_rng(seed)
        self.files = []
        for spec, entry in zip(model.files, placement.files):
            d = entry.cached_chunks
            fetch = sorted(rng.choice(code.n, size=code.k - d, replace=False).tolist())
            self.files.append((FunctionalCacheCoder(code, spec.file_id), rng.bytes(IO_FILE_BYTES), d, fetch))

    def run(self, tracer) -> Rep:
        rep = Rep(attempted=2 * len(self.files))
        for coder, payload, d, fetch in self.files:
            with tracer.span("erasure.encode"):
                stored = coder.storage_chunks(payload)
            with tracer.span("erasure.cache_build"):
                cached = coder.build_cache_chunks(payload, d)
            with tracer.span("erasure.decode"):
                data = coder.reconstruct(cached, [stored[index] for index in fetch])
            with tracer.span("bench.check"):
                rep.check(data == payload, f"{coder.file_id}: reconstruction differs from payload")
        k_total = sum(coder.code.k for coder, *_ in self.files)
        rep.outcome = {
            "objective": self.placement.objective,
            "cache_frac": sum(d for _, _, d, _ in self.files) / k_total,
            "erasure.bytes": IO_FILE_BYTES * len(self.files),
        }
        _check_placement(rep, self.placement, self.model, "functional_io model")
        return rep


WORKLOADS = {cls.name: cls for cls in (PaperSweep, DiurnalOnline, CrashReplay, FunctionalIO)}
