"""Fig. 6: impact of content placement and arrival rate on cache allocation.

Ten files are stored on 12 servers with a deliberately skewed layout: the
first three files live on servers 0-6 and the remaining seven on servers
5-11, so servers 5 and 6 hold chunks of every file.  The arrival rates of
the last eight files are fixed and the common rate of the first two files is
swept upward.  The paper's point: even though the first two files have the
highest arrival rate, they get no cache space at the low end of the sweep
because their servers are lightly loaded; only as their rate grows do their
chunks displace the other files' chunks in the cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api.experiments import register_experiment
from repro.core.algorithm import CacheOptimizer
from repro.exec import CacheLike, ProgressLike, sweep_map
from repro.experiments._sweep import dataclass_codec, experiment_cache_key
from repro.simulation.simulator import SimulationConfig, StorageSimulator
from repro.workloads.catalog import ten_file_model

#: The arrival rates the paper sweeps for the first two files (requests/s).
PAPER_SWEEP_RATES: List[float] = [
    0.0001250,
    0.0001563,
    0.0001786,
    0.0002083,
    0.0002500,
    0.0002778,
]

#: Fixed rates of the remaining files: files 2-3 at 0.0000962/s and files
#: 4-9 at 0.0001042/s, as described in Section V-B.
FIXED_RATE_FILES_2_3 = 0.0000962
FIXED_RATE_FILES_4_9 = 0.0001042


@dataclass
class SweepPoint:
    """Cache allocation at one arrival rate of the first two files."""

    rate_first_two: float
    chunks_first_two: int
    chunks_files_2_3: int
    chunks_last_six: int
    total_cached: int
    simulated_latency: Optional[float] = None


@dataclass
class Fig6Result:
    """The full arrival-rate sweep."""

    points: List[SweepPoint] = field(default_factory=list)
    cache_capacity: int = 0

    def first_two_series(self) -> List[int]:
        """Chunks cached for the first two files across the sweep."""
        return [point.chunks_first_two for point in self.points]

    def last_six_series(self) -> List[int]:
        """Chunks cached for the last six files across the sweep."""
        return [point.chunks_last_six for point in self.points]


def _arrival_rates(rate_first_two: float) -> List[float]:
    rates = [rate_first_two, rate_first_two]
    rates += [FIXED_RATE_FILES_2_3] * 2
    rates += [FIXED_RATE_FILES_4_9] * 6
    return rates


def run_for_sweep_rate(
    rate: float,
    cache_capacity: int = 10,
    rate_scale: float = 80.0,
    tolerance: float = 0.001,
    seed: int = 2016,
    simulate: bool = False,
    engine: str = "batch",
    horizon: float = 5000.0,
) -> SweepPoint:
    """Solve one sweep point: the allocation at one first-two rate."""
    model = ten_file_model(
        cache_capacity=cache_capacity,
        arrival_rates=_arrival_rates(rate),
        placement_mode="split",
        seed=seed,
        rate_scale=rate_scale,
    )
    optimizer = CacheOptimizer(model, tolerance=tolerance)
    placement = optimizer.optimize().placement
    cached = placement.cached_chunks()
    chunks_first_two = cached["file-0"] + cached["file-1"]
    chunks_files_2_3 = cached["file-2"] + cached["file-3"]
    chunks_last_six = sum(cached[f"file-{index}"] for index in range(4, 10))
    simulated_latency: Optional[float] = None
    if simulate:
        simulator = StorageSimulator(model, placement, engine=engine)
        config = SimulationConfig(horizon=horizon, seed=seed, warmup=horizon * 0.1)
        simulated_latency = simulator.run(config).mean_latency()
    return SweepPoint(
        rate_first_two=rate,
        chunks_first_two=chunks_first_two,
        chunks_files_2_3=chunks_files_2_3,
        chunks_last_six=chunks_last_six,
        total_cached=placement.total_cached_chunks,
        simulated_latency=simulated_latency,
    )


@register_experiment(
    "fig6",
    title="Placement and arrival-rate impact (Fig. 6)",
    description="cache allocation shift as two files heat up on the 10-file model",
)
def run(
    sweep_rates: Sequence[float] = tuple(PAPER_SWEEP_RATES),
    cache_capacity: int = 10,
    rate_scale: float = 80.0,
    tolerance: float = 0.001,
    seed: int = 2016,
    simulate: bool = False,
    engine: str = "batch",
    horizon: float = 5000.0,
    jobs: Optional[int] = None,
    cache: CacheLike = None,
    progress: ProgressLike = None,
) -> Fig6Result:
    """Run the Fig. 6 placement/arrival-rate sweep (parallel over rates).

    ``rate_scale`` plays the same role as in the Fig. 5 experiment: the
    Table rates are scaled so that queueing (and hence caching) matters on a
    10-file system without background load, while preserving the relative
    ordering the figure is about.  With ``simulate=True`` each sweep point's
    optimized placement is additionally replayed through the storage
    simulator (``engine`` picks the backend, batch by default) and the
    simulated mean latency recorded per point.
    """
    params = {
        "cache_capacity": cache_capacity,
        "rate_scale": rate_scale,
        "tolerance": tolerance,
        "seed": seed,
        "simulate": simulate,
        "engine": engine,
        "horizon": horizon,
    }
    encode, decode = dataclass_codec(SweepPoint)
    points = sweep_map(
        functools.partial(run_for_sweep_rate, **params),
        [float(rate) for rate in sweep_rates],
        jobs=jobs,
        label="fig6",
        progress=progress,
        cache=cache,
        cache_key=experiment_cache_key("fig6", params),
        encode=encode,
        decode=decode,
    )
    return Fig6Result(points=points, cache_capacity=cache_capacity)


def format_result(result: Fig6Result) -> str:
    """Render the sweep as the grouped bars of Fig. 6."""
    lines = [
        "Fig. 6 -- cache allocation vs arrival rate of the first two files "
        f"(cache capacity = {result.cache_capacity} chunks)",
        f"{'rate (first two)':>18} {'first two':>10} {'files 2-3':>10} "
        f"{'last six':>10} {'total':>7}",
    ]
    for point in result.points:
        lines.append(
            f"{point.rate_first_two:>18.7f} {point.chunks_first_two:>10} "
            f"{point.chunks_files_2_3:>10} {point.chunks_last_six:>10} "
            f"{point.total_cached:>7}"
        )
    lines.append(
        "expected shape: first-two allocation grows with their arrival rate, "
        "displacing the last-six files' chunks"
    )
    return "\n".join(lines)
