"""Fig. 5 / Table I: evolution of cache content across three time bins.

Ten files are simulated over three time bins whose per-file arrival rates
follow Table I; the cache placement is re-optimized at every bin boundary.
The paper's observation is that the cache tracks the hot files of each bin
(files with increased rates gain chunks, cooled-down files lose them), but
placement and server speeds also matter, so the hottest files are not always
fully cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.api.experiments import register_experiment
from repro.control import OnlineController
from repro.exec import ProgressLike, sweep_scan
from repro.simulation.simulator import SimulationConfig, StorageSimulator
from repro.workloads.catalog import (
    TABLE_I_ARRIVAL_RATES,
    table_i_time_bins,
    ten_file_model,
)


@dataclass
class Fig5Result:
    """Cache contents per time bin."""

    cache_per_bin: List[Dict[str, int]] = field(default_factory=list)
    arrival_rates_per_bin: List[Dict[str, float]] = field(default_factory=list)
    latency_per_bin: List[float] = field(default_factory=list)
    simulated_latency_per_bin: List[float] = field(default_factory=list)
    cache_capacity: int = 0

    def chunks_for(self, file_id: str) -> List[int]:
        """Cache allocation of one file across the bins."""
        return [bin_content.get(file_id, 0) for bin_content in self.cache_per_bin]


@register_experiment(
    "fig5",
    title="Cache content evolution over time bins (Fig. 5 / Table I)",
    description="per-bin optimal cache content under the Table-I rate shifts",
)
def run(
    cache_capacity: int = 10,
    rate_scale: float = 65.0,
    tolerance: float = 0.001,
    seed: int = 2016,
    simulate_bins: bool = False,
    engine: str = "batch",
    horizon: float = 5000.0,
    progress: ProgressLike = None,
) -> Fig5Result:
    """Run the three-time-bin cache-evolution experiment.

    Parameters
    ----------
    cache_capacity:
        Cache size in chunks shared by the ten files.
    rate_scale:
        Factor applied to the Table-I rates.  The raw rates produce an almost
        idle 10-file system in which caching is irrelevant; the paper's
        experiment (which keeps the 12-server testbed busy with background
        load) is emulated by scaling the ten files' rates so the relative
        popularity ordering of Table I is preserved while queueing matters.
    simulate_bins:
        Also replay each bin's placement through the storage simulator
        (under that bin's arrival rates) and record the simulated mean
        latency as a cross-check of the analytical per-bin bound.
    engine:
        Simulation engine for the per-bin replays (``"batch"`` default).
    horizon:
        Simulated duration of each bin replay, in seconds.
    """
    model = ten_file_model(
        cache_capacity=cache_capacity, seed=seed, rate_scale=rate_scale
    )
    controller = OnlineController(model, alternation_tolerance=tolerance)
    result = Fig5Result(cache_capacity=cache_capacity)

    # The controller carries its warm state from bin to bin, so the bins
    # form a sequential scan (the carry is the controller itself).
    def process_time_bin(time_bin, carry):
        scaled = {
            file_id: rate * rate_scale
            for file_id, rate in time_bin.arrival_rates.items()
        }
        record = carry.process_bin(scaled, index=time_bin.index)
        simulated = None
        if simulate_bins:
            bin_model = model.copy_with_arrival_rates(scaled)
            simulator = StorageSimulator(bin_model, record.placement, engine=engine)
            config = SimulationConfig(
                horizon=horizon, seed=seed, warmup=horizon * 0.1
            )
            simulated = simulator.run(config).mean_latency()
        return (scaled, record, simulated), carry

    for scaled, record, simulated in sweep_scan(
        process_time_bin,
        table_i_time_bins(),
        carry=controller,
        label="fig5",
        progress=progress,
    ):
        result.cache_per_bin.append(record.placement.cached_chunks())
        result.arrival_rates_per_bin.append(dict(scaled))
        result.latency_per_bin.append(record.placement.objective)
        if simulated is not None:
            result.simulated_latency_per_bin.append(simulated)
    return result


def format_result(result: Fig5Result) -> str:
    """Render the per-bin cache contents (the bars of Fig. 5)."""
    file_ids = sorted(
        {file_id for bin_content in result.cache_per_bin for file_id in bin_content},
        key=lambda name: int(name.split("-")[1]),
    )
    lines = [
        "Fig. 5 / Table I -- cache content evolution over 3 time bins "
        f"(cache capacity = {result.cache_capacity} chunks)",
        f"{'file':>8} " + " ".join(f"bin{b + 1:>2}" for b in range(len(result.cache_per_bin))),
    ]
    for file_id in file_ids:
        chunks = result.chunks_for(file_id)
        lines.append(f"{file_id:>8} " + " ".join(f"{c:>4}" for c in chunks))
    lines.append(
        "latency per bin: "
        + ", ".join(f"{latency:.2f}s" for latency in result.latency_per_bin)
    )
    if result.simulated_latency_per_bin:
        lines.append(
            "simulated latency per bin: "
            + ", ".join(f"{latency:.2f}s" for latency in result.simulated_latency_per_bin)
        )
    return "\n".join(lines)


def hottest_files_per_bin(result: Fig5Result, top: int = 4) -> List[List[str]]:
    """The ``top`` most popular files of each bin (by that bin's rates)."""
    hottest = []
    for rates in result.arrival_rates_per_bin:
        ranked = sorted(rates, key=lambda file_id: rates[file_id], reverse=True)
        hottest.append(ranked[:top])
    return hottest


def table_i_rates() -> List[Dict[str, float]]:
    """The raw Table-I arrival rates (for reports and tests)."""
    return [dict(rates) for rates in TABLE_I_ARRIVAL_RATES]
