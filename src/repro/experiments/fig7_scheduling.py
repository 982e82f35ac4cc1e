"""Fig. 7: chunk requests served from cache vs storage per time slot.

The experiment runs 1000 objects of 200 MB (chunk size 50 MB under a (7,4)
code) with a 62.5 GB cache (1250 chunks), under two per-object arrival
rates (0.0225/s and 0.0384/s).  A 100-second time bin is divided into twenty
5-second slots and the number of chunk requests sent to the cache and to the
storage nodes is counted in every slot.  Because every object has the same
arrival rate, the fraction of chunks served from the cache is governed by
the cache-to-data ratio (1250 cached chunks out of 4000 total, roughly a
third), which is the ~33% the paper reports for both workloads; the absolute
counts scale with the arrival rate.

Note that the chunk *counts* depend only on the arrival process and the
cache allocation, not on the service times, so the figure's shape is
insensitive to how loaded the storage nodes are; the OSD service times used
here are the Table-IV measurements for the nearest chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.api.experiments import register_experiment
from repro.cluster.devices import hdd_service_for_chunk_size, nearest_measured_chunk_size
from repro.core.algorithm import CacheOptimizer
from repro.core.model import FileSpec, StorageSystemModel
from repro.simulation.simulator import SimulationConfig, StorageSimulator


@dataclass
class SlotSeries:
    """Per-slot chunk counts for one arrival rate."""

    per_object_rate: float
    slots: List[Dict[str, float]] = field(default_factory=list)
    cache_fraction: float = 0.0
    expected_cache_fraction: float = 0.0


@dataclass
class Fig7Result:
    """Slot series for every arrival rate tested."""

    series: List[SlotSeries] = field(default_factory=list)
    num_objects: int = 0
    cache_capacity_chunks: int = 0


def _build_model(
    num_objects: int,
    cache_capacity_chunks: int,
    per_object_rate: float,
    chunk_size_mb: int,
    seed: int,
) -> StorageSystemModel:
    n, k = 7, 4
    num_nodes = 12
    rng = np.random.default_rng(seed)
    measured_size = nearest_measured_chunk_size(chunk_size_mb)
    service = hdd_service_for_chunk_size(measured_size)
    services = [service for _ in range(num_nodes)]
    files = []
    for index in range(num_objects):
        placement = [int(x) for x in rng.choice(num_nodes, size=n, replace=False)]
        files.append(
            FileSpec(
                file_id=f"obj-{index}",
                n=n,
                k=k,
                placement=placement,
                arrival_rate=per_object_rate,
                chunk_size=chunk_size_mb,
            )
        )
    return StorageSystemModel(
        services=services, files=files, cache_capacity=cache_capacity_chunks
    )


@register_experiment(
    "fig7",
    title="Cache vs storage chunk scheduling (Fig. 7)",
    description="simulated per-slot chunk counts served from cache vs storage",
    scales={"fast": {"num_objects": 200, "cache_capacity_chunks": 250}},
)
def run(
    per_object_rates: Sequence[float] = (0.0225, 0.0384),
    num_objects: int = 1000,
    cache_capacity_chunks: int = 1250,
    time_bin_length: float = 100.0,
    slot_length: float = 5.0,
    chunk_size_mb: int = 50,
    seed: int = 2016,
    tolerance: float = 0.05,
    engine: str = "batch",
) -> Fig7Result:
    """Run the Fig. 7 chunk-scheduling experiment.

    Service times are in milliseconds (Table-IV scale) while arrivals are in
    seconds, matching the testbed set-up the figure comes from.  The
    simulation defaults to the vectorised batch engine; pass
    ``engine="event"`` for the per-arrival discrete-event loop.
    """
    result = Fig7Result(
        num_objects=num_objects, cache_capacity_chunks=cache_capacity_chunks
    )
    for per_object_rate in per_object_rates:
        # The model works in one consistent time unit.  Table-IV service
        # times are in milliseconds, so arrival rates are converted to
        # requests per millisecond and the horizon / slot length to ms.
        model = _build_model(
            num_objects,
            cache_capacity_chunks,
            per_object_rate / 1000.0,
            chunk_size_mb,
            seed,
        )
        optimizer = CacheOptimizer(model, tolerance=tolerance)
        placement = optimizer.optimize().placement
        simulator = StorageSimulator(model, placement, engine=engine)
        config = SimulationConfig(
            horizon=time_bin_length * 1000.0,
            seed=seed,
            slot_length=slot_length * 1000.0,
        )
        sim_result = simulator.run(config)
        slot_counter = sim_result.slot_counter
        expected_fraction = cache_capacity_chunks / (4.0 * num_objects)
        series = SlotSeries(
            per_object_rate=per_object_rate,
            slots=slot_counter.as_rows() if slot_counter is not None else [],
            cache_fraction=sim_result.cache_chunk_fraction(),
            expected_cache_fraction=expected_fraction,
        )
        result.series.append(series)
    return result


def format_result(result: Fig7Result) -> str:
    """Render the per-slot cache/storage chunk counts."""
    lines = [
        "Fig. 7 -- chunk requests served from cache vs storage per 5-s slot "
        f"({result.num_objects} objects, cache = {result.cache_capacity_chunks} chunks)"
    ]
    for series in result.series:
        lines.append(
            f"per-object arrival rate {series.per_object_rate}: cache fraction = "
            f"{series.cache_fraction:.1%} "
            f"(cache/data ratio = {series.expected_cache_fraction:.1%}, paper: ~33%)"
        )
        lines.append(f"{'slot':>5} {'cache chunks':>13} {'storage chunks':>15}")
        for row in series.slots:
            lines.append(
                f"{int(row['slot']):>5} {int(row['cache_chunks']):>13} "
                f"{int(row['storage_chunks']):>15}"
            )
    return "\n".join(lines)
