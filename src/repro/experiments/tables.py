"""Tables of the evaluation section: Table III, Table IV and Table V.

Tables I (time-bin arrival rates) and II (COSBench configuration) are pure
inputs and live in :mod:`repro.workloads`; this module regenerates the
measurement tables from the emulated devices and renders all of them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api.experiments import register_experiment
from repro.cluster.devices import (
    HDD_SERVICE_TABLE,
    SSD_CACHE_LATENCY_TABLE,
    hdd_service_for_chunk_size,
    ssd_service_for_chunk_size,
)
from repro.exec import CacheLike, ProgressLike, spawn_point_seeds, sweep_map
from repro.experiments._sweep import dataclass_codec, experiment_cache_key
from repro.workloads.catalog import TABLE_I_ARRIVAL_RATES, TABLE_III_WORKLOAD


@dataclass
class TableIVRow:
    """One row of Table IV: measured chunk service time at HDD OSDs."""

    chunk_size_mb: int
    paper_mean_ms: float
    paper_variance: float
    emulated_mean_ms: float
    emulated_variance: float


@dataclass
class TableVRow:
    """One row of Table V: chunk read latency from the SSD cache."""

    chunk_size_mb: int
    paper_latency_ms: float
    emulated_latency_ms: float


@dataclass
class TablesResult:
    """All regenerated tables."""

    table_iii: Dict[int, float] = field(default_factory=dict)
    table_iv: List[TableIVRow] = field(default_factory=list)
    table_v: List[TableVRow] = field(default_factory=list)


def run_table_iv_row(point: Tuple[int, int], samples: int) -> TableIVRow:
    """Sample one Table IV row from its own spawned seed.

    Rows used to draw from one shared generator in sequence; giving each
    row an independent ``SeedSequence``-spawned seed (keyed by row index)
    makes the rows order-independent, so the sweep parallelizes and each
    row is individually cacheable.
    """
    chunk_size, row_seed = point
    row = HDD_SERVICE_TABLE[chunk_size]
    service = hdd_service_for_chunk_size(chunk_size)
    rng = np.random.default_rng(row_seed)
    draws = np.asarray(service.sample(rng, size=samples), dtype=float)
    return TableIVRow(
        chunk_size_mb=chunk_size,
        paper_mean_ms=row["mean_ms"],
        paper_variance=row["variance_ms2"],
        emulated_mean_ms=float(draws.mean()),
        emulated_variance=float(draws.var()),
    )


@register_experiment(
    "tables",
    title="Tables I, III, IV, V",
    description="workload and device measurement tables regenerated from the emulation",
    scales={"fast": {"samples": 5000}, "paper": {"samples": 20000}},
)
def run(
    samples: int = 20000,
    seed: int = 2016,
    jobs: Optional[int] = None,
    cache: CacheLike = None,
    progress: ProgressLike = None,
) -> TablesResult:
    """Regenerate Tables III-V (sampling the emulated devices for IV/V)."""
    chunk_sizes = sorted(HDD_SERVICE_TABLE)
    row_seeds = spawn_point_seeds(seed, len(chunk_sizes))
    points = list(zip(chunk_sizes, row_seeds))
    encode, decode = dataclass_codec(TableIVRow)
    table_iv = sweep_map(
        functools.partial(run_table_iv_row, samples=samples),
        points,
        jobs=jobs,
        label="tables",
        progress=progress,
        cache=cache,
        cache_key=experiment_cache_key("tables", {"samples": samples}),
        encode=encode,
        decode=decode,
    )
    result = TablesResult(table_iii=dict(TABLE_III_WORKLOAD), table_iv=table_iv)
    for chunk_size, latency in sorted(SSD_CACHE_LATENCY_TABLE.items()):
        service = ssd_service_for_chunk_size(chunk_size)
        result.table_v.append(
            TableVRow(
                chunk_size_mb=chunk_size,
                paper_latency_ms=latency,
                emulated_latency_ms=float(service.mean),
            )
        )
    return result


def format_result(result: TablesResult) -> str:
    """Render Tables I and III-V."""
    lines = ["Table I -- arrival rates (requests/s) of 10 files in 3 time bins"]
    file_ids = sorted(TABLE_I_ARRIVAL_RATES[0], key=lambda f: int(f.split("-")[1]))
    header = f"{'bin':>4} " + " ".join(f"{fid.split('-')[1]:>9}" for fid in file_ids)
    lines.append(header)
    for index, rates in enumerate(TABLE_I_ARRIVAL_RATES):
        lines.append(
            f"{index + 1:>4} "
            + " ".join(f"{rates[fid]:>9.6f}" for fid in file_ids)
        )

    lines.append("")
    lines.append("Table III -- 24-hour workload: per-object read arrival rate by size")
    lines.append(f"{'object size (MB)':>17} {'arrival rate (req/s)':>21}")
    for size, rate in sorted(result.table_iii.items()):
        lines.append(f"{size:>17} {rate:>21.8f}")

    lines.append("")
    lines.append("Table IV -- chunk service time at HDD OSDs (ms)")
    lines.append(
        f"{'chunk (MB)':>11} {'paper mean':>11} {'emul mean':>11} "
        f"{'paper var':>12} {'emul var':>12}"
    )
    for row in result.table_iv:
        lines.append(
            f"{row.chunk_size_mb:>11} {row.paper_mean_ms:>11.2f} "
            f"{row.emulated_mean_ms:>11.2f} {row.paper_variance:>12.2f} "
            f"{row.emulated_variance:>12.2f}"
        )

    lines.append("")
    lines.append("Table V -- chunk read latency from the SSD cache (ms)")
    lines.append(f"{'chunk (MB)':>11} {'paper':>9} {'emulated':>9}")
    for row in result.table_v:
        lines.append(
            f"{row.chunk_size_mb:>11} {row.paper_latency_ms:>9.2f} "
            f"{row.emulated_latency_ms:>9.2f}"
        )
    return "\n".join(lines)
