"""Canonical home of the paper's workload constants and model builders.

This module carries the Section V-A simulation setup (default arrival and
service rates, the paper's default and ten-file models) and the Table I /
Table III rate tables.  Import from :mod:`repro.workloads` (or from here)
and select workloads through the registry (``Scenario(workload=...)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.model import FileSpec, StorageSystemModel
from repro.exceptions import ModelError, WorkloadError
from repro.queueing.distributions import ExponentialService

#: Per-file arrival rates (requests/second) repeated for every group of five
#: files, as listed in Section V-A.  The aggregate over 1000 files is
#: roughly 0.1416 requests/second.
DEFAULT_ARRIVAL_RATE_PATTERN: List[float] = [
    0.000156,
    0.000156,
    0.000125,
    0.000167,
    0.000104,
]

#: Inverse mean service times (1/seconds) of the storage servers, from the
#: measurements quoted in Section V-A.  The paper lists eleven values for
#: twelve servers; the reproduction assigns the first value (0.1) to the
#: twelfth server and records that choice in DESIGN.md.
DEFAULT_SERVICE_RATES: List[float] = [
    0.1,
    0.1,
    0.1,
    0.0909,
    0.0909,
    0.0667,
    0.0667,
    0.0769,
    0.0769,
    0.0588,
    0.0588,
    0.1,
]

#: Default erasure code of the simulation study.
DEFAULT_CODE = (7, 4)

#: Default chunk size (MB): 100 MB files split into k = 4 chunks of 25 MB.
DEFAULT_CHUNK_SIZE_MB = 25

#: Table I: request arrival rates (requests/second) of the ten files in the
#: three consecutive time bins of the cache-evolution experiment.
TABLE_I_ARRIVAL_RATES: List[Dict[str, float]] = [
    {  # time bin 1
        "file-0": 0.000156,
        "file-1": 0.000156,
        "file-2": 0.000125,
        "file-3": 0.000167,
        "file-4": 0.000104,
        "file-5": 0.000156,
        "file-6": 0.000156,
        "file-7": 0.000125,
        "file-8": 0.000167,
        "file-9": 0.000104,
    },
    {  # time bin 2: files 3/8 cool down, files 4/9 heat up
        "file-0": 0.000156,
        "file-1": 0.000156,
        "file-2": 0.000125,
        "file-3": 0.000125,
        "file-4": 0.000125,
        "file-5": 0.000156,
        "file-6": 0.000156,
        "file-7": 0.000125,
        "file-8": 0.000125,
        "file-9": 0.000125,
    },
    {  # time bin 3: files 1/6 become the hottest, files 0/5 cool down
        "file-0": 0.000125,
        "file-1": 0.00025,
        "file-2": 0.000125,
        "file-3": 0.000167,
        "file-4": 0.000104,
        "file-5": 0.000125,
        "file-6": 0.00025,
        "file-7": 0.000125,
        "file-8": 0.000167,
        "file-9": 0.000104,
    },
]

#: Table III: the 24-hour real storage workload -- object sizes (MB) and the
#: average read request arrival rate per object of that size (requests/s).
TABLE_III_WORKLOAD: Dict[int, float] = {
    4: 0.00029868,
    16: 0.00010824,
    64: 0.00051852,
    256: 0.0000078,
    1024: 0.0000024,
}


def paper_default_model(
    num_files: int = 1000,
    cache_capacity: int = 500,
    num_nodes: int = 12,
    n: Optional[int] = None,
    k: Optional[int] = None,
    arrival_rate_pattern: Optional[Sequence[float]] = None,
    service_rates: Optional[Sequence[float]] = None,
    seed: int = 2016,
    rate_scale: float = 1.0,
) -> StorageSystemModel:
    """Build the default simulation model of Section V-A.

    Parameters
    ----------
    num_files:
        Number of files ``r`` (1000 in the paper).
    cache_capacity:
        Cache size in chunks (the paper's default is 500 chunks of 25 MB).
    num_nodes:
        Number of storage servers ``m`` (12 in the paper).
    n, k:
        Erasure-code parameters; default (7, 4).
    arrival_rate_pattern:
        Per-file arrival rates cycled over the files.
    service_rates:
        Per-server service rates (1/mean service time).
    seed:
        Seed controlling the random chunk placement.
    rate_scale:
        Multiplier applied to every arrival rate (used by load sweeps).
    """
    if n is None or k is None:
        n, k = DEFAULT_CODE
    if arrival_rate_pattern is None:
        arrival_rate_pattern = DEFAULT_ARRIVAL_RATE_PATTERN
    if service_rates is None:
        service_rates = DEFAULT_SERVICE_RATES[:num_nodes]
    if len(service_rates) != num_nodes:
        raise ModelError(
            f"expected {num_nodes} service rates, got {len(service_rates)}"
        )
    rng = np.random.default_rng(seed)
    services = [ExponentialService(rate) for rate in service_rates]
    files = []
    for index in range(num_files):
        placement = rng.choice(num_nodes, size=n, replace=False)
        rate = arrival_rate_pattern[index % len(arrival_rate_pattern)] * rate_scale
        files.append(
            FileSpec(
                file_id=f"file-{index}",
                n=n,
                k=k,
                placement=[int(node) for node in placement],
                arrival_rate=float(rate),
                chunk_size=DEFAULT_CHUNK_SIZE_MB,
                size_bytes=DEFAULT_CHUNK_SIZE_MB * k * 1024 * 1024,
            )
        )
    return StorageSystemModel(
        services=services, files=files, cache_capacity=cache_capacity
    )


def ten_file_model(
    cache_capacity: int = 10,
    arrival_rates: Optional[Sequence[float]] = None,
    placement_mode: str = "random",
    seed: int = 2016,
    rate_scale: float = 1.0,
) -> StorageSystemModel:
    """Build the 10-file model used by the Fig. 5 / Fig. 6 experiments.

    Parameters
    ----------
    placement_mode:
        ``"random"`` -- random (7,4) placement on the 12 servers (Fig. 5), or
        ``"split"`` -- the Fig. 6 layout where the first three files live on
        servers 0-6 and the remaining seven on servers 5-11 (so servers 5
        and 6 host chunks of every file).
    """
    n, k = DEFAULT_CODE
    num_nodes = 12
    if arrival_rates is None:
        arrival_rates = [
            DEFAULT_ARRIVAL_RATE_PATTERN[index % len(DEFAULT_ARRIVAL_RATE_PATTERN)]
            for index in range(10)
        ]
    if len(arrival_rates) != 10:
        raise ModelError(f"expected 10 arrival rates, got {len(arrival_rates)}")
    rng = np.random.default_rng(seed)
    services = [ExponentialService(rate) for rate in DEFAULT_SERVICE_RATES[:num_nodes]]
    files = []
    for index in range(10):
        if placement_mode == "random":
            placement = [int(x) for x in rng.choice(num_nodes, size=n, replace=False)]
        elif placement_mode == "split":
            if index < 3:
                placement = list(range(0, 7))
            else:
                placement = list(range(5, 12))
        else:
            raise ModelError(f"unknown placement_mode {placement_mode!r}")
        files.append(
            FileSpec(
                file_id=f"file-{index}",
                n=n,
                k=k,
                placement=placement,
                arrival_rate=float(arrival_rates[index]) * rate_scale,
                chunk_size=DEFAULT_CHUNK_SIZE_MB,
                size_bytes=DEFAULT_CHUNK_SIZE_MB * k * 1024 * 1024,
            )
        )
    return StorageSystemModel(
        services=services, files=files, cache_capacity=cache_capacity
    )


@dataclass
class TimeBin:
    """One stationary period with its own per-file arrival rates."""

    index: int
    duration: float
    arrival_rates: Dict[str, float]

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ModelError(f"time bin {self.index}: duration must be positive")
        for file_id, rate in self.arrival_rates.items():
            if rate < 0:
                raise ModelError(
                    f"time bin {self.index}: negative arrival rate for {file_id!r}"
                )


def table_i_time_bins(duration: float = 100.0) -> List[TimeBin]:
    """The three time bins of Table I as :class:`TimeBin` objects."""
    return [
        TimeBin(index=index + 1, duration=duration, arrival_rates=dict(rates))
        for index, rates in enumerate(TABLE_I_ARRIVAL_RATES)
    ]


def table_iii_arrival_rates(
    object_size_mb: int,
    num_objects: int,
    rate_scale: float = 1.0,
) -> Dict[str, float]:
    """Per-object arrival rates for a Table-III object size.

    Each of the ``num_objects`` active objects of the given size receives
    the table's average per-object rate (scaled by ``rate_scale``); the
    paper's prototype uses 1000 active objects per size.
    """
    if object_size_mb not in TABLE_III_WORKLOAD:
        raise WorkloadError(
            f"object size {object_size_mb} MB not in Table III; "
            f"known sizes: {sorted(TABLE_III_WORKLOAD)}"
        )
    if num_objects <= 0:
        raise WorkloadError("num_objects must be positive")
    rate = TABLE_III_WORKLOAD[object_size_mb] * rate_scale
    return {f"obj-{object_size_mb}mb-{index}": rate for index in range(num_objects)}


def aggregate_rate_to_per_object(
    aggregate_rate: float, num_objects: int
) -> Dict[str, float]:
    """Split an aggregate arrival rate evenly over ``num_objects`` objects.

    Fig. 11 sweeps aggregate read rates of 0.5-8.0 requests/s over 1000
    64-MB objects; this helper produces the per-object rates for that sweep.
    """
    if aggregate_rate < 0:
        raise WorkloadError("aggregate rate must be non-negative")
    if num_objects <= 0:
        raise WorkloadError("num_objects must be positive")
    per_object = aggregate_rate / num_objects
    return {f"obj-{index}": per_object for index in range(num_objects)}
