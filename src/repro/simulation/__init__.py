"""Discrete-event simulation of the erasure-coded storage system with cache.

The simulator validates the analytical latency bound and regenerates the
simulation figures of the paper: it models FIFO storage-node queues with
arbitrary service-time distributions, a cache device, Poisson file request
arrivals, probabilistic chunk scheduling and fork-join completion.
"""

from repro.simulation.events import Event, EventQueue
from repro.simulation.node import CacheDevice, StorageNodeQueue
from repro.simulation.metrics import LatencyMetrics, SlotCounter
from repro.simulation.arrivals import (
    NonHomogeneousPoissonArrivals,
    PoissonArrivalProcess,
    generate_request_arrays,
    merge_arrival_streams,
)
from repro.simulation.batch import run_batch_simulation

# Re-exported from the shared kernel layer.
from repro.kernels import (
    fifo_departures_grouped,
    last_access_fold,
    multi_server_departures,
)
from repro.simulation.simulator import SimulationConfig, SimulationResult, StorageSimulator

__all__ = [
    "Event",
    "EventQueue",
    "StorageNodeQueue",
    "CacheDevice",
    "LatencyMetrics",
    "SlotCounter",
    "PoissonArrivalProcess",
    "NonHomogeneousPoissonArrivals",
    "merge_arrival_streams",
    "generate_request_arrays",
    "run_batch_simulation",
    "fifo_departures_grouped",
    "last_access_fold",
    "multi_server_departures",
    "StorageSimulator",
    "SimulationConfig",
    "SimulationResult",
]
