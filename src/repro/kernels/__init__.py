"""Shared vectorised queueing kernels.

This package is the single home of the NumPy queueing primitives the
simulation and replay engines previously each carried inline
(:mod:`repro.kernels.queueing`): Lindley FIFO departure scans, grouped
per-OSD queues, interleaved constant-service SSD lanes, segmented
fork-join reductions, batched systematic sampling and epoch-segment
folds::

    from repro.kernels import lindley_departures

    departures = lindley_departures(arrivals, services)
"""

from repro.kernels.queueing import (
    fifo_departures_grouped,
    fork_join_max,
    last_access_fold,
    lindley_departures,
    multi_server_departures,
    segment_max,
    segment_sum,
    systematic_sample_positions,
)

__all__ = [
    "fifo_departures_grouped",
    "fork_join_max",
    "last_access_fold",
    "lindley_departures",
    "multi_server_departures",
    "segment_max",
    "segment_sum",
    "systematic_sample_positions",
]
