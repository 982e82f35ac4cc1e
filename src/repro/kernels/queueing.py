"""The canonical vectorised queueing kernels.

One module owns the closed-form queueing primitives that the batch
simulation engine and the trace-replay engines share:

* :func:`lindley_departures` -- single-server FIFO departures via the
  Lindley recursion ``D_c = max(A_c, D_{c-1}) + S_c``, unrolled into two
  vector scans: ``D = cumsum(S) + runningmax(A - (cumsum(S) - S))``.
* :func:`fifo_departures_grouped` -- many independent single-server FIFO
  queues (e.g. the per-OSD HDD queues), one Lindley scan per group over
  its time-sorted arrivals.
* :func:`multi_server_departures` -- one FIFO queue with ``c`` identical
  servers and a *constant* service time (the SSD cache-device bank).
  With constant service, jobs depart in arrival order and the ``i``-th
  job starts when the ``(i-c)``-th departs, so the queue splits into
  ``c`` interleaved single-server Lindley lanes.
* :func:`segment_max` / :func:`segment_sum` -- segmented ``reduceat``
  reductions over contiguous segments (fork-join maxima over each
  request's chunk departures, per-file pair sums in the solver).
* :func:`fork_join_max` -- the dense equal-width fork-join reduction used
  when every request in a group reads the same number of chunks.
* :func:`systematic_sample_positions` -- the pure-array core of batched
  systematic inclusion sampling (randomness is pre-drawn by the caller,
  so the kernel itself is deterministic).
* :func:`last_access_fold` -- the segment fold collapsing a run of
  accesses into per-object (count, last-access) summaries.

Each kernel is the NumPy ufunc implementation (``np.maximum.accumulate``,
``np.add.reduceat``, ``np.lexsort``) that the engines carried inline
before this module existed, operation for operation, so seeded engine
outputs are bit-equal to that code.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import SimulationError

__all__ = [
    "lindley_departures",
    "fifo_departures_grouped",
    "multi_server_departures",
    "segment_max",
    "segment_sum",
    "fork_join_max",
    "systematic_sample_positions",
    "last_access_fold",
]


def _lindley_numpy(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """The Lindley scan: the pre-kernel inline implementation, verbatim."""
    cumulative = np.cumsum(services)
    idle_offsets = np.maximum.accumulate(arrivals - (cumulative - services))
    return cumulative + idle_offsets


# ----------------------------------------------------------------------
# Lindley FIFO departures
# ----------------------------------------------------------------------


def lindley_departures(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Closed-form single-server FIFO departure times.

    ``arrivals`` must be sorted ascending; ``services`` holds the matching
    service draws (same shape).  Returns the departure time of every job,
    in order.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    services = np.asarray(services, dtype=float)
    if arrivals.shape != services.shape:
        raise SimulationError("arrivals and services must align")
    return _lindley_numpy(arrivals, services)


def fifo_departures_grouped(
    groups: np.ndarray,
    times: np.ndarray,
    services: np.ndarray,
    num_groups: int,
) -> np.ndarray:
    """Departure times of per-group single-server FIFO queues.

    Parameters
    ----------
    groups:
        Queue index of each entry (``0 <= groups < num_groups``).
    times:
        Arrival time of each entry (any order).
    services:
        Service time of each entry.
    num_groups:
        Number of queues.

    Entries of one queue are served in ``(time, input position)`` order;
    the returned departures are aligned with the input arrays.
    """
    groups = np.asarray(groups)
    times = np.asarray(times, dtype=float)
    services = np.asarray(services, dtype=float)
    if not (groups.shape == times.shape == services.shape):
        raise SimulationError("groups, times and services must align")
    order = np.lexsort((np.arange(times.size), times, groups))
    sorted_groups = groups[order]
    # Sorted by group first, so the ends hold the smallest and largest group.
    if groups.size and (sorted_groups[0] < 0 or sorted_groups[-1] >= num_groups):
        raise SimulationError(f"groups must lie in [0, {num_groups})")
    sorted_times = times[order]
    sorted_services = services[order]
    boundaries = np.searchsorted(sorted_groups, np.arange(num_groups + 1))
    departures_sorted = np.empty_like(sorted_times)
    for group in range(num_groups):
        low, high = int(boundaries[group]), int(boundaries[group + 1])
        if low == high:
            continue
        departures_sorted[low:high] = _lindley_numpy(
            sorted_times[low:high], sorted_services[low:high]
        )
    departures = np.empty_like(departures_sorted)
    departures[order] = departures_sorted
    return departures


def multi_server_departures(
    times: np.ndarray,
    service: float,
    num_servers: int,
) -> np.ndarray:
    """Departures of a FIFO queue with ``c`` servers and constant service.

    ``times`` must be sorted ascending.  Jobs are dispatched to the
    earliest-free server; with a constant service time this is equivalent
    to ``c`` interleaved single-server Lindley lanes, so the whole queue
    costs two vector scans per lane.
    """
    if num_servers < 1:
        raise SimulationError("num_servers must be at least 1")
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        return np.empty(0, dtype=float)
    departures = np.empty_like(times)
    for lane in range(num_servers):
        lane_times = times[lane::num_servers]
        lane_services = np.full(lane_times.size, float(service))
        departures[lane::num_servers] = _lindley_numpy(lane_times, lane_services)
    return departures


# ----------------------------------------------------------------------
# Segmented reductions (fork-join maxima, per-file sums)
# ----------------------------------------------------------------------


def segment_max(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-segment maxima over contiguous segments of ``values``.

    ``starts`` holds the strictly-increasing start offset of every segment
    (``starts[0] == 0``); segment ``i`` spans ``values[starts[i]:starts[i+1]]``
    and the last segment runs to the end.  Every segment must be non-empty.
    This is the fork-join reduction of the replay engines: one maximum per
    request over its chunk departures.
    """
    return np.maximum.reduceat(np.asarray(values), np.asarray(starts, dtype=np.int64))


def segment_sum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-segment sums over contiguous segments (see :func:`segment_max`)."""
    return np.add.reduceat(np.asarray(values), np.asarray(starts, dtype=np.int64))


def fork_join_max(values: np.ndarray, num_segments: int, width: int) -> np.ndarray:
    """Equal-width fork-join maxima: ``values`` reshaped ``(n, w)``, max per row.

    Used when every request in a group reads the same number of chunks
    (the batch engine's per-group layout), where the dense reshape beats
    the ragged :func:`segment_max`.
    """
    return np.asarray(values).reshape(num_segments, width).max(axis=1)


# ----------------------------------------------------------------------
# Batched systematic sampling
# ----------------------------------------------------------------------


def systematic_sample_positions(
    probabilities: np.ndarray,
    order_uniforms: np.ndarray,
    grid_uniforms: np.ndarray,
    size: int,
) -> np.ndarray:
    """Pure-array core of batched systematic inclusion sampling.

    Parameters
    ----------
    probabilities:
        ``(num_draws, num_keys)`` inclusion probabilities, each row summing
        (numerically) to ``size``.
    order_uniforms:
        ``(num_draws, num_keys)`` i.i.d. uniforms whose per-row argsort
        supplies the independent random key orderings.
    grid_uniforms:
        ``(num_draws, 1)`` uniform grid offsets.
    size:
        The common per-row set size.

    Returns the selected key positions, shape ``(num_draws, size)``, with
    distinct entries per row.  All randomness is pre-drawn by the caller
    (:func:`repro.scheduling.sampling.batch_systematic_inclusion_sample`),
    so the kernel is deterministic.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    num_draws, num_keys = probabilities.shape
    order = np.argsort(order_uniforms, axis=1)
    shuffled = np.take_along_axis(probabilities, order, axis=1)
    cumulative = np.cumsum(shuffled, axis=1)
    # Rescale so each row's total is exactly `size` despite rounding.
    cumulative *= size / cumulative[:, -1:]
    grid = grid_uniforms + np.arange(size, dtype=float)
    # Flatten the per-row searchsorted: row r's values live in
    # (r*(size+1), r*(size+1)+size], its grid in [r*(size+1), ...+size).
    row_base = (np.arange(num_draws, dtype=float) * (size + 1))[:, None]
    flat_cumulative = (cumulative + row_base).ravel()
    flat_grid = (grid + row_base).ravel()
    flat_positions = np.searchsorted(flat_cumulative, flat_grid, side="right")
    positions = flat_positions.reshape(num_draws, size) - (
        np.arange(num_draws)[:, None] * num_keys
    )
    np.clip(positions, 0, num_keys - 1, out=positions)
    return np.take_along_axis(order, positions, axis=1)


# ----------------------------------------------------------------------
# Epoch-segment folds
# ----------------------------------------------------------------------


def last_access_fold(positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse a run of accesses into its per-object summary.

    Returns ``(unique_positions, counts, last_offsets)`` where
    ``unique_positions`` are the distinct object positions of the run
    ordered by *last* access (earliest last-access first), ``counts`` are
    the per-object access multiplicities and ``last_offsets`` the offset of
    each object's final access within the run.  The online controller's
    rate estimator (:mod:`repro.control.estimator`) folds each chunk of a
    request stream with it.
    """
    positions = np.asarray(positions)
    unique, rev_first, counts = np.unique(
        positions[::-1], return_index=True, return_counts=True
    )
    last_offsets = positions.size - 1 - rev_first
    order = np.argsort(last_offsets)
    return unique[order], counts[order], last_offsets[order]
