"""Property-based equivalence: kernels vs the legacy inline implementations.

Every kernel in :mod:`repro.kernels.queueing` replaced a private inline
implementation in the engines.  The acceptance bar of the refactor is
*bit-equality*: this module re-states each legacy implementation verbatim
(ufunc ``accumulate``/``reduceat`` scans, ``lexsort``, fancy-index
scatters) and asserts, under hypothesis-generated and seeded workloads,
that the kernel output is ``np.array_equal`` to it -- no tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    fifo_departures_grouped,
    fork_join_max,
    last_access_fold,
    lindley_departures,
    multi_server_departures,
    segment_max,
    segment_sum,
    systematic_sample_positions,
)
from repro.exceptions import SimulationError


# ----------------------------------------------------------------------
# Legacy inline implementations (the pre-kernel code, kept verbatim here
# as the reference the kernels must reproduce bit for bit).
# ----------------------------------------------------------------------


def legacy_lindley(arrivals, services):
    cumulative = np.cumsum(services)
    idle_offsets = np.maximum.accumulate(arrivals - (cumulative - services))
    return cumulative + idle_offsets


def legacy_fifo_grouped(groups, times, services, num_groups):
    order = np.lexsort((np.arange(times.size), times, groups))
    sorted_groups = groups[order]
    sorted_times = times[order]
    sorted_services = services[order]
    boundaries = np.searchsorted(sorted_groups, np.arange(num_groups + 1))
    departures_sorted = np.empty_like(sorted_times)
    for group in range(num_groups):
        low, high = int(boundaries[group]), int(boundaries[group + 1])
        if low == high:
            continue
        departures_sorted[low:high] = legacy_lindley(
            sorted_times[low:high], sorted_services[low:high]
        )
    departures = np.empty_like(departures_sorted)
    departures[order] = departures_sorted
    return departures


def legacy_multi_server(times, service, num_servers):
    departures = np.empty_like(times)
    for lane in range(num_servers):
        lane_times = times[lane::num_servers]
        lane_services = np.full(lane_times.size, float(service))
        departures[lane::num_servers] = legacy_lindley(lane_times, lane_services)
    return departures


def legacy_last_access_fold(positions):
    unique, rev_first, counts = np.unique(
        positions[::-1], return_index=True, return_counts=True
    )
    last_offsets = positions.size - 1 - rev_first
    order = np.argsort(last_offsets)
    return unique[order], counts[order], last_offsets[order]


def legacy_systematic_positions(probs, order_uniforms, grid_uniforms, size):
    num_draws, num_keys = probs.shape
    order = order_uniforms.argsort(axis=1)
    shuffled = np.take_along_axis(probs, order, axis=1)
    cumulative = np.cumsum(shuffled, axis=1)
    cumulative *= size / cumulative[:, -1:]
    grid = grid_uniforms + np.arange(size, dtype=float)
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
# Strategies
# ----------------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def queue_inputs(seed, size, spread=100.0):
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.random(size) * spread)
    services = rng.random(size) + 1e-3
    return arrivals, services


# ----------------------------------------------------------------------
# Bit-equality properties
# ----------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(seed=seeds, size=st.integers(min_value=1, max_value=400))
def test_lindley_bit_equal(seed, size):
    arrivals, services = queue_inputs(seed, size)
    assert np.array_equal(
        lindley_departures(arrivals, services), legacy_lindley(arrivals, services)
    )


@settings(max_examples=50, deadline=None)
@given(
    seed=seeds,
    size=st.integers(min_value=1, max_value=500),
    num_groups=st.integers(min_value=1, max_value=17),
)
def test_fifo_grouped_bit_equal(seed, size, num_groups):
    rng = np.random.default_rng(seed)
    groups = rng.integers(0, num_groups, size)
    times = rng.random(size) * 50.0  # unsorted on purpose; includes ties
    services = rng.random(size) + 1e-3
    assert np.array_equal(
        fifo_departures_grouped(groups, times, services, num_groups),
        legacy_fifo_grouped(groups, times, services, num_groups),
    )


@settings(max_examples=50, deadline=None)
@given(
    seed=seeds,
    size=st.integers(min_value=1, max_value=400),
    num_servers=st.integers(min_value=1, max_value=6),
    service=st.floats(min_value=1e-3, max_value=10.0),
)
def test_multi_server_bit_equal(seed, size, num_servers, service):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.random(size) * 50.0)
    assert np.array_equal(
        multi_server_departures(times, service, num_servers),
        legacy_multi_server(times, service, num_servers),
    )


@settings(max_examples=50, deadline=None)
@given(seed=seeds, num_segments=st.integers(min_value=1, max_value=40))
def test_segment_reductions_bit_equal(seed, num_segments):
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 8, num_segments)
    values = rng.standard_normal(int(counts.sum()))
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    assert np.array_equal(segment_max(values, starts), np.maximum.reduceat(values, starts))
    assert np.array_equal(segment_sum(values, starts), np.add.reduceat(values, starts))


@settings(max_examples=50, deadline=None)
@given(
    seed=seeds,
    num_segments=st.integers(min_value=1, max_value=60),
    width=st.integers(min_value=1, max_value=9),
)
def test_fork_join_max_bit_equal(seed, num_segments, width):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(num_segments * width)
    assert np.array_equal(
        fork_join_max(values, num_segments, width),
        values.reshape(num_segments, width).max(axis=1),
    )


@settings(max_examples=50, deadline=None)
@given(
    seed=seeds,
    size=st.integers(min_value=1, max_value=500),
    num_objects=st.integers(min_value=1, max_value=60),
)
def test_last_access_fold_bit_equal(seed, size, num_objects):
    rng = np.random.default_rng(seed)
    positions = rng.integers(0, num_objects, size)
    for got, expected in zip(
        last_access_fold(positions), legacy_last_access_fold(positions)
    ):
        assert np.array_equal(got, expected)


@settings(max_examples=50, deadline=None)
@given(
    seed=seeds,
    num_draws=st.integers(min_value=1, max_value=60),
    num_keys=st.integers(min_value=2, max_value=12),
    size=st.integers(min_value=1, max_value=7),
)
def test_systematic_positions_bit_equal(seed, num_draws, num_keys, size):
    if size > num_keys:
        size = num_keys
    rng = np.random.default_rng(seed)
    # Random feasible inclusion probabilities: normalise a positive row to
    # sum to `size`, then clip-renormalise until every entry is <= 1.
    probs = rng.random((num_draws, num_keys)) + 1e-6
    probs *= size / probs.sum(axis=1, keepdims=True)
    for _ in range(64):
        over = probs > 1.0
        if not over.any():
            break
        excess = (probs - np.minimum(probs, 1.0)).sum(axis=1, keepdims=True)
        headroom = np.where(over, 0.0, 1.0 - probs)
        scale = np.divide(
            excess,
            headroom.sum(axis=1, keepdims=True),
            out=np.zeros_like(excess),
            where=headroom.sum(axis=1, keepdims=True) > 0,
        )
        probs = np.minimum(probs, 1.0) + headroom * scale
    order_uniforms = rng.random((num_draws, num_keys))
    grid_uniforms = rng.random((num_draws, 1))
    got = systematic_sample_positions(probs, order_uniforms, grid_uniforms, size)
    expected = legacy_systematic_positions(probs, order_uniforms, grid_uniforms, size)
    assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
# Seeded engine-level bit-equality (the batch sampler shim)
# ----------------------------------------------------------------------


def test_batch_sampler_stream_unchanged():
    """The sampler's RNG stream order survived the kernel extraction."""
    from repro.scheduling.sampling import batch_systematic_inclusion_sample

    probs = np.full((200, 12), 3 / 12.0)
    selected = batch_systematic_inclusion_sample(probs, np.random.default_rng(2016))
    rng = np.random.default_rng(2016)
    expected = legacy_systematic_positions(
        probs, rng.random((200, 12)), rng.random((200, 1)), 3
    )
    assert np.array_equal(selected, expected)


# ----------------------------------------------------------------------
# Input checks: malformed inputs raise instead of corrupting the output
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "groups",
    [
        # Unchecked, entry 2's departure would be uninitialised memory.
        [0, 1, 5, 1],
        # Unchecked, the group -1 job arriving at 1.0 would depart at 0.0.
        [0, -1, 1, 0],
    ],
)
def test_grouped_rejects_groups_outside_range(groups):
    with pytest.raises(SimulationError, match="groups"):
        fifo_departures_grouped(
            np.array(groups), np.arange(4.0), np.ones(4), num_groups=2
        )


def test_lindley_rejects_misaligned_services():
    # Unchecked, the one service would be broadcast over three arrivals.
    with pytest.raises(SimulationError, match="align"):
        lindley_departures(np.array([0.0, 1.0, 2.0]), np.array([1.0]))
