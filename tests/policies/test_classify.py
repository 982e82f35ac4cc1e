"""Property tests of the bulk classifiers against the per-request loop.

``ChunkCachingPolicy.classify`` on the base class is one ``observe`` per
request; ``LRUPolicy`` and ``StaticFunctionalPolicy`` override it with a
single pass each.  Every override must return the same per-request hit
flags and cached chunk counts, the same promotion and evicted-chunk totals,
and leave the policy in the same state (occupancy, LRU order, stats) as
that loop.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies import ChunkCachingPolicy, LRUPolicy, StaticFunctionalPolicy


def zipf_trace(num_files: int, length: int, alpha: float, seed: int):
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, num_files + 1) ** alpha
    positions = rng.choice(num_files, size=length, p=weights / weights.sum())
    return [f"f{position}" for position in positions.tolist()]


@st.composite
def workloads(draw):
    num_files = draw(st.integers(min_value=1, max_value=25))
    footprints = draw(
        st.lists(
            st.integers(min_value=1, max_value=6),
            min_size=num_files,
            max_size=num_files,
        )
    )
    trace = zipf_trace(
        num_files,
        draw(st.integers(min_value=0, max_value=400)),
        draw(st.floats(min_value=0.5, max_value=2.5)),
        draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )
    return {f"f{index}": chunks for index, chunks in enumerate(footprints)}, trace


def assert_same_classification(make, trace, warm):
    reference = make()
    bulk = make()
    if warm:
        reference.warm(reference.known_files)
        bulk.warm(bulk.known_files)
    expected = ChunkCachingPolicy.classify(reference, trace)
    assert type(bulk).classify is not ChunkCachingPolicy.classify
    got = bulk.classify(trace)
    assert got[0].dtype == expected[0].dtype == bool
    assert got[1].dtype == expected[1].dtype == np.int64
    np.testing.assert_array_equal(got[0], expected[0])
    np.testing.assert_array_equal(got[1], expected[1])
    assert got[2:] == expected[2:]
    assert list(bulk.occupancy().items()) == list(reference.occupancy().items())
    assert bulk.used_chunks == reference.used_chunks
    assert vars(bulk.stats) == vars(reference.stats)
    return expected


class TestLRUClassify:
    @given(
        workload=workloads(),
        fraction=st.floats(min_value=0.0, max_value=1.25),
        replication=st.integers(min_value=1, max_value=3),
        oversized=st.booleans(),
        warm=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_request_observe(
        self, workload, fraction, replication, oversized, warm
    ):
        files, trace = workload
        working_set = sum(files.values()) * replication
        capacity = int(fraction * working_set)
        if oversized:
            # Larger than the whole cache: every access misses unpromoted.
            files = {**files, "f0": capacity // replication + 1}

        def make():
            return LRUPolicy(capacity, files, replication=replication)

        hit_mask, cached, _, _ = assert_same_classification(make, trace, warm)
        if oversized:
            assert not hit_mask[np.asarray(trace) == "f0"].any()
        np.testing.assert_array_equal(cached > 0, hit_mask)

    def test_classify_continues_from_current_state(self):
        files = {"a": 2, "b": 3, "c": 1}
        sequential = LRUPolicy(5, files)
        split = LRUPolicy(5, files)
        trace = list("abcabccbaacb")
        ChunkCachingPolicy.classify(sequential, trace)
        split.classify(trace[:5])
        split.classify(trace[5:])
        assert list(split.occupancy().items()) == list(sequential.occupancy().items())
        assert vars(split.stats) == vars(sequential.stats)


class TestStaticFunctionalClassify:
    @given(
        workload=workloads(),
        fraction=st.floats(min_value=0.0, max_value=1.25),
        explicit=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        warm=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_request_observe(self, workload, fraction, explicit, seed, warm):
        files, trace = workload
        capacity = int(fraction * sum(files.values()))
        allocation = None
        if explicit:
            # A random allocation d_i <= k_i that fits the capacity.
            rng = np.random.default_rng(seed)
            allocation, remaining = {}, capacity
            for file_id, chunks in files.items():
                allocation[file_id] = int(rng.integers(0, min(chunks, remaining) + 1))
                remaining -= allocation[file_id]

        def make():
            return StaticFunctionalPolicy(capacity, files, allocation=allocation)

        _, _, promotions, evicted = assert_same_classification(make, trace, warm)
        assert promotions == 0 and evicted == 0
