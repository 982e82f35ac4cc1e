"""Shared fixtures for the Sprout reproduction test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import FileSpec, StorageSystemModel
from repro.queueing.distributions import ExponentialService
from repro.workloads.catalog import DEFAULT_SERVICE_RATES


@pytest.fixture
def rng():
    """A deterministic numpy random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_model():
    """A 6-file, 6-node model that is quick to optimize and simulate."""
    services = [ExponentialService(rate) for rate in (0.5, 0.5, 0.4, 0.4, 0.3, 0.3)]
    files = []
    placements = [
        (0, 1, 2, 3, 4),
        (1, 2, 3, 4, 5),
        (0, 2, 3, 4, 5),
        (0, 1, 3, 4, 5),
        (0, 1, 2, 4, 5),
        (0, 1, 2, 3, 5),
    ]
    rates = [0.08, 0.06, 0.05, 0.04, 0.03, 0.02]
    for index, (placement, rate) in enumerate(zip(placements, rates)):
        files.append(
            FileSpec(
                file_id=f"file-{index}",
                n=5,
                k=3,
                placement=placement,
                arrival_rate=rate,
                chunk_size=4,
            )
        )
    return StorageSystemModel(services=services, files=files, cache_capacity=5)


@pytest.fixture
def paper_like_model():
    """A reduced version of the paper's default model (12 nodes, 40 files)."""
    rng = np.random.default_rng(99)
    services = [ExponentialService(rate) for rate in DEFAULT_SERVICE_RATES]
    pattern = [0.000156, 0.000156, 0.000125, 0.000167, 0.000104]
    files = []
    for index in range(40):
        placement = [int(x) for x in rng.choice(12, size=7, replace=False)]
        files.append(
            FileSpec(
                file_id=f"file-{index}",
                n=7,
                k=4,
                placement=placement,
                arrival_rate=pattern[index % 5] * 25.0,
                chunk_size=25,
            )
        )
    return StorageSystemModel(services=services, files=files, cache_capacity=20)
