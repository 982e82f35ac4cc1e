#!/usr/bin/env python
"""Video-on-demand proxy caching (the motivating scenario of the paper's intro).

A video library follows the classic 80/20 popularity rule: roughly 20% of the
titles receive about 80% of the requests.  The library is stored with a (7,4)
erasure code across 12 storage servers; a proxy close to the video clients
holds a small functional cache.  The example:

1. registers a custom Zipf-popularity workload with the ``repro.api``
   workload registry (the same extension point any new workload uses),
2. runs one :class:`~repro.api.Scenario` per caching policy -- no cache,
   whole-file caching, exact chunk caching and Sprout's optimized
   functional caching -- through a shared :class:`~repro.api.Session`,
3. compares the policies analytically and by simulation,
4. verifies end-to-end, with the real Reed-Solomon codec, that a cached
   title can be reconstructed from its functional chunks plus any k-d
   storage chunks.

Run with::

    python examples/video_cdn_cache.py
"""

from __future__ import annotations

import numpy as np

from repro.api import Scenario, Session, register_workload
from repro.core.model import FileSpec, StorageSystemModel
from repro.erasure.functional import FunctionalCacheCoder
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.queueing.distributions import ExponentialService
from repro.workloads.catalog import DEFAULT_SERVICE_RATES


@register_workload("zipf_video", description="Zipf-popular video library on 12 servers")
def build_video_library(scenario: Scenario) -> StorageSystemModel:
    """Build a Zipf-popular video library stored with the scenario's code."""
    params = dict(scenario.workload_params)
    zipf_exponent = params.get("zipf_exponent", 1.1)
    total_request_rate = params.get("total_request_rate", 0.09)
    n, k = scenario.code
    num_servers = 12
    rng = np.random.default_rng(scenario.seed)
    weights = 1.0 / np.arange(1, scenario.num_files + 1) ** zipf_exponent
    weights /= weights.sum()
    services = [ExponentialService(rate) for rate in DEFAULT_SERVICE_RATES]
    files = []
    for index in range(scenario.num_files):
        placement = [int(x) for x in rng.choice(num_servers, size=n, replace=False)]
        files.append(
            FileSpec(
                file_id=f"title-{index:03d}",
                n=n,
                k=k,
                placement=placement,
                arrival_rate=float(
                    total_request_rate * weights[index] * scenario.rate_scale
                ),
                chunk_size=25,
            )
        )
    return StorageSystemModel(
        services=services, files=files, cache_capacity=scenario.cache_capacity
    )


def verify_functional_reconstruction() -> None:
    """Decode a title from cached functional chunks plus storage chunks."""
    code = ReedSolomonCode(n=7, k=4)
    coder = FunctionalCacheCoder(code, file_id="title-000")
    payload = bytes(np.random.default_rng(0).integers(0, 256, size=4 * 1024, dtype=np.uint8))
    storage_chunks = coder.storage_chunks(payload)
    cached = coder.build_cache_chunks(payload, d=2)
    # Any 2 of the 7 storage chunks complete the read (k - d = 2).
    recovered = coder.reconstruct(cached, storage_chunks[5:7])
    assert recovered == payload, "functional reconstruction failed"
    print(
        "codec check: title reconstructed from 2 cached functional chunks "
        "+ 2 arbitrary storage chunks (out of 7)"
    )


def main() -> None:
    verify_functional_reconstruction()

    base = Scenario(
        workload="zipf_video",
        num_files=80,
        cache_capacity=60,
        seed=42,
        horizon=300_000.0,
    )
    session = Session()
    library = session.build_model(base)
    top_20pct = int(0.2 * library.num_files)
    top_rate = sum(spec.arrival_rate for spec in library.files[:top_20pct])
    print(
        f"\nvideo library: {library.num_files} titles, "
        f"top 20% of titles carry {top_rate / library.total_arrival_rate:.0%} of requests"
    )
    print(
        f"proxy cache: {library.cache_capacity} chunks "
        f"({library.cache_capacity / (4 * library.num_files):.0%} of all data chunks)"
    )

    policies = {
        "no cache": base.replace(policy="no_cache"),
        "whole-file (most popular)": base.replace(policy="whole_file"),
        "exact chunks (most popular)": base.replace(policy="exact"),
        "Sprout functional caching": base,  # policy="optimal"
    }

    print(f"\n{'policy':>28} {'analytical bound':>17} {'simulated mean':>15}")
    results = {}
    for name, scenario in policies.items():
        result = session.run(scenario)
        results[name] = result
        print(
            f"{name:>28} {result.objective:>16.2f}s "
            f"{result.simulated_mean_latency:>14.2f}s"
        )

    sprout = results["Sprout functional caching"].placement
    hot_titles = sorted(
        sprout.files, key=lambda entry: entry.arrival_rate, reverse=True
    )[:5]
    print("\ncache allocation of the five hottest titles (Sprout):")
    for entry in hot_titles:
        print(
            f"  {entry.file_id}: {entry.cached_chunks} of {entry.k} chunks cached, "
            f"equivalent code {entry.equivalent_code}"
        )


if __name__ == "__main__":
    main()
