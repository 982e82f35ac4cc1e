#!/usr/bin/env python
"""Quickstart: the declarative ``repro.api`` facade in one file.

A :class:`repro.api.Scenario` describes the whole run -- workload, erasure
code, cache policy, solver, simulation engine, seed -- and
:func:`repro.api.run_scenario` executes the paper's pipeline end to end
(model -> Algorithm-1 optimization -> probabilistic scheduling ->
simulation), returning a typed :class:`~repro.api.RunResult`.

The script optimizes a functional cache for a 12-server, 60-file
erasure-coded store, compares it against the no-cache baseline (same
scenario, different ``policy``), and dumps the machine-readable result.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from pathlib import Path

from repro.api import Scenario, Session


def main() -> None:
    # 60 files, (7,4) erasure code, 12 heterogeneous servers, cache of 30
    # chunks.  Arrival rates are scaled up so the system is busy enough for
    # caching to matter on this small instance.
    scenario = Scenario(
        num_files=60,
        cache_capacity=30,
        code=(7, 4),
        seed=7,
        rate_scale=12.0,
        engine="batch",
        horizon=200_000.0,
    )
    print(scenario.describe())

    # A scenario is plain declarative state: it round-trips through the
    # dict serialization.
    assert Scenario.from_dict(scenario.to_dict()) == scenario

    # --- Optimize + simulate in one call.
    session = Session()
    optimized = session.run(scenario)
    print()
    print(optimized.summary())

    # --- Same scenario under the no-cache baseline policy.
    no_cache = session.run(scenario.replace(policy="no_cache"))

    print("\nsimulated mean file latency:")
    print(f"  without cache   : {no_cache.simulated_mean_latency:8.2f} s")
    print(f"  optimized cache : {optimized.simulated_mean_latency:8.2f} s")
    print(f"  analytical bound: {optimized.objective:8.2f} s (upper bound)")
    reduction = 1.0 - optimized.simulated_mean_latency / no_cache.simulated_mean_latency
    print(f"  latency reduction from functional caching: {reduction:.1%}")
    print(
        f"  chunks served from cache: {optimized.cache_chunk_fraction:.1%} "
        "of all chunk requests"
    )

    # --- Uniform machine-readable output (same serializer as the CLI's
    # --json mode and the BENCH_*.json writers).  Generated artifacts go
    # under out/, which is gitignored.
    out_dir = Path(__file__).resolve().parent.parent / "out"
    out_dir.mkdir(exist_ok=True)
    path = optimized.write_json(out_dir / "quickstart_run.json")
    print(f"\nfull result written to {path}")


if __name__ == "__main__":
    main()
