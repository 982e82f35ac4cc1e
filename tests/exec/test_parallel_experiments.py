"""End-to-end determinism and caching of the ported experiment sweeps.

The ISSUE-10 guarantee: ``jobs=1`` and ``jobs=4`` produce *bit-identical*
experiment results (counters exact, latencies identical), and a warm
result cache serves repeated sweeps without recomputation while version
bumps invalidate it.
"""

from __future__ import annotations

import pytest

import repro
from repro.api import get_experiment
from repro.api.serialize import json_dumps, to_jsonable
from repro.exec import ResultCache

#: Reduced fig11 sweep for the cache-behaviour tests (fractions of a second).
TINY_FIG11 = dict(
    aggregate_rates=(0.5, 1.0),
    num_objects=50,
    duration_s=60.0,
)


def fingerprint(result) -> str:
    return json_dumps(to_jsonable(result))


@pytest.mark.parametrize("name", ["fig11", "fig12"])
def test_fast_sweeps_bit_equal_across_jobs(name):
    spec = get_experiment(name)
    serial = spec.run(scale="fast", jobs=1)
    parallel = spec.run(scale="fast", jobs=4)
    assert fingerprint(parallel) == fingerprint(serial)


def test_fig11_cache_hit_serves_identical_result(tmp_path):
    cache = ResultCache(tmp_path)
    fresh = get_experiment("fig11").run(scale="fast", cache=cache, **TINY_FIG11)
    assert cache.stats.misses == 2 and cache.stats.stores == 2

    cached = get_experiment("fig11").run(scale="fast", cache=cache, **TINY_FIG11)
    assert cache.stats.hits == 2
    assert cache.stats.stores == 2  # nothing recomputed, nothing re-stored
    assert fingerprint(cached) == fingerprint(fresh)


def test_fig11_cache_misses_on_parameter_change(tmp_path):
    cache = ResultCache(tmp_path)
    get_experiment("fig11").run(scale="fast", cache=cache, **TINY_FIG11)
    get_experiment("fig11").run(scale="fast", cache=cache, **{**TINY_FIG11, "seed": 1})
    assert cache.stats.hits == 0
    assert cache.stats.misses == 4


def test_fig11_cache_invalidates_on_version_bump(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    get_experiment("fig11").run(scale="fast", cache=cache, **TINY_FIG11)
    monkeypatch.setattr(repro, "__version__", "0.0.0-test")
    get_experiment("fig11").run(scale="fast", cache=cache, **TINY_FIG11)
    assert cache.stats.hits == 0
    assert cache.stats.misses == 4
