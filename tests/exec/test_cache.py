"""Unit tests for the content-addressed result cache (``repro.exec.cache``)."""

from __future__ import annotations

from pathlib import Path

import repro
from repro.api.scenario import Scenario
from repro.api.serialize import json_dumps
from repro.api.session import CachedRunResult, Session
from repro.exec import (
    CACHE_DIR_ENV_VAR,
    ResultCache,
    default_cache_dir,
    resolve_cache,
)
from repro.exec.cache import experiment_point_key, scenario_key


def test_key_is_order_insensitive_and_deterministic(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.key_for({"a": 1, "b": 2}) == cache.key_for({"b": 2, "a": 1})
    assert cache.key_for({"a": 1}) != cache.key_for({"a": 2})
    assert len(cache.key_for("x")) == 64  # sha256 hex


def test_roundtrip_stats_len_and_clear(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache.key_for({"point": 1})
    assert cache.get(key) is None
    assert cache.stats.misses == 1

    path = cache.put(key, {"value": 42})
    assert path.exists()
    assert path.parent.name == key[:2]
    assert cache.get(key) == {"value": 42}
    assert cache.stats.as_dict() == {"hits": 1, "misses": 1, "stores": 1}
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0


def test_corrupt_entry_is_a_miss_and_removed(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache.key_for("corrupt")
    cache.put(key, [1, 2, 3])
    cache.path_for(key).write_text("{truncated")
    assert cache.get(key) is None
    assert not cache.path_for(key).exists()


def test_resolve_cache_variants(tmp_path, monkeypatch):
    assert resolve_cache(None) is None
    assert resolve_cache(False) is None
    prebuilt = ResultCache(tmp_path)
    assert resolve_cache(prebuilt) is prebuilt
    assert resolve_cache(str(tmp_path / "sub")).directory == tmp_path / "sub"
    monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "env"))
    assert resolve_cache(True).directory == tmp_path / "env"


def test_default_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "custom"))
    assert default_cache_dir() == tmp_path / "custom"
    monkeypatch.delenv(CACHE_DIR_ENV_VAR)
    assert default_cache_dir() == Path.home() / ".cache" / "repro"


def test_scenario_key_invalidates_on_version_bump(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    scenario = Scenario(num_files=10, cache_capacity=5)
    key = scenario_key(cache, scenario)
    assert key == scenario_key(cache, scenario)
    assert key != scenario_key(cache, Scenario(num_files=10, cache_capacity=6))
    monkeypatch.setattr(repro, "__version__", "0.0.0-test")
    assert key != scenario_key(cache, scenario)


def test_experiment_point_key_invalidation(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    params = {"seed": 2016, "num_objects": 100}
    key = experiment_point_key(cache, "fig11", 0.5, params)
    assert key == experiment_point_key(cache, "fig11", 0.5, params)
    # Anything that shapes the result must change the key ...
    assert key != experiment_point_key(cache, "fig11", 1.0, params)
    assert key != experiment_point_key(cache, "fig10", 0.5, params)
    assert key != experiment_point_key(cache, "fig11", 0.5, {**params, "seed": 1})
    # ... including the package version.
    monkeypatch.setattr(repro, "__version__", "0.0.0-test")
    assert experiment_point_key(cache, "fig11", 0.5, params) != key


def test_session_serves_bit_equal_cached_results(tmp_path):
    scenario = Scenario(num_files=20, cache_capacity=10, seed=7)
    session = Session(cache=ResultCache(tmp_path))

    fresh = session.run(scenario)
    cached = session.run(scenario)
    assert isinstance(cached, CachedRunResult)
    assert cached.from_cache
    assert json_dumps(cached.to_dict()) == json_dumps(fresh.to_dict())
    assert session.cache.stats.hits == 1
    assert session.cache.stats.stores == 1

    # A different scenario must miss.
    other = session.run(Scenario(num_files=20, cache_capacity=10, seed=8))
    assert not isinstance(other, CachedRunResult)
