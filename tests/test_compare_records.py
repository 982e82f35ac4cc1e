"""Tests for ``benchmarks/compare.py promote``: which fresh records it copies."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location(
        "bench_compare", REPO_ROOT / "benchmarks" / "compare.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules while executing.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _looks_like_timing(field: str) -> bool:
    if field.startswith("required_"):
        return False  # a gate threshold, fixed by the benchmark
    return (
        field.endswith("_seconds")
        or field.endswith("_per_second")
        or "speedup" in field
        or "throughput" in field
        or "cpus" in field
    )


def test_every_committed_timing_field_is_listed(compare):
    for path in REPO_ROOT.glob("BENCH_*.json"):
        payload = json.loads(path.read_text())
        unlisted = [
            field
            for field in payload
            if _looks_like_timing(field) and field not in compare.TIMING_FIELDS
        ]
        assert not unlisted, f"{path.name}: timing fields {unlisted} not in TIMING_FIELDS"


def _promote(compare, monkeypatch, tmp_path, committed, fresh):
    root = tmp_path / "root"
    fresh_dir = tmp_path / "fresh"
    root.mkdir()
    fresh_dir.mkdir()
    (root / "BENCH_demo.json").write_text(json.dumps(committed))
    (fresh_dir / "BENCH_demo.json").write_text(json.dumps(fresh))
    monkeypatch.setattr(compare, "REPO_ROOT", root)
    assert compare.promote(fresh_dir) == 0
    return json.loads((root / "BENCH_demo.json").read_text())


COMMITTED = {
    "name": "demo",
    "scale": "fast",
    "wall_seconds": 1.0,
    "speedup": 3.0,
    "objective": 22.341,
    "outer_iterations": 5,
}


def test_timing_drift_is_kept_out(compare, monkeypatch, tmp_path):
    fresh = dict(COMMITTED, wall_seconds=1.7, speedup=2.1)
    assert _promote(compare, monkeypatch, tmp_path, COMMITTED, fresh) == COMMITTED


@pytest.mark.parametrize(
    "change", [{"objective": 22.124}, {"outer_iterations": 7}, {"first_two_final": 7}]
)
def test_output_change_is_promoted(compare, monkeypatch, tmp_path, change):
    fresh = dict(COMMITTED, wall_seconds=1.7, **change)
    assert _promote(compare, monkeypatch, tmp_path, COMMITTED, fresh) == fresh
    assert compare.changed_outputs(fresh, COMMITTED) == sorted(change)
