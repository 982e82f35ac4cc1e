"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper in a reduced,
shape-preserving configuration (so the whole suite runs in minutes on a
laptop) and prints the regenerated rows/series next to the timing numbers.
Set the environment variable ``SPROUT_BENCH_SCALE=paper`` to run the
full-size configurations instead.

Besides the human-readable report, every benchmark dumps a machine-readable
``BENCH_<name>.json`` under ``benchmarks/out/`` (wall time plus benchmark-
specific metrics such as requests/second or the converged objective).  The
copies at the repository root are the committed *gate records*; refresh
them deliberately with ``python benchmarks/compare.py promote``, which
copies a fresh file over the committed one only when a gate verdict or a
non-timing field (objective, counts, latencies) moved -- raw timing noise
never lands in the diff.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

import pytest

from repro.api.serialize import write_json

#: Repository root, where the committed ``BENCH_<name>.json`` gate records live.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Where fresh benchmark runs write their JSON (gitignored).
OUT_DIR = Path(__file__).resolve().parent / "out"


def bench_scale() -> str:
    """Return the benchmark scale: ``"fast"`` (default) or ``"paper"``."""
    return os.environ.get("SPROUT_BENCH_SCALE", "fast")


@pytest.fixture(scope="session")
def scale() -> str:
    """Session-wide benchmark scale fixture."""
    return bench_scale()


def print_report(title: str, body: str) -> None:
    """Print a regenerated table/figure below the benchmark timings."""
    separator = "=" * 72
    print(f"\n{separator}\n{title}\n{separator}\n{body}\n")


def write_bench_json(name: str, payload: Dict[str, Any]) -> Path:
    """Write one benchmark's metrics to ``benchmarks/out/BENCH_<name>.json``.

    Serialization goes through :func:`repro.api.serialize.write_json`, the
    same uniform serializer behind ``RunResult.to_json`` and the CLI's
    ``--json`` mode, so numpy scalars/arrays in metric dicts are handled.
    ``benchmarks/compare.py`` checks the gate fields of these files and
    promotes them to the committed root records only when a gate verdict
    or a non-timing output moves.
    """
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return write_json(OUT_DIR / f"BENCH_{name}.json", payload)


def timed_run(
    benchmark,
    name: str,
    scale: str,
    fn: Callable[..., Any],
    *args: Any,
    metrics: Optional[Callable[[Any], Dict[str, Any]]] = None,
) -> Tuple[Any, float]:
    """Run ``fn`` under pytest-benchmark, dump its timing JSON, return result.

    ``metrics`` optionally maps the benchmark result to extra key/value
    pairs (objective, requests/second, ...) recorded in the JSON payload.
    """
    start = time.perf_counter()
    result = benchmark.pedantic(fn, args=args, iterations=1, rounds=1)
    wall_seconds = time.perf_counter() - start
    payload: Dict[str, Any] = {
        "name": name,
        "scale": scale,
        "wall_seconds": wall_seconds,
    }
    if metrics is not None:
        payload.update(metrics(result))
    write_bench_json(name, payload)
    return result, wall_seconds
