"""Content-addressed result cache for scenario runs and sweep points.

Identical ``(Scenario, seed)`` solves used to be recomputed from scratch
across figures, examples and CI jobs.  The :class:`ResultCache` stores any
JSON-safe result payload under a SHA-256 key derived from the canonical
JSON of the inputs that determine it -- the scenario (or sweep point)
description, the seed and the package version -- so a cache entry can
never be served to a run it does not bit-exactly describe: bumping the
package version changes the key and misses.

Layout: one JSON file per entry under ``<cache_dir>/<key[:2]>/<key>.json``
with ``~/.cache/repro`` as the default root (override with the
``REPRO_CACHE_DIR`` environment variable).  Writes are atomic
(temp file + ``os.replace``) so concurrent sweep workers never observe a
torn entry; corrupt entries are treated as misses and removed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.api.serialize import to_jsonable

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"


def package_version() -> str:
    """The installed ``repro`` version (a cache-key component)."""
    from repro import __version__

    return __version__


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV_VAR)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro"


def canonical_json(payload: Any) -> str:
    """Deterministic compact JSON for hashing (sorted keys, no whitespace)."""
    return json.dumps(
        to_jsonable(payload), sort_keys=True, separators=(",", ":")
    )


@dataclass
class CacheStats:
    """Hit/miss/store counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dictionary (for reports)."""
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}


@dataclass
class ResultCache:
    """Content-addressed JSON store with hit/miss accounting.

    Parameters
    ----------
    directory:
        Cache root; ``None`` selects :func:`default_cache_dir`.  The
        directory is created lazily on the first store.
    """

    directory: Path = field(default_factory=default_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.directory = Path(self.directory).expanduser()

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------

    def key_for(self, payload: Any) -> str:
        """SHA-256 hex digest of the canonical JSON of ``payload``."""
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    def path_for(self, key: str) -> Path:
        """The entry file of ``key`` (two-level fan-out keeps dirs small)."""
        return self.directory / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Entries
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """The stored payload of ``key``, or ``None`` on a miss.

        A corrupt entry (truncated write from an older crashed process,
        manual editing) counts as a miss and is removed.
        """
        path = self.path_for(key)
        try:
            text = path.read_text()
        except (FileNotFoundError, OSError):
            self.stats.misses += 1
            return None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return payload

    def put(self, key: str, payload: Any) -> Path:
        """Store ``payload`` under ``key`` atomically and return its path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(to_jsonable(payload), sort_keys=True)
        handle, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w") as stream:
                stream.write(text)
            os.replace(temp_name, path)
        except OSError:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return path

    def clear(self) -> int:
        """Remove every entry; return the number of files removed."""
        removed = 0
        if not self.directory.exists():
            return removed
        for entry in sorted(self.directory.glob("*/*.json")):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))


#: What ``cache=`` accepts throughout the package: off, default-on, a
#: directory, or a prebuilt cache instance.
CacheLike = Union[None, bool, str, Path, ResultCache]


def default_cache() -> ResultCache:
    """A cache rooted at the default directory."""
    return ResultCache()


def resolve_cache(cache: CacheLike) -> Optional[ResultCache]:
    """Normalize a ``cache=`` argument into a cache instance (or ``None``).

    ``None``/``False`` disable caching, ``True`` selects the default
    directory, a string/path selects that directory, and a prebuilt
    :class:`ResultCache` passes through (so callers can share one
    instance, and its hit/miss stats, across sweeps).
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return default_cache()
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(Path(cache))


# ----------------------------------------------------------------------
# Key builders
# ----------------------------------------------------------------------


def scenario_key(cache: ResultCache, scenario: Any) -> str:
    """Cache key of one end-to-end scenario run.

    The scenario's ``to_dict()`` already carries the seed; the package
    version keys out results computed by older code.
    """
    return cache.key_for(
        {
            "kind": "scenario",
            "scenario": scenario.to_dict(),
            "version": package_version(),
        }
    )


def experiment_point_key(
    cache: ResultCache,
    experiment: str,
    point: Any,
    params: Mapping[str, Any],
) -> str:
    """Cache key of one sweep point of a registered experiment.

    ``params`` must contain every parameter that shapes the point's result
    (including the seed); the package version is mixed in so version
    bumps miss.
    """
    return cache.key_for(
        {
            "kind": "experiment-point",
            "experiment": experiment,
            "point": point,
            "params": dict(params),
            "version": package_version(),
        }
    )
