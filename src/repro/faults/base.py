"""The fault-schedule layer: OSD failures as a piecewise-constant timeline.

A *fault schedule* describes how the emulated cluster degrades over a
replay horizon: OSDs crash and come back, whole failure domains go dark,
stragglers serve chunks several times slower, and background repair
traffic competes with foreground reads for the same FIFO queues.  The
replay engines consume a schedule in compiled form -- a
:class:`FaultTimeline`:

* ``boundaries_ms`` is a sorted stream of instants at which the cluster
  state changes.  :mod:`repro.cluster.replay` looks each storage fetch up
  in its interval; hit/miss classification never reads the timeline, so a
  fault changes which chunks a miss reads but never which reads miss.
* Between two boundaries the cluster state is frozen: ``down[i, osd]``
  says whether an OSD is unavailable during interval ``i`` and
  ``slow[i, osd]`` scales its service times (the straggler lane).
* ``repair_times_ms``/``repair_osds``/``repair_services_ms`` describe
  background repair jobs spliced into the per-OSD queues as competing
  constant-service work.

Schedules themselves are lazy: a :class:`FaultSchedule` compiles into a
timeline once the replay knows the cluster width and trace horizon.  The
seeded generators (``osd_crash``, ``degraded_read``, ``straggler``,
``repair_traffic``; see :mod:`repro.faults.generators`) register in the
``FAULTS`` registry via :func:`repro.api.register_fault` and are selected
by name through ``Scenario(faults=..., fault_params=...)`` or the
``--fault``/``--fault-param`` CLI flags; schedules compose with
:class:`CompositeFaultSchedule` (availability masks AND together, slow
factors multiply, repair streams merge).

An *empty* schedule (no windows, no repair jobs) compiles to a trivial
timeline and is guaranteed to reproduce the healthy replay bit-for-bit --
the seeded equivalence tests in ``tests/faults`` hold the engines to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import FaultError

__all__ = [
    "FaultWindow",
    "FaultTimeline",
    "FaultSchedule",
    "GeneratedFaultSchedule",
    "CompositeFaultSchedule",
    "as_fault_schedule",
    "compile_fault_schedule",
    "timeline_from_windows",
    "merge_timelines",
]


@dataclass(frozen=True)
class FaultWindow:
    """One time-bounded effect on one OSD.

    ``kind`` is ``"down"`` (the OSD is unavailable for reads) or
    ``"slow"`` (its service times are scaled by ``factor``).  The window
    spans ``[start_ms, end_ms)``; windows are clipped to the replay
    horizon at compile time, so a window entirely outside the horizon is
    simply dropped.
    """

    kind: str
    osd: int
    start_ms: float
    end_ms: float
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("down", "slow"):
            raise FaultError(f"unknown fault window kind {self.kind!r}")
        if self.osd < 0:
            raise FaultError(f"osd must be non-negative, got {self.osd}")
        if not self.start_ms < self.end_ms:
            raise FaultError(
                f"window must satisfy start < end, got [{self.start_ms}, {self.end_ms})"
            )
        if self.kind == "slow" and self.factor <= 0:
            raise FaultError(f"slow factor must be positive, got {self.factor}")


@dataclass(frozen=True)
class FaultTimeline:
    """A compiled fault schedule: piecewise-constant cluster state.

    Attributes
    ----------
    num_osds:
        Width of the cluster the timeline was compiled for.
    boundaries_ms:
        Strictly increasing instants at which the state changes; interval
        ``i`` spans ``[boundaries_ms[i-1], boundaries_ms[i])`` (interval 0
        starts at ``-inf``, the last interval runs to ``+inf``), so there
        are ``len(boundaries_ms) + 1`` state rows.
    down:
        ``(num_intervals, num_osds)`` availability mask (``True`` = the
        OSD is unavailable during that interval).
    slow:
        ``(num_intervals, num_osds)`` service-time multipliers (1.0 =
        nominal speed).
    repair_times_ms, repair_osds, repair_services_ms:
        Background repair jobs, sorted by arrival time: each occupies its
        OSD's FIFO queue for the given constant service time.
    """

    num_osds: int
    boundaries_ms: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=float))
    down: Optional[np.ndarray] = None
    slow: Optional[np.ndarray] = None
    repair_times_ms: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=float))
    repair_osds: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    repair_services_ms: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=float))
    label: str = "faults"

    def __post_init__(self) -> None:
        if self.num_osds < 1:
            raise FaultError(f"num_osds must be positive, got {self.num_osds}")
        boundaries = np.asarray(self.boundaries_ms, dtype=float)
        if boundaries.ndim != 1:
            raise FaultError("boundaries_ms must be one-dimensional")
        if boundaries.size and np.any(np.diff(boundaries) <= 0):
            raise FaultError("boundaries_ms must be strictly increasing")
        intervals = boundaries.size + 1
        down = self.down
        if down is None:
            down = np.zeros((intervals, self.num_osds), dtype=bool)
        else:
            down = np.asarray(down, dtype=bool)
        slow = self.slow
        if slow is None:
            slow = np.ones((intervals, self.num_osds), dtype=float)
        else:
            slow = np.asarray(slow, dtype=float)
        for name, state in (("down", down), ("slow", slow)):
            if state.shape != (intervals, self.num_osds):
                raise FaultError(
                    f"{name} must have shape ({intervals}, {self.num_osds}), "
                    f"got {state.shape}"
                )
        if np.any(slow <= 0):
            raise FaultError("slow multipliers must be positive")
        times = np.asarray(self.repair_times_ms, dtype=float)
        osds = np.asarray(self.repair_osds, dtype=np.int64)
        services = np.asarray(self.repair_services_ms, dtype=float)
        if not (times.shape == osds.shape == services.shape) or times.ndim != 1:
            raise FaultError("repair job arrays must be 1-D and aligned")
        if times.size:
            if np.any(np.diff(times) < 0):
                raise FaultError("repair job times must be sorted ascending")
            if np.any(osds < 0) or np.any(osds >= self.num_osds):
                raise FaultError("repair job OSD ids out of range")
            if np.any(services <= 0):
                raise FaultError("repair job service times must be positive")
        object.__setattr__(self, "boundaries_ms", boundaries)
        object.__setattr__(self, "down", down)
        object.__setattr__(self, "slow", slow)
        object.__setattr__(self, "repair_times_ms", times)
        object.__setattr__(self, "repair_osds", osds)
        object.__setattr__(self, "repair_services_ms", services)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_intervals(self) -> int:
        """Number of constant-state intervals (boundaries + 1)."""
        return int(self.boundaries_ms.size) + 1

    @property
    def trivial(self) -> bool:
        """Whether the timeline encodes no faults at all."""
        return (
            not bool(self.down.any())
            and bool(np.all(self.slow == 1.0))
            and self.repair_times_ms.size == 0
        )

    def interval_of(self, times_ms: np.ndarray) -> np.ndarray:
        """Map instants to their constant-state interval indices."""
        return np.searchsorted(self.boundaries_ms, np.asarray(times_ms, dtype=float), side="right")

    def down_at(self, time_ms: float) -> np.ndarray:
        """Availability mask row active at ``time_ms``."""
        return self.down[int(self.interval_of(np.asarray([time_ms]))[0])]

    def slow_at(self, time_ms: float) -> np.ndarray:
        """Service-multiplier row active at ``time_ms``."""
        return self.slow[int(self.interval_of(np.asarray([time_ms]))[0])]

    # A compiled timeline is itself a degenerate schedule, so every replay
    # entry point accepts either form.
    def compile(
        self,
        num_osds: int,
        horizon_ms: float,
        seed: Any = None,
        service_ms: Optional[float] = None,
    ) -> "FaultTimeline":
        """Return the timeline itself (it is already compiled)."""
        if num_osds != self.num_osds:
            raise FaultError(
                f"timeline was compiled for {self.num_osds} OSDs, "
                f"replay has {num_osds}"
            )
        return self


def timeline_from_windows(
    windows: Iterable[FaultWindow],
    num_osds: int,
    horizon_ms: float,
    repair: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    label: str = "faults",
) -> FaultTimeline:
    """Compile fault windows into a piecewise-constant :class:`FaultTimeline`.

    Windows are clipped to ``[0, horizon_ms)``; windows entirely outside
    the horizon (or on OSDs outside the cluster) are rejected for bad OSD
    ids but silently dropped when they simply never overlap the horizon.
    """
    horizon_ms = float(horizon_ms)
    clipped = []
    for window in windows:
        if window.osd >= num_osds:
            raise FaultError(
                f"window names OSD {window.osd}, cluster has {num_osds}"
            )
        start = max(float(window.start_ms), 0.0)
        end = min(float(window.end_ms), horizon_ms) if horizon_ms > 0 else 0.0
        if start >= end:
            continue
        clipped.append((window.kind, window.osd, start, end, float(window.factor)))

    edges = set()
    for _, _, start, end, _ in clipped:
        if start > 0.0:
            edges.add(start)
        if end < horizon_ms:
            edges.add(end)
    boundaries = np.asarray(sorted(edges), dtype=float)
    intervals = boundaries.size + 1
    down = np.zeros((intervals, num_osds), dtype=bool)
    slow = np.ones((intervals, num_osds), dtype=float)
    for kind, osd, start, end, factor in clipped:
        first = int(np.searchsorted(boundaries, start, side="right"))
        last = int(np.searchsorted(boundaries, end, side="left")) + 1
        if end >= horizon_ms:
            last = intervals
        if kind == "down":
            down[first:last, osd] = True
        else:
            slow[first:last, osd] *= factor
    if repair is None:
        times = osds = services = None
    else:
        times, osds, services = repair
    return FaultTimeline(
        num_osds=num_osds,
        boundaries_ms=boundaries,
        down=down,
        slow=slow,
        repair_times_ms=np.empty(0) if times is None else times,
        repair_osds=np.empty(0, np.int64) if osds is None else osds,
        repair_services_ms=np.empty(0) if services is None else services,
        label=label,
    )


def merge_timelines(timelines: Sequence[FaultTimeline]) -> FaultTimeline:
    """Compose timelines: masks OR, slow factors multiply, repairs merge."""
    if not timelines:
        raise FaultError("merge_timelines needs at least one timeline")
    num_osds = timelines[0].num_osds
    for timeline in timelines[1:]:
        if timeline.num_osds != num_osds:
            raise FaultError("cannot merge timelines of different cluster widths")
    if len(timelines) == 1:
        return timelines[0]
    boundaries = np.unique(np.concatenate([t.boundaries_ms for t in timelines]))
    # Sample every source timeline once per merged interval; any instant
    # inside the interval works because the state is constant there.
    if boundaries.size == 0:
        representatives = np.zeros(1, dtype=float)
    else:
        representatives = np.concatenate(
            (
                [boundaries[0] - 1.0],
                (boundaries[:-1] + boundaries[1:]) / 2.0,
                [boundaries[-1] + 1.0],
            )
        )
    intervals = boundaries.size + 1
    down = np.zeros((intervals, num_osds), dtype=bool)
    slow = np.ones((intervals, num_osds), dtype=float)
    for timeline in timelines:
        rows = timeline.interval_of(representatives)
        down |= timeline.down[rows]
        slow *= timeline.slow[rows]
    repair_times = np.concatenate([t.repair_times_ms for t in timelines])
    repair_osds = np.concatenate([t.repair_osds for t in timelines])
    repair_services = np.concatenate([t.repair_services_ms for t in timelines])
    order = np.argsort(repair_times, kind="stable")
    return FaultTimeline(
        num_osds=num_osds,
        boundaries_ms=boundaries,
        down=down,
        slow=slow,
        repair_times_ms=repair_times[order],
        repair_osds=repair_osds[order],
        repair_services_ms=repair_services[order],
        label="+".join(t.label for t in timelines),
    )


# ----------------------------------------------------------------------
# Lazy schedules
# ----------------------------------------------------------------------


class FaultSchedule:
    """Protocol of a lazy fault schedule.

    ``compile(num_osds, horizon_ms, seed, service_ms)`` must return a
    :class:`FaultTimeline` for the given cluster width and horizon; the
    same seed must always yield the same timeline.  ``service_ms`` is the
    replay's nominal chunk service time, the default sizing for repair
    jobs.  :class:`FaultTimeline` satisfies the protocol trivially.
    """

    label: str = "faults"

    def compile(
        self,
        num_osds: int,
        horizon_ms: float,
        seed: Any = None,
        service_ms: Optional[float] = None,
    ) -> FaultTimeline:
        raise NotImplementedError


@dataclass(frozen=True)
class GeneratedFaultSchedule(FaultSchedule):
    """A registered seeded generator plus its parameters."""

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Validate eagerly: an unknown generator or parameter fails at
        # construction time, with the registry's known-names message.
        self._spec().validate_params(self.params)
        object.__setattr__(self, "params", dict(self.params))

    def _spec(self):
        from repro.api.registry import FAULTS

        return FAULTS.get(self.name)

    @property
    def label(self) -> str:  # type: ignore[override]
        return self.name

    def compile(
        self,
        num_osds: int,
        horizon_ms: float,
        seed: Any = None,
        service_ms: Optional[float] = None,
    ) -> FaultTimeline:
        rng = np.random.default_rng(seed)
        return self._spec().build(
            num_osds=num_osds,
            horizon_ms=float(horizon_ms),
            rng=rng,
            service_ms=service_ms,
            **dict(self.params),
        )


@dataclass(frozen=True)
class CompositeFaultSchedule(FaultSchedule):
    """Several schedules active at once (an outage *and* repair traffic).

    Each part compiles with its own child of the composite's seed, so the
    parts stay independent and the whole composition is reproducible.
    """

    parts: Tuple[FaultSchedule, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise FaultError("CompositeFaultSchedule needs at least one part")
        object.__setattr__(
            self, "parts", tuple(as_fault_schedule(part) for part in self.parts)
        )

    @property
    def label(self) -> str:  # type: ignore[override]
        return "+".join(part.label for part in self.parts)

    def compile(
        self,
        num_osds: int,
        horizon_ms: float,
        seed: Any = None,
        service_ms: Optional[float] = None,
    ) -> FaultTimeline:
        root = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        children = root.spawn(len(self.parts))
        return merge_timelines(
            [
                part.compile(num_osds, horizon_ms, seed=child, service_ms=service_ms)
                for part, child in zip(self.parts, children)
            ]
        )


FaultLike = Union[str, FaultSchedule, FaultTimeline, Sequence[Any], None]


def as_fault_schedule(
    faults: FaultLike, params: Optional[Mapping[str, Any]] = None
) -> Optional[FaultSchedule]:
    """Coerce a fault reference into a :class:`FaultSchedule`.

    Accepts a registered generator name (with optional ``params``), a
    schedule or compiled timeline, or a sequence of any of these (composed
    with :class:`CompositeFaultSchedule`); ``None`` stays ``None``.
    """
    if faults is None:
        if params:
            raise FaultError("fault_params were given without a fault schedule")
        return None
    if isinstance(faults, str):
        return GeneratedFaultSchedule(faults, dict(params or {}))
    if params:
        raise FaultError(
            "fault_params only apply to a registered generator name, "
            f"not {type(faults).__name__}"
        )
    if isinstance(faults, (FaultSchedule, FaultTimeline)):
        return faults
    if isinstance(faults, Sequence):
        return CompositeFaultSchedule(tuple(faults))
    raise FaultError(f"cannot interpret {faults!r} as a fault schedule")


def compile_fault_schedule(
    faults: FaultLike,
    params: Optional[Mapping[str, Any]] = None,
    *,
    num_osds: int,
    horizon_ms: float,
    seed: Any = None,
    service_ms: Optional[float] = None,
) -> Optional[FaultTimeline]:
    """One-step coercion + compilation (``None`` stays ``None``)."""
    schedule = as_fault_schedule(faults, params)
    if schedule is None:
        return None
    return schedule.compile(num_osds, horizon_ms, seed=seed, service_ms=service_ms)
