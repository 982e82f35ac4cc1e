"""The online controller: drift-triggered re-solves with bounded churn.

:class:`OnlineController` closes the loop the paper sketches in Section III:
watch the request stream, open a new time bin when the measured rates drift,
re-solve the placement warm (:class:`~repro.control.resolve.OnlineResolver`)
and apply it through the lazy cache-update rule -- drops are immediate and
free, adds materialize on the next access.  On top of the paper's rule the
controller adds a *churn budget*: at most ``churn_budget`` chunks may be
scheduled for (lazy) addition per bin, highest-rate files first, with the
remainder deferred to later bins.  This bounds the extra work the cache
does re-encoding functional chunks after a drift spike.

Two driving modes:

* **stream mode** (:meth:`run` / :meth:`observe`): consume a
  :class:`~repro.workloads.base.RequestStream` in chunks through the
  vectorized :class:`~repro.control.estimator.StreamingRateEstimator`,
  opening bins on :class:`~repro.control.estimator.DriftEvent`.
* **explicit-bin mode** (:meth:`process_bin`): the caller supplies per-bin
  rates directly (the Fig. 5 Table-I replay of
  :func:`~repro.workloads.catalog.table_i_time_bins`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.control.estimator import DriftEvent, StreamingRateEstimator
from repro.control.resolve import OnlineResolver, ResolveReport
from repro.core.model import StorageSystemModel
from repro.core.placement import CachePlacement
from repro.core.vectorized import VectorizedSystem
from repro.exceptions import ControlError
from repro.workloads.base import RequestStream


@dataclass
class ChurnPlan:
    """Bounded-churn swap plan between two consecutive placements.

    ``desired`` is the re-solve's integral allocation; ``applied`` is what
    the cache actually commits to this bin: all drops (free), plus the
    highest-priority adds up to the churn budget.  Deferred adds are *not*
    carried as debt -- the next re-solve recomputes ``desired`` from fresh
    rates, so deferral converges naturally once the rates settle.
    """

    bin_index: Optional[int]
    desired: np.ndarray
    applied: np.ndarray
    dropped_chunks: int
    added_chunks: int
    deferred_chunks: int
    budget: Optional[int]


class SwapPlanner:
    """Plans lazy drop-now/add-on-access deltas under a per-bin budget.

    Parameters
    ----------
    churn_budget:
        Maximum chunks scheduled for addition per bin; ``None`` (or
        ``inf``) disables the bound, recovering the paper's unbounded lazy
        update.
    """

    def __init__(self, churn_budget: Optional[float] = None):
        if churn_budget is not None:
            if math.isinf(churn_budget):
                churn_budget = None
            elif churn_budget < 0:
                raise ControlError("churn_budget must be non-negative")
        self._budget = int(churn_budget) if churn_budget is not None else None

    @property
    def churn_budget(self) -> Optional[int]:
        """The per-bin addition budget in chunks (``None`` = unbounded)."""
        return self._budget

    def plan(
        self,
        current: Optional[np.ndarray],
        desired: np.ndarray,
        priorities: Optional[np.ndarray] = None,
        bin_index: Optional[int] = None,
    ) -> ChurnPlan:
        """Plan the transition from ``current`` to ``desired`` allocations.

        ``priorities`` ranks which files' adds are granted first (higher
        wins; typically the measured arrival rates).  ``current=None``
        means an empty cache.
        """
        desired = np.asarray(desired, dtype=np.int64)
        if current is None:
            current = np.zeros_like(desired)
        else:
            current = np.asarray(current, dtype=np.int64)
        if current.shape != desired.shape:
            raise ControlError("current and desired allocations must align")
        drops = np.maximum(current - desired, 0)
        adds = np.maximum(desired - current, 0)
        total_adds = int(adds.sum())
        budget = self._budget
        if budget is None or total_adds <= budget:
            granted = adds
        else:
            if priorities is None:
                priorities = np.zeros(desired.size)
            priorities = np.asarray(priorities, dtype=float)
            granted = np.zeros_like(adds)
            # Highest-priority files first; stable order breaks ties by
            # file position so plans are deterministic.
            candidates = np.flatnonzero(adds > 0)
            order = candidates[
                np.argsort(-priorities[candidates], kind="stable")
            ]
            remaining = budget
            cumulative = np.cumsum(adds[order])
            full = cumulative <= remaining
            granted[order[full]] = adds[order[full]]
            used = int(cumulative[full][-1]) if np.any(full) else 0
            remaining -= used
            partial = order[np.count_nonzero(full):][:1]
            if partial.size and remaining > 0:
                granted[partial] = min(int(adds[partial[0]]), remaining)
        applied = np.minimum(current, desired) + granted
        return ChurnPlan(
            bin_index=bin_index,
            desired=desired,
            applied=applied,
            dropped_chunks=int(drops.sum()),
            added_chunks=int(granted.sum()),
            deferred_chunks=total_adds - int(granted.sum()),
            budget=budget,
        )


@dataclass
class BinRecord:
    """Everything the controller did for one time bin."""

    index: int
    opened_at: float
    event: Optional[DriftEvent]
    rates: np.ndarray
    report: ResolveReport
    churn: ChurnPlan
    placement: Optional[CachePlacement] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable summary (no per-file arrays)."""
        return {
            "index": self.index,
            "opened_at": self.opened_at,
            "trigger_file": self.event.file_id if self.event else None,
            "relative_change": (
                self.event.relative_change if self.event else None
            ),
            "num_changed": self.event.num_changed if self.event else None,
            "kind": self.report.kind,
            "warm": self.report.warm,
            "fallback": self.report.fallback,
            "fraction_frozen": self.report.fraction_frozen,
            "relaxed_objective": self.report.relaxed_objective,
            "objective": self.report.objective,
            "solve_seconds": self.report.seconds,
            "iterations": self.report.iterations,
            "sweeps": self.report.sweeps,
            "dropped_chunks": self.churn.dropped_chunks,
            "added_chunks": self.churn.added_chunks,
            "deferred_chunks": self.churn.deferred_chunks,
        }


@dataclass
class ControlResult:
    """Outcome of an :meth:`OnlineController.run` over a stream."""

    bins: List[BinRecord] = field(default_factory=list)
    num_requests: int = 0
    duration: float = 0.0
    churn_budget: Optional[int] = None
    warm: bool = True

    @property
    def num_bins(self) -> int:
        """Number of bins opened (including the bootstrap bin)."""
        return len(self.bins)

    @property
    def num_drift_events(self) -> int:
        """Number of bins opened by a drift event."""
        return sum(1 for record in self.bins if record.event is not None)

    @property
    def total_dropped_chunks(self) -> int:
        """Chunks dropped at bin boundaries across the run."""
        return sum(record.churn.dropped_chunks for record in self.bins)

    @property
    def total_added_chunks(self) -> int:
        """Chunks scheduled for lazy addition across the run."""
        return sum(record.churn.added_chunks for record in self.bins)

    @property
    def total_deferred_chunks(self) -> int:
        """Adds deferred past their bin by the churn budget."""
        return sum(record.churn.deferred_chunks for record in self.bins)

    def solve_seconds(self) -> List[float]:
        """Per-bin re-solve wall-clock seconds."""
        return [record.report.seconds for record in self.bins]

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"ControlResult({self.num_bins} bins, "
            f"{self.num_drift_events} drift events, "
            f"{self.num_requests} requests over {self.duration:.0f} s)"
        ]
        for record in self.bins:
            trigger = (
                f"drift on {record.event.file_id or record.event.file_position} "
                f"({record.event.relative_change:+.0%})"
                if record.event
                else record.report.kind
            )
            lines.append(
                f"  bin {record.index} @ {record.opened_at:8.1f}s [{trigger}]: "
                f"{record.report.kind} solve {record.report.seconds * 1000.0:7.1f} ms, "
                f"objective {record.report.objective:.4f}, "
                f"-{record.churn.dropped_chunks}/+{record.churn.added_chunks} chunks"
                + (
                    f" ({record.churn.deferred_chunks} deferred)"
                    if record.churn.deferred_chunks
                    else ""
                )
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view of the run."""
        return {
            "num_bins": self.num_bins,
            "num_drift_events": self.num_drift_events,
            "num_requests": self.num_requests,
            "duration": self.duration,
            "churn_budget": self.churn_budget,
            "warm": self.warm,
            "total_dropped_chunks": self.total_dropped_chunks,
            "total_added_chunks": self.total_added_chunks,
            "total_deferred_chunks": self.total_deferred_chunks,
            "bins": [record.to_dict() for record in self.bins],
        }


class OnlineController:
    """Watches a workload stream and re-optimizes the cache on drift.

    Parameters
    ----------
    model:
        The storage-system model (structure, services, capacity).  Its own
        arrival rates seed the bootstrap solve.
    window, change_threshold, min_observations:
        Estimator knobs (see :class:`StreamingRateEstimator`).
    churn_budget:
        Per-bin cap on chunks scheduled for lazy addition (``None`` =
        unbounded, the paper's rule).
    rate_floor:
        Per-file floor applied when freezing measured rates for a
        re-solve, keeping never-observed files from degenerating to
        exactly-zero weight.
    warm:
        Whether drift re-solves run warm; ``False`` turns the controller
        into the per-bin cold re-solve baseline the fig14 race compares
        against.
    system:
        Optional precompiled :class:`VectorizedSystem` to reuse.
    build_placements:
        Whether per-bin :class:`CachePlacement` objects are assembled
        (disable at paper scale).
    resolver_params:
        Extra keyword arguments for :class:`OnlineResolver`.
    """

    def __init__(
        self,
        model: StorageSystemModel,
        window: float = 600.0,
        change_threshold: float = 0.5,
        min_observations: int = 5,
        churn_budget: Optional[float] = None,
        rate_floor: float = 0.0,
        warm: bool = True,
        system: Optional[VectorizedSystem] = None,
        build_placements: bool = True,
        **resolver_params: Any,
    ):
        self._model = model
        self._file_ids = [spec.file_id for spec in model.files]
        self._file_positions = {
            file_id: position for position, file_id in enumerate(self._file_ids)
        }
        self._resolver = OnlineResolver(
            model,
            system=system,
            build_placements=build_placements,
            **resolver_params,
        )
        self._estimator = StreamingRateEstimator(
            num_files=model.num_files,
            window=window,
            change_threshold=change_threshold,
            min_observations=min_observations,
            file_ids=self._file_ids,
        )
        self._planner = SwapPlanner(churn_budget)
        self._rate_floor = float(rate_floor)
        self._warm = bool(warm)
        self._applied: Optional[np.ndarray] = None
        self._records: List[BinRecord] = []
        self._bin_counter = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def model(self) -> StorageSystemModel:
        """The storage-system model."""
        return self._model

    @property
    def resolver(self) -> OnlineResolver:
        """The warm-started re-solver."""
        return self._resolver

    @property
    def estimator(self) -> StreamingRateEstimator:
        """The streaming rate estimator."""
        return self._estimator

    @property
    def planner(self) -> SwapPlanner:
        """The bounded-churn swap planner."""
        return self._planner

    @property
    def records(self) -> List[BinRecord]:
        """All bins opened so far (copied)."""
        return list(self._records)

    @property
    def applied_allocation(self) -> Optional[np.ndarray]:
        """The per-file allocation the cache is currently committed to."""
        return None if self._applied is None else self._applied.copy()

    @property
    def current_placement(self) -> Optional[CachePlacement]:
        """The most recent bin's placement (when placements are built)."""
        for record in reversed(self._records):
            if record.placement is not None:
                return record.placement
        return None

    # ------------------------------------------------------------------
    # Bin machinery
    # ------------------------------------------------------------------

    def _open_bin(
        self,
        rates: np.ndarray,
        opened_at: float,
        event: Optional[DriftEvent],
        warm: bool,
        index: Optional[int] = None,
    ) -> BinRecord:
        self._bin_counter += 1
        if index is None:
            index = self._bin_counter
        if not self._resolver.bootstrapped:
            report = self._resolver.bootstrap(rates, bin_index=index)
        else:
            report = self._resolver.resolve(
                rates, warm=warm and self._warm, bin_index=index
            )
        churn = self._planner.plan(
            self._applied, report.cached_chunks, priorities=rates, bin_index=index
        )
        self._applied = churn.applied
        record = BinRecord(
            index=index,
            opened_at=opened_at,
            event=event,
            rates=rates,
            report=report,
            churn=churn,
            placement=report.placement,
        )
        self._records.append(record)
        return record

    # ------------------------------------------------------------------
    # Stream mode
    # ------------------------------------------------------------------

    def bootstrap(self) -> BinRecord:
        """Open the first bin from the model's own (predicted) rates."""
        if self._resolver.bootstrapped:
            raise ControlError("controller is already bootstrapped")
        rates = np.asarray(
            [spec.arrival_rate for spec in self._model.files], dtype=float
        )
        return self._open_bin(rates, opened_at=0.0, event=None, warm=False)

    def observe(
        self, times: np.ndarray, positions: np.ndarray
    ) -> Optional[BinRecord]:
        """Feed one stream chunk; re-solve and re-plan if drift fires."""
        if not self._resolver.bootstrapped:
            self.bootstrap()
        event = self._estimator.observe(times, positions)
        if event is None:
            return None
        rates = self._estimator.freeze_bin_rates(floor=self._rate_floor)
        return self._open_bin(
            rates, opened_at=event.time, event=event, warm=True
        )

    def run(
        self,
        stream: RequestStream,
        chunk_duration: Optional[float] = None,
        num_chunks: int = 64,
    ) -> ControlResult:
        """Drive the controller over a whole request stream.

        The stream is cut into time chunks (``chunk_duration`` seconds, or
        ``duration / num_chunks`` when omitted) and each chunk is observed
        in turn; the estimator window should span several chunks.
        """
        positions = self._stream_positions(stream)
        duration = stream.duration
        if chunk_duration is None:
            if num_chunks < 1:
                raise ControlError("num_chunks must be positive")
            chunk_duration = duration / num_chunks if duration > 0 else 0.0
        if chunk_duration <= 0:
            raise ControlError("chunk_duration must be positive")
        if not self._resolver.bootstrapped:
            self.bootstrap()
        edges = np.arange(chunk_duration, duration + chunk_duration, chunk_duration)
        boundaries = np.searchsorted(stream.times, edges, side="right")
        start = 0
        for stop in boundaries:
            if stop > start:
                self.observe(stream.times[start:stop], positions[start:stop])
            start = stop
        return ControlResult(
            bins=self.records,
            num_requests=stream.num_requests,
            duration=float(duration),
            churn_budget=self._planner.churn_budget,
            warm=self._warm,
        )

    def _stream_positions(self, stream: RequestStream) -> np.ndarray:
        """Map stream object positions onto model file positions."""
        if list(stream.object_ids) == self._file_ids:
            return stream.object_positions
        try:
            mapping = np.asarray(
                [
                    self._file_positions[object_id]
                    for object_id in stream.object_ids
                ],
                dtype=np.int64,
            )
        except KeyError as error:
            raise ControlError(
                f"stream object {error.args[0]!r} is not a file of the model"
            ) from None
        return mapping[stream.object_positions]

    # ------------------------------------------------------------------
    # Explicit-bin mode
    # ------------------------------------------------------------------

    def process_bin(
        self,
        arrival_rates: Union[Mapping[str, float], Sequence[float]],
        opened_at: Optional[float] = None,
        index: Optional[int] = None,
    ) -> BinRecord:
        """Open a bin with caller-supplied rates (no drift detection).

        ``arrival_rates`` may be a per-file-id mapping (files missing from
        it keep the model's own rate) or a positional vector.  The first
        call runs cold (bootstrap); later calls re-solve warm.  ``index``
        overrides the controller's own bin numbering (used by callers that
        replay externally-numbered bins, e.g. the Table-I replay).
        """
        if isinstance(arrival_rates, Mapping):
            rates = np.asarray(
                [spec.arrival_rate for spec in self._model.files], dtype=float
            )
            for file_id, rate in arrival_rates.items():
                position = self._file_positions.get(file_id)
                if position is None:
                    raise ControlError(
                        f"unknown file {file_id!r} in arrival_rates"
                    )
                rates[position] = float(rate)
        else:
            rates = np.asarray(arrival_rates, dtype=float)
            if rates.shape != (self._model.num_files,):
                raise ControlError(
                    f"expected {self._model.num_files} rates, got {rates.shape}"
                )
        if opened_at is None:
            opened_at = float(len(self._records))
        self._estimator.freeze_bin_rates(rates)
        return self._open_bin(
            rates, opened_at=opened_at, event=None, warm=True, index=index
        )
