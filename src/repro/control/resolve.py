"""Warm-started re-solves of the cache-placement problem.

The online controller re-optimizes at every drift event.  A cold Algorithm-1
run at paper scale (10^5 files) is far too slow to fit inside a time bin, so
:class:`OnlineResolver` re-solves warm:

* the compiled :class:`~repro.core.vectorized.VectorizedSystem` is re-pointed
  at the new measured rates with :meth:`~repro.core.vectorized.VectorizedSystem.set_arrival_rates`
  (no pair-array rebuild, no model copy);
* the fixed-``z`` Prob-Pi solve (at the ``z`` carried from the previous
  bin) starts from the previous bin's iterate and projects over a **reduced
  active set** (:class:`ActiveSetProjection`): at a converged solution the
  vast majority of ``pi`` coordinates sit exactly on a box bound, and under
  a rate perturbation almost all of them stay there, so the projection --
  a few breakpoint-Newton evaluations per iteration, each touching every
  coordinate it projects -- only pays for the few coordinates that were
  strictly interior;
* a short full-space verification run then confirms the frozen coordinates
  were in fact optimal; if it still finds descent beyond a small budget, the
  resolver falls back to the cold solve (``fallback=True`` in the report)
  -- the parity guarantee is never sacrificed for speed;
* ``z`` is then refreshed and the alternation continues for a few cheap
  warm sweeps until the objective stops moving;
* the fractional allocation is rounded by largest-remainder apportionment
  and the scheduling probabilities re-solved with every file's total pinned
  to its integral target, which is exactly the "equivalent code" form the
  lazy cache update consumes.

**Convergence parity.** Warm and cold resolves share the *same* carried
``z``, so their first fixed-``z`` solves minimize the *same* problem.
``ResolveReport.relaxed_objective`` records its value and is the quantity
the parity gate (warm vs cold agreement to <= 1e-6 relative) is asserted
on; it is deliberately *not* the end-of-alternation objective, because the
``z``-alternation is biconvex and warm/cold paths may settle in different
(equally valid) local alternation fixed points.  The fixed-``z`` problem
itself is not convex either: each ``pi_{i,j}`` multiplies a term that grows
with the node load it creates.  On the 40-file test model at utilisation
below 0.5, two FISTA runs stopped at distinct stationary points 1.2e-6
apart in relative objective, and the objective on the segment between them
lies above both.  A warm solve that agrees with cold only where the
verified active set holds therefore hands every other case to the cold
solve itself rather than descending on from its own iterate.

**Operating envelope.** The implemented fixed-``z`` objective clips each
pair's load at the queueing-stability boundary.  The guarantee assumes the
cold comparator's starting point -- ``initial_pi()``, i.e. the no-cache
placement, the most heavily loaded feasible point -- is itself
queueing-stable.  At operating
points hot enough to saturate servers from that start, FISTA can jam at
spurious stationary points of the clipped surface and the cold baseline is
no longer meaningful (the paper's latency bound diverges there anyway).
Under adversarial rate jumps *within* the envelope the clipped landscape
can also expose a cluster of distinct stationary points ~1e-5 apart in
relative objective; warm and cold each converge, occasionally to different
members, so adversarial tests document that looser bound while the 1e-6
gate is enforced on steady-state perturbations (tests/control and the
``BENCH_online_resolve`` gate).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.algorithm import build_placement
from repro.core.model import StorageSystemModel
from repro.core.placement import CachePlacement
from repro.core.prob_pi import solve_fista
from repro.core.vectorized import PolytopeProjection, VectorizedSystem
from repro.exceptions import ControlError


class ActiveSetProjection:
    """Euclidean projection onto the Prob-Pi polytope over a reduced set.

    Coordinates of the reference solution that sit on a box bound
    (``pi <= epsilon`` or ``pi >= 1 - epsilon``) are frozen at their
    rounded values; the projection then only solves for the free
    coordinates.  It is a :class:`~repro.core.vectorized.PolytopeProjection`
    with those coordinates pinned, so it runs the same breakpoint-Newton
    kernel over arrays that are typically 10-20x smaller and carries its
    coupling multiplier from call to call.  Instances are callables mapping a full
    pair vector to its projection onto ``{x : x[frozen] = fixed, x[free] in
    the reduced polytope}``, which is the shape the ``projector`` hook of
    :func:`repro.core.prob_pi.solve_fista` expects.
    """

    def __init__(
        self,
        system: VectorizedSystem,
        reference_pi: np.ndarray,
        epsilon: float = 1e-7,
    ):
        reference = np.asarray(reference_pi, dtype=float)
        if reference.shape != (system.num_pairs,):
            raise ControlError(
                f"reference_pi must have {system.num_pairs} entries"
            )
        frozen = (reference <= epsilon) | (reference >= 1.0 - epsilon)
        free = system.num_pairs - int(np.count_nonzero(frozen))
        self.usable = 0 < free < system.num_pairs
        #: Fraction of pair coordinates frozen at a box bound.
        self.fraction_frozen = 1.0 - free / system.num_pairs
        if self.usable:
            self._projection = PolytopeProjection(
                system,
                np.zeros(system.num_files),
                system.k_values,
                frozen,
                np.where(frozen & (reference >= 0.5), 1.0, 0.0),
            )

    def __call__(self, point: np.ndarray) -> np.ndarray:
        return self._projection(point)


def round_allocation(system: VectorizedSystem, pi: np.ndarray) -> np.ndarray:
    """Largest-remainder apportionment of the fractional cache allocation.

    Floors every file's fractional allocation ``d_i = k_i - sum_j pi_{i,j}``
    and hands the remaining integral budget to the largest fractional parts
    (capped per file at ``k_i``), so the rounded total never exceeds either
    the cache capacity or the fractional total the solver chose.
    """
    allocation = np.clip(
        system.k_values - system.file_sums(pi), 0.0, system.k_values
    )
    base = np.floor(allocation + 1e-9)
    fractions = allocation - base
    budget = min(
        int(system.cache_capacity), int(np.floor(allocation.sum() + 1e-9))
    ) - int(base.sum())
    rounded = base.astype(np.int64)
    if budget > 0:
        can_grow = rounded < system.k_values.astype(np.int64)
        order = np.argsort(np.where(can_grow, fractions, -1.0))[::-1][:budget]
        rounded[order] += 1
    return rounded


@dataclass
class ResolveReport:
    """Outcome of one online re-solve."""

    bin_index: Optional[int]
    kind: str  # "bootstrap", "warm" or "cold"
    relaxed_objective: float  # fixed-z objective at the carried z
    objective: float  # objective of the final (integral) placement
    cached_chunks: np.ndarray  # integer per-file cache allocation
    iterations: int  # total FISTA iterations across all stages
    sweeps: int  # z-alternation sweeps after the first fixed-z solve
    seconds: float  # wall-clock of the whole resolve (excl. placement build)
    warm: bool
    fallback: bool = False  # warm active set rejected by verification
    fraction_frozen: float = 0.0
    placement: Optional[CachePlacement] = None
    pinned_pi: Optional[np.ndarray] = None  # scheduling probs at the rounding


class OnlineResolver:
    """Re-solves the placement for new rates, warm-started from the last bin.

    Parameters
    ----------
    model:
        The storage-system model (structure, service moments, capacity).
        Per-bin rates are applied to the compiled system directly; the
        model's own rates are only used by the bootstrap default.
    system:
        Optional precompiled system to reuse (rebound to ``model``).
    parity_rtol:
        Relative agreement required between the warm fixed-``z`` solve and
        a cold one; drives the verification fallback threshold.
    alternation_tolerance:
        Relative objective improvement below which the ``z``-alternation
        stops.
    max_sweeps:
        Cap on alternation sweeps per resolve.
    fista_iterations, fista_tolerance, check_window:
        Iteration cap and windowed-improvement stopping rule handed to
        :func:`~repro.core.prob_pi.solve_fista`.
    verify_iterations:
        Full-space FISTA iterations run after a reduced warm solve to
        certify the frozen active set.
    freeze_epsilon:
        Distance from a box bound below which a coordinate of the previous
        solution is frozen by :class:`ActiveSetProjection`.
    build_placements:
        Whether :meth:`resolve` assembles a full :class:`CachePlacement`
        (a per-file Python loop -- disable at paper scale and consume
        ``cached_chunks`` directly).
    """

    def __init__(
        self,
        model: StorageSystemModel,
        system: Optional[VectorizedSystem] = None,
        parity_rtol: float = 1e-6,
        alternation_tolerance: float = 1e-7,
        max_sweeps: int = 6,
        fista_iterations: int = 2000,
        fista_tolerance: float = 1e-10,
        check_window: int = 20,
        verify_iterations: int = 40,
        freeze_epsilon: float = 1e-7,
        build_placements: bool = True,
    ):
        if parity_rtol <= 0:
            raise ControlError("parity_rtol must be positive")
        if max_sweeps < 0:
            raise ControlError("max_sweeps must be non-negative")
        self._model = model
        self._system = (
            system.rebind(model) if system is not None else VectorizedSystem(model)
        )
        self._parity_rtol = float(parity_rtol)
        self._alternation_tolerance = float(alternation_tolerance)
        self._max_sweeps = int(max_sweeps)
        self._fista_iterations = int(fista_iterations)
        self._fista_tolerance = float(fista_tolerance)
        self._check_window = int(check_window)
        self._verify_iterations = int(verify_iterations)
        self._freeze_epsilon = float(freeze_epsilon)
        self._build_placements = bool(build_placements)
        # Carried state: the previous bin's relaxed iterate, its auxiliary
        # variables and the backtracked Lipschitz estimate.
        self._pi: Optional[np.ndarray] = None
        self._z: Optional[np.ndarray] = None
        self._lipschitz: float = 1.0

    @property
    def model(self) -> StorageSystemModel:
        """The underlying storage-system model."""
        return self._model

    @property
    def system(self) -> VectorizedSystem:
        """The compiled vectorised system (shared, mutated per resolve)."""
        return self._system

    @property
    def bootstrapped(self) -> bool:
        """Whether a first solve has produced carried state."""
        return self._pi is not None

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def bootstrap(
        self,
        arrival_rates: Optional[Sequence[float]] = None,
        bin_index: Optional[int] = None,
        build_placement: Optional[bool] = None,
    ) -> ResolveReport:
        """Full cold solve establishing the carried state.

        Defaults to the model's own (predicted) rates when none are given.
        """
        if arrival_rates is None:
            arrival_rates = [spec.arrival_rate for spec in self._model.files]
        report = self.resolve(
            arrival_rates,
            warm=False,
            commit=True,
            bin_index=bin_index,
            build_placement=build_placement,
        )
        report.kind = "bootstrap"
        return report

    def resolve(
        self,
        arrival_rates: Sequence[float],
        warm: bool = True,
        commit: bool = True,
        bin_index: Optional[int] = None,
        build_placement: Optional[bool] = None,
    ) -> ResolveReport:
        """Re-solve the placement for ``arrival_rates``.

        Parameters
        ----------
        warm:
            Start from the carried iterate over the reduced active set
            (falls back to cold when no state is carried yet).
        commit:
            Update the carried state with this solve's outcome.  Pass
            ``False`` to run a comparator (e.g. the cold arm of the parity
            gate) against the same carried state without perturbing it.
        """
        start = time.perf_counter()
        system = self._system
        system.set_arrival_rates(arrival_rates)
        lower = np.zeros(system.num_files)
        upper = system.k_values.copy()
        warm = bool(warm) and self._pi is not None

        if self._z is not None:
            z = self._z
        else:
            z = system.optimal_z(
                system.project(system.initial_pi(), lower, upper)
            )

        iterations = 0
        fallback = False
        fraction_frozen = 0.0
        lipschitz = self._lipschitz if warm else 1.0

        # ---- Stage 1: the fixed-z solve at the carried z.  This is the
        # problem warm and cold arms share.
        result = None
        if warm:
            projection = ActiveSetProjection(
                system, self._pi, epsilon=self._freeze_epsilon
            )
            if projection.usable:
                fraction_frozen = projection.fraction_frozen
                reduced = solve_fista(
                    system,
                    z,
                    lower,
                    upper,
                    initial_pi=self._pi,
                    projector=projection,
                    max_iterations=self._fista_iterations,
                    tolerance=self._fista_tolerance,
                    check_window=self._check_window,
                    initial_lipschitz=lipschitz,
                )
                iterations += reduced.iterations
                # Full-space verification: certify the frozen coordinates.
                verified = solve_fista(
                    system,
                    z,
                    lower,
                    upper,
                    initial_pi=reduced.pi,
                    max_iterations=self._verify_iterations,
                    tolerance=self._fista_tolerance,
                    check_window=self._check_window,
                    initial_lipschitz=reduced.lipschitz,
                )
                iterations += verified.iterations
                descent = reduced.objective - verified.objective
                budget = 0.01 * self._parity_rtol * max(
                    abs(verified.objective), 1.0
                )
                if descent > budget:
                    # The active set was wrong for the new rates.  Descending
                    # on from here can settle on a different stationary point
                    # than the cold solve (see "Convergence parity"), so
                    # solve cold instead.
                    fallback = True
                else:
                    result = verified
            else:
                warm = False
        if result is None:
            result = solve_fista(
                system,
                z,
                lower,
                upper,
                initial_pi=system.initial_pi(),
                max_iterations=self._fista_iterations,
                tolerance=self._fista_tolerance,
                check_window=self._check_window,
                initial_lipschitz=1.0,
            )
            iterations += result.iterations

        pi = result.pi
        relaxed_objective = result.objective
        lipschitz = result.lipschitz

        # ---- Stage 2: alternation sweeps (refresh z, re-solve pi warm)
        # until the objective stops moving.
        previous = relaxed_objective
        sweeps = 0
        for _ in range(self._max_sweeps):
            z = system.optimal_z(pi)
            sweep = solve_fista(
                system,
                z,
                lower,
                upper,
                initial_pi=pi,
                max_iterations=self._fista_iterations,
                tolerance=self._fista_tolerance,
                check_window=self._check_window,
                initial_lipschitz=lipschitz,
            )
            sweeps += 1
            iterations += sweep.iterations
            pi = sweep.pi
            lipschitz = sweep.lipschitz
            if abs(previous - sweep.objective) <= self._alternation_tolerance * max(
                abs(sweep.objective), 1.0
            ):
                previous = sweep.objective
                break
            previous = sweep.objective

        # ---- Stage 3: integral rounding (largest-remainder apportionment)
        # and the pinned re-solve of the scheduling probabilities.
        cached_chunks = round_allocation(system, pi)
        pinned_sums = system.k_values - cached_chunks.astype(float)
        pinned = solve_fista(
            system,
            z,
            pinned_sums,
            pinned_sums,
            initial_pi=pi,
            max_iterations=self._fista_iterations,
            tolerance=self._fista_tolerance,
            check_window=self._check_window,
            initial_lipschitz=lipschitz,
        )
        iterations += pinned.iterations
        final_z = system.optimal_z(pinned.pi)
        objective = system.objective(pinned.pi, final_z)
        seconds = time.perf_counter() - start

        if commit:
            self._pi = pi
            self._z = z
            self._lipschitz = lipschitz

        report = ResolveReport(
            bin_index=bin_index,
            kind="warm" if warm else "cold",
            relaxed_objective=relaxed_objective,
            objective=objective,
            cached_chunks=cached_chunks,
            iterations=iterations,
            sweeps=sweeps,
            seconds=seconds,
            warm=warm,
            fallback=fallback,
            fraction_frozen=fraction_frozen,
            pinned_pi=pinned.pi,
        )
        should_build = (
            self._build_placements if build_placement is None else build_placement
        )
        if should_build:
            report.placement = build_placement_from_report(
                system, self._model, pinned.pi, final_z, report, bin_index
            )
        return report


def build_placement_from_report(
    system: VectorizedSystem,
    model: StorageSystemModel,
    pi: np.ndarray,
    z: np.ndarray,
    report: ResolveReport,
    bin_index: Optional[int],
) -> CachePlacement:
    """Assemble the :class:`CachePlacement` for a resolve's pinned iterate."""
    return build_placement(
        system,
        model,
        pi,
        z,
        time_bin=bin_index,
        cached_chunks=report.cached_chunks,
    )
