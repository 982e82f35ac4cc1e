"""Property tests of the breakpoint-Newton Prob-Pi projection.

:class:`repro.core.vectorized.PolytopeProjection` finds the coupling
multiplier and the per-file shifts by safeguarded Newton steps.  These
properties check it against the bisection projection it replaced (kept in
``tests/projection_oracle.py``) on random systems with mixed file widths,
random per-file bounds (some pinned, ``L = U``), random pinned coordinates,
capacities from 0 to the total chunk count and start points inside and
outside the box.  Besides agreement they check feasibility and the KKT form
``x = clip(v + theta_i, 0, 1)`` with ``theta_i = clamp(nu, a_i, b_i)``,
``nu >= 0``, directly on the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from projection_oracle import bisection_project

from repro.control.resolve import ActiveSetProjection
from repro.core.model import FileSpec, StorageSystemModel
from repro.core.vectorized import PolytopeProjection, VectorizedSystem
from repro.exceptions import InfeasibleError, OptimizationError
from repro.queueing.distributions import ExponentialService

AGREEMENT = 1e-9
TOLERANCE = 1e-9


def random_system(rng: np.random.Generator, capacity_fraction: float) -> VectorizedSystem:
    """A system whose files are stored on 1 to 6 of 7 nodes (mixed widths)."""
    num_nodes = 7
    files = []
    for index in range(int(rng.integers(1, 9))):
        n = int(rng.integers(1, num_nodes))
        files.append(
            FileSpec(
                file_id=f"file-{index}",
                n=n,
                k=int(rng.integers(1, n + 1)),
                placement=[int(node) for node in rng.choice(num_nodes, n, replace=False)],
                arrival_rate=0.01,
                chunk_size=1,
            )
        )
    total_chunks = sum(spec.k for spec in files)
    services = [ExponentialService(1.0) for _ in range(num_nodes)]
    # Cubed, so that small caches, where the capacity constraint binds,
    # are drawn as often as the rest of the range.
    capacity = int(round(capacity_fraction**3 * total_chunks))
    return VectorizedSystem(StorageSystemModel(services, files, capacity))


@dataclass
class Case:
    system: VectorizedSystem
    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    fixed_mask: Optional[np.ndarray]
    fixed_values: Optional[np.ndarray]


def random_case(seed: int, capacity_fraction: float, pinned_share: float, spread: float) -> Case:
    """Bounds and pinned values consistent with one point of the box.

    The per-file bounds bracket the file sums of an anchor point (exactly,
    ``L = U``, for some files), and pinned coordinates take the anchor's
    values, so the pinned totals never contradict the file bounds.  Only
    the capacity can make a case infeasible.
    """
    rng = np.random.default_rng(seed)
    system = random_system(rng, capacity_fraction)
    anchor = rng.random(system.num_pairs)
    anchor[rng.random(system.num_pairs) < 0.3] = 0.0
    anchor[rng.random(system.num_pairs) < 0.3] = 1.0
    sums = system.file_sums(anchor)
    widths = rng.random((2, system.num_files)) * system.n_values
    widths[:, rng.random(system.num_files) < 0.3] = 0.0
    lower = np.maximum(sums - widths[0], 0.0)
    upper = sums + widths[1]
    fixed_mask = fixed_values = None
    if pinned_share > 0.0:
        fixed_mask = rng.random(system.num_pairs) < pinned_share
        fixed_values = np.where(fixed_mask, anchor, 0.0)
    # Start points: around the box at the given spread, so both interior
    # points and points far outside it occur.
    point = 0.5 + spread * rng.standard_normal(system.num_pairs)
    return Case(system, point, lower, upper, fixed_mask, fixed_values)


def max_total(case: Case) -> float:
    """Largest total the bounds allow, pinned coordinates included."""
    system = case.system
    if case.fixed_mask is None:
        pinned = np.zeros(system.num_files)
        free = system.n_values
    else:
        pinned = system.file_sums(np.where(case.fixed_mask, case.fixed_values, 0.0))
        free = np.bincount(
            system.pair_file[~case.fixed_mask], minlength=system.num_files
        ).astype(float)
    return float(np.clip(case.upper, pinned, pinned + free).sum())


def assert_kkt(case: Case, x: np.ndarray) -> None:
    """Feasibility plus the closed form ``x = clip(v + clamp(nu, a_i, b_i))``."""
    system = case.system
    assert np.all(x >= 0.0) and np.all(x <= 1.0)
    free = np.ones(system.num_pairs, dtype=bool)
    if case.fixed_mask is not None:
        free = ~case.fixed_mask
        assert np.array_equal(x[case.fixed_mask], case.fixed_values[case.fixed_mask])
    sums = system.file_sums(x)
    assert np.all(sums >= case.lower - TOLERANCE)
    assert np.all(sums <= case.upper + TOLERANCE)
    target = system.required_total()
    assert x.sum() >= target - TOLERANCE

    # Per file, the interval of shifts theta with x_free = clip(v + theta).
    v = case.point
    inside = free & (x > 0.0) & (x < 1.0)
    at_one = free & (x >= 1.0)
    at_zero = free & (x <= 0.0)
    shift_low = np.full(system.num_files, -np.inf)
    shift_high = np.full(system.num_files, np.inf)
    np.maximum.at(shift_low, system.pair_file[inside], (x - v)[inside] - TOLERANCE)
    np.minimum.at(shift_high, system.pair_file[inside], (x - v)[inside] + TOLERANCE)
    np.maximum.at(shift_low, system.pair_file[at_one], (1.0 - v)[at_one] - TOLERANCE)
    np.minimum.at(shift_high, system.pair_file[at_zero], -v[at_zero] + TOLERANCE)
    assert np.all(shift_low <= shift_high)

    # One multiplier nu >= 0: files strictly inside their bounds shift by
    # nu, files at the upper bound by at most nu, at the lower by at least
    # nu; nu = 0 when the capacity constraint is slack.
    has_free = np.bincount(system.pair_file[free], minlength=system.num_files) > 0
    at_lower = sums <= case.lower + TOLERANCE
    at_upper = sums >= case.upper - TOLERANCE
    nu_low, nu_high = 0.0, np.inf
    if x.sum() > target + TOLERANCE:
        nu_high = TOLERANCE
    rising = has_free & ~at_lower
    falling = has_free & ~at_upper
    if np.any(rising):
        nu_low = max(nu_low, float(shift_low[rising].max()))
    if np.any(falling):
        nu_high = min(nu_high, float(shift_high[falling].min()))
    assert nu_low <= nu_high + TOLERANCE


@given(
    seed=st.integers(0, 2**32 - 1),
    capacity_fraction=st.floats(0.0, 1.0),
    pinned_share=st.sampled_from([0.0, 0.0, 0.2, 0.6]),
    spread=st.sampled_from([0.2, 1.0, 5.0]),
)
@settings(max_examples=300, deadline=None)
def test_kernel_matches_bisection_oracle(seed, capacity_fraction, pinned_share, spread):
    case = random_case(seed, capacity_fraction, pinned_share, spread)
    args = (case.point, case.lower, case.upper, case.fixed_mask, case.fixed_values)
    if case.system.required_total() > max_total(case) + 1e-9:
        with pytest.raises(InfeasibleError):
            case.system.project(*args)
        return
    x = case.system.project(*args)
    expected = bisection_project(case.system, *args)
    assert np.max(np.abs(x - expected), initial=0.0) <= AGREEMENT
    assert_kkt(case, x)


@given(
    seed=st.integers(0, 2**32 - 1),
    capacity_fraction=st.floats(0.0, 0.6),
    pinned_share=st.sampled_from([0.0, 0.3]),
)
@settings(max_examples=60, deadline=None)
def test_carried_start_does_not_change_the_projection(seed, capacity_fraction, pinned_share):
    # One projection object over a drifting sequence of points (as inside a
    # solve) agrees with a fresh projection of every point.
    case = random_case(seed, capacity_fraction, pinned_share, 1.0)
    system = case.system
    bounds = (case.lower, case.upper, case.fixed_mask, case.fixed_values)
    if system.required_total() > max_total(case) + 1e-9:
        return
    projection = PolytopeProjection(system, *bounds)
    rng = np.random.default_rng(seed)
    point = case.point
    for _ in range(6):
        point = point + 0.1 * rng.standard_normal(point.size)
        carried = projection(point)
        assert np.max(np.abs(carried - system.project(point, *bounds))) <= AGREEMENT
        assert_kkt(Case(system, point, *bounds), carried)


def test_infeasible_bounds_raise():
    case = random_case(3, 0.5, 0.0, 1.0)
    lower = case.upper + 1.0
    with pytest.raises(InfeasibleError):
        case.system.project(case.point, lower, case.upper)


def test_capacity_beyond_the_bounds_raises(small_model):
    system = VectorizedSystem(small_model.copy_with_cache_capacity(0))
    lower = np.zeros(system.num_files)
    upper = np.full(system.num_files, 1.0)  # caps the total at 6 < T = 18
    pinned = np.zeros(system.num_pairs, dtype=bool)
    pinned[:3] = True
    with pytest.raises(InfeasibleError):
        system.project(system.initial_pi(), lower, upper, pinned, np.ones(system.num_pairs))


def test_every_pair_pinned_returns_the_pinned_values(small_model):
    system = VectorizedSystem(small_model.copy_with_cache_capacity(18))
    values = np.where(np.arange(system.num_pairs) % 2 == 0, 1.0, 0.0)
    pinned = np.ones(system.num_pairs, dtype=bool)
    projected = system.project(
        np.zeros(system.num_pairs), np.zeros(system.num_files), system.k_values, pinned, values
    )
    assert np.array_equal(projected, values)


def test_nan_point_raises(small_model):
    system = VectorizedSystem(small_model)
    point = system.initial_pi()
    point[0] = np.nan
    with pytest.raises(OptimizationError):
        system.project(point, np.zeros(system.num_files), system.k_values)


@given(seed=st.integers(0, 2**32 - 1), epsilon=st.sampled_from([1e-9, 1e-3, 0.2]))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_active_set_projection_is_the_pinned_projection(paper_like_model, seed, epsilon):
    system = VectorizedSystem(paper_like_model)
    rng = np.random.default_rng(seed)
    lower = np.zeros(system.num_files)
    upper = system.k_values.copy()
    reference = system.project(
        system.initial_pi() + rng.standard_normal(system.num_pairs), lower, upper
    )
    projection = ActiveSetProjection(system, reference, epsilon=epsilon)
    if not projection.usable:
        return
    frozen = (reference <= epsilon) | (reference >= 1.0 - epsilon)
    fixed = np.where(frozen & (reference >= 0.5), 1.0, 0.0)
    point = reference + 0.3 * rng.standard_normal(system.num_pairs)
    expected = system.project(point, lower, upper, frozen, fixed)
    assert np.array_equal(projection(point), expected)
    oracle = bisection_project(system, point, lower, upper, frozen, fixed)
    assert np.max(np.abs(expected - oracle)) <= AGREEMENT
