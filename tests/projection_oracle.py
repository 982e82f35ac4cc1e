"""The bisection projection onto the Prob-Pi polytope, kept as a test oracle.

The library projects with :class:`repro.core.vectorized.PolytopeProjection`,
which finds the coupling multiplier ``nu`` and the per-file shifts by
safeguarded Newton steps on their breakpoints.  This module keeps the
projection it replaced: ``nu`` by bisection to a relative bracket of 1e-11
(with the bracket doubled up from ``[0, 2]``), then the per-file shifts of
``pi + nu`` by sorting each file's breakpoints and interpolating inside the
bracketing linear piece.  ``tests/core/test_projection_kernel.py`` checks the
kernel against it.

Tests import it as ``projection_oracle`` (``tests/`` is on ``sys.path``
through the root ``conftest.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.vectorized import VectorizedSystem
from repro.exceptions import InfeasibleError


def piecewise_clip_sum_inverse(
    values: np.ndarray,
    segment_counts: np.ndarray,
    targets: np.ndarray,
) -> np.ndarray:
    """Solve ``sum_j clip(v_j + theta_s, 0, 1) = t_s`` for every segment.

    ``values`` holds the concatenated per-segment coordinates (segments are
    contiguous, with ``segment_counts[s]`` entries each) and ``targets`` the
    per-segment right-hand sides, pre-clamped to ``[0, n_s]``.  The map
    ``theta -> sum_j clip(v_j + theta)`` is piecewise linear and
    non-decreasing with breakpoints at ``-v_j`` (coordinate leaves the lower
    clip) and ``1 - v_j`` (coordinate saturates), so the exact root is found
    by sorting the ``2 n_s`` breakpoints, accumulating the function value at
    each one, and interpolating inside the bracketing linear piece -- no
    iterative bisection.  Everything is segmented: one ``lexsort`` and a few
    cumulative sums solve all segments at once.
    """
    num_segments = segment_counts.size
    total = values.size
    width = int(segment_counts[0]) if num_segments else 0
    if num_segments and np.all(segment_counts == width):
        # Uniform-width fast path (the common case: every file is stored on
        # the same number of nodes): one per-row argsort over a
        # (segments, 2*width) matrix instead of a global lexsort.
        value_rows = values.reshape(num_segments, width)
        row_breaks = np.concatenate([-value_rows, 1.0 - value_rows], axis=1)
        row_slopes = np.concatenate(
            [np.ones((num_segments, width)), -np.ones((num_segments, width))], axis=1
        )
        order = np.argsort(row_breaks, axis=1)
        row_breaks = np.take_along_axis(row_breaks, order, axis=1)
        row_slopes = np.take_along_axis(row_slopes, order, axis=1)
        active = np.cumsum(row_slopes, axis=1)
        f = np.zeros_like(row_breaks)
        f[:, 1:] = np.cumsum(
            active[:, :-1] * (row_breaks[:, 1:] - row_breaks[:, :-1]), axis=1
        )
        position = np.sum(f < targets[:, None], axis=1)
        rows = np.arange(num_segments)
        high = np.clip(position, 0, 2 * width - 1)
        low = np.clip(position - 1, 0, 2 * width - 1)
        f_high = f[rows, high]
        f_low = f[rows, low]
        e_high = row_breaks[rows, high]
        e_low = row_breaks[rows, low]
        denominator = f_high - f_low
        safe = denominator > 0.0
        theta = np.where(
            safe,
            e_high
            - (f_high - targets) * (e_high - e_low) / np.where(safe, denominator, 1.0),
            e_high,
        )
        at_start = position <= 0
        past_end = position >= 2 * width
        theta[at_start] = row_breaks[at_start, 0]
        theta[past_end] = row_breaks[past_end, -1]
        return theta

    segments = np.repeat(np.arange(num_segments), segment_counts)

    breakpoints = np.concatenate([-values, 1.0 - values])
    slopes = np.concatenate([np.ones(total), -np.ones(total)])
    break_segments = np.concatenate([segments, segments])
    order = np.lexsort((breakpoints, break_segments))
    breakpoints = breakpoints[order]
    slopes = slopes[order]

    counts = segment_counts * 2
    ends = np.cumsum(counts)
    offsets = ends - counts

    # Active-coordinate count after each breakpoint (segmented cumsum).
    cumulative_slope = np.cumsum(slopes)
    slope_base = np.concatenate([[0.0], cumulative_slope[ends[:-1] - 1]])
    active = cumulative_slope - np.repeat(slope_base, counts)

    # Function value at each breakpoint: f[m] = f[m-1] + active[m-1] * gap.
    increments = np.zeros_like(breakpoints)
    increments[1:] = active[:-1] * (breakpoints[1:] - breakpoints[:-1])
    increments[offsets] = 0.0
    cumulative_f = np.cumsum(increments)
    f_base = np.concatenate([[0.0], cumulative_f[ends[:-1] - 1]])
    f = cumulative_f - np.repeat(f_base, counts)

    # Segmented searchsorted: shift every segment's (non-decreasing) f range
    # into its own disjoint band so one flat searchsorted finds, for every
    # segment, the first breakpoint with f >= t.
    band = float(segment_counts.max()) + 2.0
    bands = np.arange(num_segments) * band
    flat_f = f + np.repeat(bands, counts)
    insert = np.searchsorted(flat_f, targets + bands, side="left")
    position = insert - offsets

    high = np.clip(insert, 0, breakpoints.size - 1)
    low = np.clip(insert - 1, 0, breakpoints.size - 1)
    denominator = f[high] - f[low]
    safe = denominator > 0.0
    theta = np.where(
        safe,
        breakpoints[high]
        - (f[high] - targets)
        * (breakpoints[high] - breakpoints[low])
        / np.where(safe, denominator, 1.0),
        breakpoints[high],
    )
    at_start = position <= 0
    past_end = position >= counts
    theta[at_start] = breakpoints[offsets[at_start]]
    theta[past_end] = breakpoints[ends[past_end] - 1]
    return theta


def bisection_project(
    system: VectorizedSystem,
    pi: np.ndarray,
    lower_sums: np.ndarray,
    upper_sums: np.ndarray,
    fixed_mask: Optional[np.ndarray] = None,
    fixed_values: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Euclidean projection onto the Prob-Pi polytope by bisection on ``nu``.

    The single coupling constraint ``sum pi >= T`` is dualised with a
    multiplier ``nu >= 0``: the optimal point is the per-file projection of
    ``pi + nu``, and ``nu`` is found by bisection.  The projected total for
    a trial ``nu`` has the closed form
    ``sum_i clamp(sum_j clip(pi_{i,j} + nu, 0, 1), K_L,i, K_U,i)``; the
    per-file multipliers are solved once, for the final ``nu``, by
    :func:`piecewise_clip_sum_inverse`.
    """
    lower_sums = np.asarray(lower_sums, dtype=float)
    upper_sums = np.asarray(upper_sums, dtype=float)
    if np.any(lower_sums > upper_sums + 1e-12):
        raise InfeasibleError("per-file lower sum exceeds upper sum")

    if fixed_mask is None:
        fixed_mask = np.zeros(system.num_pairs, dtype=bool)
        any_fixed = False
    else:
        any_fixed = bool(np.any(fixed_mask))
    if fixed_values is None:
        fixed_values = np.zeros(system.num_pairs, dtype=float)

    target_total = system.required_total()
    work = np.empty_like(pi)

    def clipped(values: np.ndarray) -> np.ndarray:
        result = np.clip(values, 0.0, 1.0)
        if any_fixed:
            result[fixed_mask] = fixed_values[fixed_mask]
        return result

    def projected_total(nu: float) -> float:
        # Buffer-reusing fast path: this runs ~40 times per projection
        # inside the bisection, so it avoids fresh allocations.
        np.add(pi, nu, out=work)
        np.clip(work, 0.0, 1.0, out=work)
        if any_fixed:
            work[fixed_mask] = fixed_values[fixed_mask]
        sums = system.file_sums(work)
        np.clip(sums, lower_sums, upper_sums, out=sums)
        return float(sums.sum())

    def per_file_projection(values: np.ndarray) -> np.ndarray:
        projected = clipped(values)
        sums = system.file_sums(projected)
        below = sums < lower_sums - 1e-12
        above = sums > upper_sums + 1e-12
        needs_shift = below | above
        if not np.any(needs_shift):
            return projected
        # Per-file shift theta_i with x = clip(v + theta_i); the shift
        # only moves the non-fixed coordinates, so fixed contributions
        # are subtracted from the targets and excluded from the solve.
        free_mask = needs_shift[system.pair_file]
        targets = np.where(below, lower_sums, upper_sums)
        if any_fixed:
            free_mask &= ~fixed_mask
            fixed_contribution = system.file_sums(
                np.where(fixed_mask, fixed_values, 0.0)
            )
            targets = targets - fixed_contribution
        free_counts = np.bincount(
            system.pair_file[free_mask], minlength=system.num_files
        )
        needs_shift &= free_counts > 0
        free_mask &= needs_shift[system.pair_file]
        violating = np.flatnonzero(needs_shift)
        if violating.size == 0:
            return projected
        segment_counts = free_counts[violating]
        segment_targets = np.clip(
            targets[violating], 0.0, segment_counts.astype(float)
        )
        theta = piecewise_clip_sum_inverse(
            values[free_mask], segment_counts, segment_targets
        )
        shift = np.zeros(system.num_files)
        shift[violating] = theta
        return clipped(values + shift[system.pair_file])

    if target_total <= projected_total(0.0) + 1e-9:
        return per_file_projection(pi)

    # The cache-capacity constraint is violated: raise all coordinates by
    # a common multiplier nu until the projected total reaches T.
    max_total = float(np.minimum(upper_sums, system.n_values).sum())
    if target_total > max_total + 1e-9:
        raise InfeasibleError(
            "cache capacity constraint cannot be met: requires total "
            f"{target_total:.3f} but the per-file bounds only allow "
            f"{max_total:.3f}"
        )
    nu_low, nu_high = 0.0, 2.0
    for _ in range(40):
        if projected_total(nu_high) >= target_total - 1e-9:
            break
        nu_high *= 2.0
    while nu_high - nu_low > 1e-11 * max(1.0, nu_high):
        nu_mid = 0.5 * (nu_low + nu_high)
        if projected_total(nu_mid) < target_total:
            nu_low = nu_mid
        else:
            nu_high = nu_mid
    return per_file_projection(pi + nu_high)
