"""Sampling node sets with prescribed inclusion probabilities.

Probabilistic scheduling requires drawing, for every file-``i`` request, a
set ``A_i`` of exactly ``k_i - d_i`` distinct storage nodes such that node
``j`` appears in the set with marginal probability ``pi_{i,j}``.  Such a
distribution over sets exists whenever ``sum_j pi_{i,j} = k_i - d_i`` and
``0 <= pi_{i,j} <= 1`` (this is the feasibility argument used in the paper's
Appendix B).  *Systematic sampling* realises those marginals exactly: lay
the probabilities end-to-end on a circle of circumference ``k - d`` and pick
the items hit by a uniformly-offset grid of unit spacing.

Two entry points expose the sampler:

* :func:`systematic_inclusion_sample` draws one set and returns a Python
  list -- the API used by the event-driven simulator's per-request path.
* :func:`batch_systematic_inclusion_sample` draws one set per *row* of a
  probability matrix in a single vectorised pass -- the hot path of the
  batched simulation engine, which samples all of a file's requests at once.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.kernels import systematic_sample_positions


def _validated_probs(probabilities: np.ndarray) -> np.ndarray:
    if np.any(probabilities < -1e-9) or np.any(probabilities > 1.0 + 1e-9):
        raise SimulationError("inclusion probabilities must lie in [0, 1]")
    return np.clip(probabilities, 0.0, 1.0)


def batch_systematic_inclusion_sample(
    probability_rows: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one inclusion set per row of ``probability_rows``, vectorised.

    Parameters
    ----------
    probability_rows:
        Array of shape ``(num_draws, num_keys)``; every row holds inclusion
        probabilities in ``[0, 1]`` summing (numerically) to the same
        integer ``size``.  A 1-D array is treated as a single row.
    rng:
        Numpy random generator.

    Returns
    -------
    ndarray of shape ``(num_draws, size)``
        Column positions (indices into each row) of the selected keys; the
        entries of each output row are distinct and key ``j`` appears in row
        ``r`` with probability ``probability_rows[r, j]``.

    Notes
    -----
    Each row is independently shuffled (removing the correlation structure
    systematic sampling imposes between adjacent keys) and sampled with its
    own uniform grid offset.  The per-row ``searchsorted`` is flattened into
    one global call by shifting row ``r``'s cumulative probabilities and
    grid by ``r * (size + 1)``: the gap of 1 between consecutive rows'
    ranges guarantees no grid point of one row can land in another row's
    cumulative range, even for a zero offset.
    """
    probs = np.asarray(probability_rows, dtype=float)
    squeeze = probs.ndim == 1
    if squeeze:
        probs = probs[None, :]
    if probs.ndim != 2:
        raise SimulationError("probability_rows must be 1-D or 2-D")
    probs = _validated_probs(probs)
    num_draws, num_keys = probs.shape
    totals = probs.sum(axis=1)
    size = int(round(float(totals[0]))) if num_draws else 0
    if num_draws and np.any(np.abs(totals - size) > 1e-6):
        raise SimulationError(
            "inclusion probabilities must sum to one common integer per row"
        )
    if size == 0 or num_draws == 0:
        return np.empty((num_draws, 0) if not squeeze else (0,), dtype=np.int64)

    # All randomness is drawn here, in the pre-kernel stream order (the
    # row-shuffle uniforms first, then the grid offsets), so seeded draws
    # are bit-equal to the old inline implementation.  The pure-array core
    # lives in :func:`repro.kernels.systematic_sample_positions`.
    order_uniforms = rng.random((num_draws, num_keys))
    grid_uniforms = rng.random((num_draws, 1))
    selected = systematic_sample_positions(probs, order_uniforms, grid_uniforms, size)
    if squeeze:
        return selected[0]
    return selected


def systematic_inclusion_sample_array(
    probabilities: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one set; returns the selected positions as an int array.

    Array-native single-draw variant of :func:`systematic_inclusion_sample`:
    no Python-list round-trips, used by the schedulers' hot path.  Includes
    the rare-tie completion: should floating-point ties ever collapse two
    grid points onto one key, the set is completed with the highest-
    probability unselected keys so its size is always exact.
    """
    probs = _validated_probs(np.asarray(probabilities, dtype=float))
    total = float(probs.sum())
    size = int(round(total))
    if size == 0:
        return np.empty(0, dtype=np.int64)
    if abs(total - size) > 1e-6:
        raise SimulationError(
            f"inclusion probabilities must sum to an integer, got {total:.6f}"
        )
    selected = np.unique(batch_systematic_inclusion_sample(probs, rng))
    if selected.size != size:
        # Extremely rare numerical tie; complete the set with the highest
        # remaining probabilities to preserve the set size.
        remaining_mask = np.ones(probs.size, dtype=bool)
        remaining_mask[selected] = False
        remaining = np.flatnonzero(remaining_mask)
        best = remaining[np.argsort(probs[remaining])[::-1][: size - selected.size]]
        selected = np.concatenate([selected, best])
    return selected


def systematic_inclusion_sample(
    keys: Sequence[int],
    probabilities: Sequence[float],
    rng: np.random.Generator,
) -> List[int]:
    """Draw a set with the given inclusion probabilities by systematic sampling.

    Parameters
    ----------
    keys:
        Identifiers (e.g. node ids) to sample from.
    probabilities:
        Inclusion probability for each key, in ``[0, 1]``; their sum must be
        (numerically) an integer -- the size of the returned set.
    rng:
        Numpy random generator.

    Returns
    -------
    list of int
        A set of ``round(sum(probabilities))`` distinct keys; key ``j`` is
        included with probability ``probabilities[j]``.
    """
    if len(keys) != len(probabilities):
        raise SimulationError("keys and probabilities must have equal length")
    positions = systematic_inclusion_sample_array(
        np.asarray(probabilities, dtype=float), rng
    )
    return [keys[int(position)] for position in positions]


def sample_node_set(
    probabilities: Dict[int, float],
    rng: np.random.Generator,
) -> List[int]:
    """Draw the storage-node set ``A_i`` for one request.

    ``probabilities`` maps node id to ``pi_{i,j}``; the returned set has
    ``round(sum pi)`` distinct nodes.
    """
    keys = list(probabilities.keys())
    values = np.fromiter(probabilities.values(), dtype=float, count=len(keys))
    positions = systematic_inclusion_sample_array(values, rng)
    return [keys[int(position)] for position in positions]


def empirical_inclusion_frequencies(
    probabilities: Dict[int, float],
    rng: np.random.Generator,
    draws: int = 10000,
) -> Dict[int, float]:
    """Monte-Carlo estimate of the realised inclusion frequencies.

    Used by the test-suite to verify that :func:`sample_node_set` (and the
    batched sampler it shares its core with) matches the requested
    marginals.  The draws are batched through
    :func:`batch_systematic_inclusion_sample`.
    """
    keys = list(probabilities.keys())
    values = np.fromiter(probabilities.values(), dtype=float, count=len(keys))
    rows = np.broadcast_to(values, (draws, values.size))
    selected = batch_systematic_inclusion_sample(rows, rng)
    counts = np.bincount(selected.ravel(), minlength=len(keys))
    return {key: counts[position] / draws for position, key in enumerate(keys)}


def split_request(
    k: int, cached_chunks: int, probabilities: Dict[int, float], rng: np.random.Generator
) -> Tuple[int, List[int]]:
    """Split a file request into cache hits and storage-node chunk requests.

    Returns
    -------
    tuple
        ``(chunks_from_cache, storage_nodes)`` where ``storage_nodes`` has
        ``k - cached_chunks`` distinct entries sampled from ``probabilities``.
    """
    if cached_chunks < 0 or cached_chunks > k:
        raise SimulationError(
            f"cached chunks {cached_chunks} outside [0, {k}]"
        )
    nodes = sample_node_set(probabilities, rng)
    expected = k - cached_chunks
    if len(nodes) != expected:
        raise SimulationError(
            f"scheduling probabilities produced {len(nodes)} nodes, "
            f"expected {expected}"
        )
    return cached_chunks, nodes
