"""Dense matrices over GF(2^8).

The Reed-Solomon codec and the MDS verification utilities need a small
linear-algebra toolbox over GF(2^8): matrix multiplication, Gauss-Jordan
inversion, rank computation, and construction of Vandermonde / Cauchy
generator matrices.  Matrices are stored as ``numpy.uint8`` arrays.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.erasure.galois import GF256
from repro.exceptions import GaloisFieldError


def _eliminate(working: np.ndarray, pivot_row: int, col: int) -> bool:
    """One Gauss-Jordan step on ``working`` in place, as table row operations.

    Moves the first row at or below ``pivot_row`` with a non-zero entry in
    ``col`` up to ``pivot_row``, scales it so that entry is 1, and clears
    ``col`` from every other row.  Returns ``False`` (leaving ``working``
    untouched) when no such row exists.
    """
    candidates = np.flatnonzero(working[pivot_row:, col])
    if candidates.size == 0:
        return False
    found = pivot_row + int(candidates[0])
    if found != pivot_row:
        working[[pivot_row, found]] = working[[found, pivot_row]]
    scale = GF256.MUL_TABLE[GF256.inverse(int(working[pivot_row, col]))]
    pivot = scale[working[pivot_row]]
    working[pivot_row] = pivot
    factors = working[:, col].copy()
    factors[pivot_row] = 0
    working ^= GF256.MUL_TABLE[np.ix_(factors, pivot)]
    return True


class GFMatrix:
    """A matrix with entries in GF(2^8).

    Parameters
    ----------
    data:
        A 2-D array-like of integers in ``[0, 255]``.
    """

    def __init__(self, data: Sequence[Sequence[int]] | np.ndarray):
        array = np.asarray(data, dtype=np.int64)
        if array.ndim != 2:
            raise GaloisFieldError("GFMatrix requires a 2-D array")
        if array.size and (array.min() < 0 or array.max() > 255):
            raise GaloisFieldError("GFMatrix entries must lie in [0, 255]")
        self._data = array.astype(np.uint8)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """Return the underlying ``uint8`` array (a copy)."""
        return self._data.copy()

    @property
    def shape(self) -> tuple[int, int]:
        """Return the matrix shape ``(rows, cols)``."""
        return tuple(self._data.shape)  # type: ignore[return-value]

    @property
    def rows(self) -> int:
        """Number of rows."""
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        """Number of columns."""
        return self._data.shape[1]

    def __getitem__(self, index) -> int | np.ndarray:
        return self._data[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GFMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.all(self._data == other._data))

    def __hash__(self) -> int:  # pragma: no cover - matrices used as values
        return hash(self._data.tobytes())

    def __repr__(self) -> str:
        return f"GFMatrix({self._data.tolist()!r})"

    def copy(self) -> "GFMatrix":
        """Return a deep copy of this matrix."""
        return GFMatrix(self._data.copy())

    def row(self, index: int) -> List[int]:
        """Return row ``index`` as a list of ints."""
        return [int(value) for value in self._data[index]]

    def submatrix(self, row_indices: Sequence[int]) -> "GFMatrix":
        """Return the matrix restricted to the given rows (in order)."""
        return GFMatrix(self._data[list(row_indices), :])

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def identity(cls, size: int) -> "GFMatrix":
        """Return the ``size`` x ``size`` identity matrix."""
        return cls(np.eye(size, dtype=np.uint8))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GFMatrix":
        """Return a ``rows`` x ``cols`` zero matrix."""
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def vandermonde(cls, rows: int, cols: int) -> "GFMatrix":
        """Return a ``rows`` x ``cols`` Vandermonde matrix over GF(2^8).

        Row ``i`` is ``[1, x_i, x_i^2, ...]`` with ``x_i = i + 1`` so that all
        evaluation points are distinct and non-zero.  Any ``cols`` rows of
        such a matrix are linearly independent provided ``rows <= 255``.
        """
        if rows > 255:
            raise GaloisFieldError(
                "a GF(2^8) Vandermonde matrix supports at most 255 rows"
            )
        matrix = np.zeros((rows, cols), dtype=np.uint8)
        for row_index in range(rows):
            point = row_index + 1
            for col_index in range(cols):
                matrix[row_index, col_index] = GF256.power(point, col_index)
        return cls(matrix)

    @classmethod
    def cauchy(cls, rows: int, cols: int) -> "GFMatrix":
        """Return a ``rows`` x ``cols`` Cauchy matrix over GF(2^8).

        Entry ``(i, j)`` is ``1 / (x_i + y_j)`` with disjoint point sets
        ``x_i = i`` and ``y_j = rows + j``.  Every square sub-matrix of a
        Cauchy matrix is invertible, which makes it a convenient generator
        for MDS codes.
        """
        if rows + cols > 256:
            raise GaloisFieldError(
                "a GF(2^8) Cauchy matrix requires rows + cols <= 256"
            )
        matrix = np.zeros((rows, cols), dtype=np.uint8)
        for row_index in range(rows):
            for col_index in range(cols):
                denominator = GF256.add(row_index, rows + col_index)
                matrix[row_index, col_index] = GF256.inverse(denominator)
        return cls(matrix)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------

    def multiply(self, other: "GFMatrix") -> "GFMatrix":
        """Return the matrix product ``self @ other`` over GF(2^8)."""
        if self.cols != other.rows:
            raise GaloisFieldError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        return GFMatrix(GF256.matmul(self._data, other._data))

    def multiply_vector(self, vector: Sequence[int]) -> List[int]:
        """Return ``self @ vector`` where ``vector`` has ``cols`` entries."""
        if len(vector) != self.cols:
            raise GaloisFieldError(
                f"vector of length {len(vector)} incompatible with {self.shape}"
            )
        return [GF256.dot(self.row(i), vector) for i in range(self.rows)]

    def inverse(self) -> "GFMatrix":
        """Return the matrix inverse using Gauss-Jordan elimination.

        Raises
        ------
        GaloisFieldError
            If the matrix is not square or is singular.
        """
        if self.rows != self.cols:
            raise GaloisFieldError("only square matrices can be inverted")
        size = self.rows
        augmented = np.concatenate([self._data, np.eye(size, dtype=np.uint8)], axis=1)
        for pivot_col in range(size):
            if not _eliminate(augmented, pivot_col, pivot_col):
                raise GaloisFieldError("matrix is singular and cannot be inverted")
        return GFMatrix(augmented[:, size:])

    def rank(self) -> int:
        """Return the rank of the matrix over GF(2^8)."""
        working = self._data.copy()
        rank = 0
        for col in range(self.cols):
            if rank == self.rows:
                break
            if _eliminate(working, rank, col):
                rank += 1
        return rank

    def is_invertible(self) -> bool:
        """Return ``True`` when the matrix is square and full-rank."""
        return self.rows == self.cols and self.rank() == self.rows

    def every_k_rows_invertible(self, k: int) -> bool:
        """Check that every choice of ``k`` rows forms an invertible matrix.

        This is the defining property of the generator matrix of an MDS
        code.  The check is combinatorial and intended for the small code
        parameters used throughout the paper (n + k well below 20).
        """
        from itertools import combinations

        if self.cols != k:
            raise GaloisFieldError(
                f"matrix has {self.cols} columns; expected exactly k={k}"
            )
        for rows in combinations(range(self.rows), k):
            if self.submatrix(rows).rank() != k:
                return False
        return True
