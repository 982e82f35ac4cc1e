"""Systematic Reed-Solomon codes over GF(2^8).

The Sprout paper stores every file with an ``(n_i, k_i)`` maximum-distance-
separable (MDS) code and constructs functional cache chunks by drawing extra
rows from an ``(n_i + k_i, k_i)`` *master* code (Section III).  This module
provides the codec used for both purposes:

* split a file into ``k`` equal-size data chunks,
* encode them into ``n`` coded chunks using a systematic generator matrix
  whose every ``k`` x ``k`` sub-matrix is invertible (Cauchy construction,
  with Vandermonde available as an alternative),
* decode the original file from *any* ``k`` of the coded chunks,
* produce additional coded chunks ("extension rows") on demand, which is
  exactly what functional caching needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.erasure.galois import GF256
from repro.erasure.matrix import GFMatrix
from repro.exceptions import ErasureCodeError, InsufficientChunksError


@dataclass(frozen=True)
class CodedChunk:
    """A single coded chunk of a file.

    Attributes
    ----------
    index:
        Global row index of the chunk in the (extended) generator matrix.
        Indices ``0..k-1`` are the systematic (data) chunks, ``k..n-1`` the
        parity chunks stored on the remaining storage nodes, and indices
        ``>= n`` are extension chunks (used as functional cache content).
    data:
        The chunk payload as a ``numpy.uint8`` array.
    """

    index: int
    data: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.uint8))

    @property
    def size(self) -> int:
        """Chunk payload size in bytes."""
        return int(self.data.size)


class ReedSolomonCode:
    """A systematic ``(n, k)`` Reed-Solomon code over GF(2^8).

    Parameters
    ----------
    n:
        Total number of stored coded chunks.
    k:
        Number of data chunks; any ``k`` coded chunks reconstruct the file.
    max_extension:
        Number of additional rows kept in the master generator beyond ``n``.
        The paper constructs an ``(n + k, k)`` master code so that up to
        ``k`` functional chunks can live in the cache; ``max_extension``
        therefore defaults to ``k``.
    construction:
        Either ``"cauchy"`` (default) or ``"vandermonde"``.
    """

    def __init__(
        self,
        n: int,
        k: int,
        max_extension: Optional[int] = None,
        construction: str = "cauchy",
    ):
        if k <= 0:
            raise ErasureCodeError(f"k must be positive, got {k}")
        if n < k:
            raise ErasureCodeError(f"n ({n}) must be at least k ({k})")
        if max_extension is None:
            max_extension = k
        if max_extension < 0:
            raise ErasureCodeError("max_extension must be non-negative")
        total_rows = n + max_extension
        if construction == "cauchy":
            if total_rows + k > 256:
                raise ErasureCodeError(
                    "Cauchy construction requires n + max_extension + k <= 256"
                )
        elif construction == "vandermonde":
            if total_rows > 255:
                raise ErasureCodeError(
                    "Vandermonde construction requires n + max_extension <= 255"
                )
        else:
            raise ErasureCodeError(
                f"unknown construction {construction!r}; "
                "expected 'cauchy' or 'vandermonde'"
            )
        self._n = n
        self._k = k
        self._max_extension = max_extension
        self._construction = construction
        self._generator = self._build_systematic_generator(total_rows)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_systematic_generator(self, total_rows: int) -> GFMatrix:
        """Build a systematic generator whose top ``k`` rows are identity."""
        k = self._k
        if self._construction == "cauchy":
            # A Cauchy matrix has every square sub-matrix invertible, so the
            # stacked [I; C] matrix has every k x k sub-matrix invertible as
            # long as the Cauchy block rows are pairwise independent with any
            # identity rows -- which holds because any mixed selection forms a
            # (generalised) Cauchy sub-matrix.
            parity_rows = total_rows - k
            if parity_rows > 0:
                cauchy_block = GFMatrix.cauchy(parity_rows, k).data
            else:
                cauchy_block = np.zeros((0, k), dtype=np.uint8)
            generator = np.concatenate(
                [np.eye(k, dtype=np.uint8), cauchy_block], axis=0
            )
            return GFMatrix(generator)
        # Vandermonde: build a (total_rows x k) Vandermonde matrix, then apply
        # column operations so that the top k x k block becomes the identity.
        # Column operations preserve the "every k rows invertible" property.
        vandermonde = GFMatrix.vandermonde(total_rows, k)
        top_block = GFMatrix(vandermonde.data[:k, :])
        transform = top_block.inverse()
        return vandermonde.multiply(transform)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of coded chunks stored on storage nodes."""
        return self._n

    @property
    def k(self) -> int:
        """Number of data chunks required for reconstruction."""
        return self._k

    @property
    def max_extension(self) -> int:
        """Maximum number of extension (cache) rows available."""
        return self._max_extension

    @property
    def construction(self) -> str:
        """Name of the generator construction used."""
        return self._construction

    @property
    def generator(self) -> GFMatrix:
        """The full ``(n + max_extension) x k`` systematic generator matrix."""
        return self._generator.copy()

    def generator_row(self, index: int) -> List[int]:
        """Return the generator row for chunk ``index``."""
        self._check_index(index)
        return self._generator.row(index)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._n + self._max_extension:
            raise ErasureCodeError(
                f"chunk index {index} outside [0, {self._n + self._max_extension})"
            )

    @property
    def redundancy_factor(self) -> float:
        """Storage overhead ``n / k`` of the base code."""
        return self._n / self._k

    def __repr__(self) -> str:
        return (
            f"ReedSolomonCode(n={self._n}, k={self._k}, "
            f"max_extension={self._max_extension}, "
            f"construction={self._construction!r})"
        )

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------

    def split_file(self, payload: bytes) -> np.ndarray:
        """Split ``payload`` into a ``k`` x ``chunk_size`` byte matrix.

        The payload is zero-padded so that its length is a multiple of ``k``.
        """
        data = np.frombuffer(payload, dtype=np.uint8)
        chunk_size = -(-data.size // self._k) if data.size else 1
        padded = np.zeros(self._k * chunk_size, dtype=np.uint8)
        padded[: data.size] = data
        return padded.reshape(self._k, chunk_size)

    def encode(self, payload: bytes, indices: Optional[Sequence[int]] = None) -> List[CodedChunk]:
        """Encode ``payload`` into coded chunks.

        Parameters
        ----------
        payload:
            Raw file contents.
        indices:
            Which chunk indices to produce.  Defaults to ``range(n)`` (the
            chunks stored on the storage nodes).
        """
        data_matrix = self.split_file(payload)
        return self.encode_matrix(data_matrix, indices)

    def encode_matrix(
        self, data_matrix: np.ndarray, indices: Optional[Sequence[int]] = None
    ) -> List[CodedChunk]:
        """Encode a pre-split ``k`` x ``chunk_size`` data matrix."""
        data_matrix = np.asarray(data_matrix)
        if data_matrix.ndim != 2 or data_matrix.shape[0] != self._k:
            raise ErasureCodeError(
                f"data matrix must have exactly k={self._k} rows, "
                f"got shape {data_matrix.shape}"
            )
        indices = list(range(self._n) if indices is None else indices)
        for index in indices:
            self._check_index(index)
        coded = GF256.matmul(self._generator[indices], data_matrix)
        return [CodedChunk(index=index, data=row) for index, row in zip(indices, coded)]

    def extension_chunks(self, payload: bytes, count: int) -> List[CodedChunk]:
        """Return ``count`` extension chunks (indices ``n .. n+count-1``).

        These are the functional cache chunks: together with the ``n`` stored
        chunks they form an ``(n + count, k)`` MDS code.
        """
        if count < 0 or count > self._max_extension:
            raise ErasureCodeError(
                f"count must lie in [0, {self._max_extension}], got {count}"
            )
        return self.encode(payload, indices=range(self._n, self._n + count))

    def decode(self, chunks: Sequence[CodedChunk], original_size: Optional[int] = None) -> bytes:
        """Reconstruct the file payload from any ``k`` distinct coded chunks.

        Parameters
        ----------
        chunks:
            At least ``k`` coded chunks with distinct indices.  Extra chunks
            are ignored (the first ``k`` distinct ones are used).
        original_size:
            If given, the returned payload is truncated to this many bytes
            (removing the zero padding added by :meth:`split_file`).
        """
        distinct: Dict[int, CodedChunk] = {}
        for chunk in chunks:
            distinct.setdefault(chunk.index, chunk)
        if len(distinct) < self._k:
            raise InsufficientChunksError(
                f"need at least k={self._k} distinct chunks, got {len(distinct)}"
            )
        selected = sorted(distinct.values(), key=lambda c: c.index)[: self._k]
        indices = [chunk.index for chunk in selected]
        for index in indices:
            self._check_index(index)
        widths = {chunk.size for chunk in selected}
        if len(widths) != 1:
            raise ErasureCodeError(
                f"chunks have inconsistent sizes: {sorted(widths)}"
            )
        sub_generator = self._generator.submatrix(indices)
        decode_matrix = sub_generator.inverse()
        stacked = np.stack([chunk.data for chunk in selected], axis=0)
        data_matrix = GF256.matmul(decode_matrix.data, stacked)
        payload = data_matrix.reshape(-1).tobytes()
        if original_size is not None:
            payload = payload[:original_size]
        return payload

    def repair_chunk(self, chunks: Sequence[CodedChunk], target_index: int) -> CodedChunk:
        """Regenerate the chunk at ``target_index`` from any ``k`` chunks.

        This mirrors functional repair: the regenerated chunk is bit-exact
        with the chunk originally produced for that index.
        """
        payload = self.decode(chunks)
        regenerated = self.encode(payload, indices=[target_index])
        return regenerated[0]
