"""Tests for the Reed-Solomon codec."""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.reed_solomon import CodedChunk, ReedSolomonCode
from repro.exceptions import ErasureCodeError, GaloisFieldError, InsufficientChunksError


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ErasureCodeError):
            ReedSolomonCode(n=3, k=0)
        with pytest.raises(ErasureCodeError):
            ReedSolomonCode(n=2, k=3)
        with pytest.raises(ErasureCodeError):
            ReedSolomonCode(n=7, k=4, max_extension=-1)
        with pytest.raises(ErasureCodeError):
            ReedSolomonCode(n=7, k=4, construction="bogus")

    def test_default_extension_is_k(self):
        code = ReedSolomonCode(n=7, k=4)
        assert code.max_extension == 4

    def test_generator_is_systematic(self):
        code = ReedSolomonCode(n=6, k=3)
        generator = code.generator
        assert np.array_equal(generator.data[:3, :], np.eye(3, dtype=np.uint8))

    def test_redundancy_factor(self):
        assert ReedSolomonCode(n=6, k=4).redundancy_factor == pytest.approx(1.5)

    def test_generator_row_out_of_range(self):
        code = ReedSolomonCode(n=6, k=3)
        with pytest.raises(ErasureCodeError):
            code.generator_row(20)

    def test_vandermonde_construction_also_mds(self):
        code = ReedSolomonCode(n=6, k=3, construction="vandermonde")
        assert code.generator.every_k_rows_invertible(3)


class TestEncodeDecode:
    def test_round_trip_all_chunks(self):
        code = ReedSolomonCode(n=7, k=4)
        payload = bytes(range(256)) * 4
        chunks = code.encode(payload)
        assert len(chunks) == 7
        assert code.decode(chunks, original_size=len(payload)) == payload

    def test_decode_from_every_k_subset(self):
        code = ReedSolomonCode(n=6, k=3)
        payload = b"functional caching for erasure-coded storage!"
        chunks = code.encode(payload)
        for subset in itertools.combinations(chunks, 3):
            assert code.decode(subset, original_size=len(payload)) == payload

    def test_decode_with_extension_chunks(self):
        code = ReedSolomonCode(n=6, k=4)
        payload = b"0123456789abcdef" * 5
        storage = code.encode(payload)
        extras = code.extension_chunks(payload, 2)
        mixture = [storage[5], storage[0], extras[0], extras[1]]
        assert code.decode(mixture, original_size=len(payload)) == payload

    def test_insufficient_chunks_raises(self):
        code = ReedSolomonCode(n=5, k=3)
        chunks = code.encode(b"hello world")
        with pytest.raises(InsufficientChunksError):
            code.decode(chunks[:2])

    def test_duplicate_chunks_do_not_count_twice(self):
        code = ReedSolomonCode(n=5, k=3)
        chunks = code.encode(b"hello world")
        with pytest.raises(InsufficientChunksError):
            code.decode([chunks[0], chunks[0], chunks[0]])

    def test_mismatched_chunk_sizes_rejected(self):
        code = ReedSolomonCode(n=5, k=3)
        chunks = code.encode(b"hello world hello")
        bad = CodedChunk(index=chunks[1].index, data=np.zeros(2, dtype=np.uint8))
        with pytest.raises(ErasureCodeError):
            code.decode([chunks[0], bad, chunks[2]])

    def test_unknown_chunk_index_rejected(self):
        code = ReedSolomonCode(n=5, k=3, max_extension=1)
        chunks = code.encode(b"hello world!")
        alien = CodedChunk(index=40, data=chunks[0].data)
        with pytest.raises(ErasureCodeError):
            code.decode([alien, chunks[1], chunks[2]])
        # A negative index must not alias the last generator row, whether it
        # comes alone or next to the real chunk of that row.
        code = ReedSolomonCode(n=7, k=4)
        chunks = code.encode(b"functional caching", indices=range(11))
        negative = CodedChunk(index=-1, data=chunks[10].data)
        with pytest.raises(ErasureCodeError):
            code.decode([negative, *chunks[:3]])
        with pytest.raises(ErasureCodeError):
            code.decode([negative, chunks[10], *chunks[:2]])
        with pytest.raises(ErasureCodeError):
            code.encode(b"functional caching", indices=[-1])

    def test_empty_payload(self):
        code = ReedSolomonCode(n=5, k=3)
        chunks = code.encode(b"")
        assert code.decode(chunks, original_size=0) == b""

    def test_encode_matrix_requires_k_rows(self):
        code = ReedSolomonCode(n=5, k=3)
        with pytest.raises(ErasureCodeError):
            code.encode_matrix(np.zeros((2, 4), dtype=np.uint8))

    def test_encode_matrix_rejects_out_of_range_bytes(self):
        code = ReedSolomonCode(n=5, k=3)
        with pytest.raises(GaloisFieldError):
            code.encode_matrix(np.array([[1, 2], [3, 4], [5, 300]]))

    def test_extension_count_bounds(self):
        code = ReedSolomonCode(n=5, k=3)
        with pytest.raises(ErasureCodeError):
            code.extension_chunks(b"data", 4)

    def test_repair_chunk_is_bit_exact(self):
        code = ReedSolomonCode(n=6, k=4)
        payload = b"repair me please, any subset works" * 3
        chunks = code.encode(payload)
        repaired = code.repair_chunk(chunks[1:5], target_index=0)
        assert repaired.index == 0
        assert np.array_equal(repaired.data, chunks[0].data)

    @given(
        payload=st.binary(min_size=1, max_size=200),
        params=st.sampled_from([(4, 2), (5, 3), (6, 4), (7, 4), (9, 6)]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_k_subset_round_trip(self, payload, params, seed):
        n, k = params
        code = ReedSolomonCode(n=n, k=k)
        chunks = code.encode(payload)
        rng = np.random.default_rng(seed)
        subset_indices = rng.choice(n, size=k, replace=False)
        subset = [chunks[int(index)] for index in subset_indices]
        assert code.decode(subset, original_size=len(payload)) == payload

    def test_split_file_pads_to_multiple_of_k(self):
        code = ReedSolomonCode(n=5, k=3)
        matrix = code.split_file(b"abcd")
        assert matrix.shape[0] == 3
        assert matrix.shape[1] == 2  # ceil(4 / 3)


class TestPinnedEncoding:
    """Every coded chunk is pinned by digest, so any codec rewrite must stay
    bit-equal to the log/exp implementation these digests were taken from."""

    @pytest.mark.parametrize(
        "n, k, construction, digest",
        [
            (7, 4, "cauchy", "2378e890dc62538a940c34709c29a951067a99ab554bef13623dabb814c4731c"),
            (5, 3, "vandermonde", "0d63d969c1ff89250aa9fd95aae088062e83012bb2c3a1ed52a4ec3b1b2e857e"),
        ],
    )
    def test_encoded_chunks_digest(self, n, k, construction, digest):
        payload = np.random.default_rng(2016).bytes(10 * 1024)
        code = ReedSolomonCode(n, k, construction=construction)
        sha = hashlib.sha256()
        for chunk in code.encode(payload, indices=range(n + k)):
            sha.update(chunk.data.tobytes())
        assert sha.hexdigest() == digest
