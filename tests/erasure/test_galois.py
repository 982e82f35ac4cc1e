"""Tests for GF(2^8) arithmetic."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.galois import (
    GF256,
    polynomial_evaluate,
    vandermonde_row,
)
from repro.exceptions import GaloisFieldError

elements = st.integers(min_value=0, max_value=255)
nonzero_elements = st.integers(min_value=1, max_value=255)


class TestBasicOperations:
    def test_addition_is_xor(self):
        assert GF256.add(0b1010, 0b0110) == 0b1100

    def test_addition_identity(self):
        assert GF256.add(57, 0) == 57

    def test_subtraction_equals_addition(self):
        assert GF256.subtract(200, 77) == GF256.add(200, 77)

    def test_multiplication_by_zero(self):
        assert GF256.multiply(0, 123) == 0
        assert GF256.multiply(123, 0) == 0

    def test_multiplication_by_one(self):
        for value in (1, 17, 255):
            assert GF256.multiply(value, 1) == value

    def test_known_product(self):
        # 2 * 128 wraps through the primitive polynomial 0x11D.
        assert GF256.multiply(2, 128) == (0x100 ^ 0x11D)

    def test_division_by_zero_raises(self):
        with pytest.raises(GaloisFieldError):
            GF256.divide(5, 0)

    def test_inverse_of_zero_raises(self):
        with pytest.raises(GaloisFieldError):
            GF256.inverse(0)

    def test_out_of_range_rejected(self):
        with pytest.raises(GaloisFieldError):
            GF256.add(256, 1)
        with pytest.raises(GaloisFieldError):
            GF256.multiply(-1, 1)

    def test_power_zero_exponent(self):
        assert GF256.power(37, 0) == 1
        assert GF256.power(0, 0) == 1

    def test_power_negative_exponent(self):
        value = 91
        assert GF256.multiply(GF256.power(value, -1), value) == 1

    def test_power_of_zero_negative_raises(self):
        with pytest.raises(GaloisFieldError):
            GF256.power(0, -1)

    def test_dot_product_length_mismatch(self):
        with pytest.raises(GaloisFieldError):
            GF256.dot([1, 2], [3])

    def test_dot_product_value(self):
        # 1*5 + 2*6 + 3*7 in GF(256)
        expected = GF256.multiply(1, 5) ^ GF256.multiply(2, 6) ^ GF256.multiply(3, 7)
        assert GF256.dot([1, 2, 3], [5, 6, 7]) == expected


class TestFieldAxioms:
    @given(elements, elements)
    def test_addition_commutes(self, a, b):
        assert GF256.add(a, b) == GF256.add(b, a)

    @given(elements, elements)
    def test_multiplication_commutes(self, a, b):
        assert GF256.multiply(a, b) == GF256.multiply(b, a)

    @given(elements, elements, elements)
    def test_multiplication_associates(self, a, b, c):
        left = GF256.multiply(GF256.multiply(a, b), c)
        right = GF256.multiply(a, GF256.multiply(b, c))
        assert left == right

    @given(elements, elements, elements)
    def test_distributive_law(self, a, b, c):
        left = GF256.multiply(a, GF256.add(b, c))
        right = GF256.add(GF256.multiply(a, b), GF256.multiply(a, c))
        assert left == right

    @given(elements)
    def test_additive_inverse_is_self(self, a):
        assert GF256.add(a, a) == 0

    @given(nonzero_elements)
    def test_multiplicative_inverse(self, a):
        assert GF256.multiply(a, GF256.inverse(a)) == 1

    @given(nonzero_elements, nonzero_elements)
    def test_division_inverts_multiplication(self, a, b):
        product = GF256.multiply(a, b)
        assert GF256.divide(product, b) == a

    @given(nonzero_elements, st.integers(min_value=0, max_value=20))
    def test_power_matches_repeated_multiplication(self, base, exponent):
        expected = 1
        for _ in range(exponent):
            expected = GF256.multiply(expected, base)
        assert GF256.power(base, exponent) == expected


class TestVectorised:
    def test_scalar_vector_multiply_matches_scalar(self, rng):
        vector = rng.integers(0, 256, size=64, dtype=np.uint8)
        scalar = 173
        result = GF256.multiply_scalar_vector(scalar, vector)
        expected = [GF256.multiply(scalar, int(v)) for v in vector]
        assert result.tolist() == expected

    def test_scalar_zero_gives_zero_vector(self, rng):
        vector = rng.integers(0, 256, size=16, dtype=np.uint8)
        assert not GF256.multiply_scalar_vector(0, vector).any()

    def test_add_vectors_shape_mismatch(self):
        with pytest.raises(GaloisFieldError):
            GF256.add_vectors(np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8))

    def test_matmul_matches_elementwise(self, rng):
        matrix = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)
        data = rng.integers(0, 256, size=(4, 10), dtype=np.uint8)
        result = GF256.matmul(matrix, data)
        for i in range(3):
            for col in range(10):
                expected = 0
                for j in range(4):
                    expected ^= GF256.multiply(int(matrix[i, j]), int(data[j, col]))
                assert result[i, col] == expected

    def test_matmul_dimension_mismatch(self):
        with pytest.raises(GaloisFieldError):
            GF256.matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((4, 5), dtype=np.uint8))

    def test_matmul_rejects_out_of_range_coefficient(self):
        # 259 used to wrap to 3 and return 3 * 5 = 15.
        with pytest.raises(GaloisFieldError):
            GF256.matmul(np.array([[259]]), np.array([[5]], dtype=np.uint8))
        with pytest.raises(GaloisFieldError):
            GF256.matmul(np.array([[-1]]), np.array([[5]], dtype=np.uint8))

    def test_matmul_rejects_out_of_range_data(self):
        # 300 used to be read as 44.
        with pytest.raises(GaloisFieldError):
            GF256.matmul(np.array([[1]], dtype=np.uint8), np.array([[300]]))

    def test_scalar_vector_rejects_out_of_range_entry(self):
        with pytest.raises(GaloisFieldError):
            GF256.multiply_scalar_vector(7, np.array([1, 300]))

    def test_in_range_integer_input_accepted(self):
        result = GF256.matmul(np.array([[3]]), np.array([[5]]))
        assert result.dtype == np.uint8
        assert result.tolist() == [[GF256.multiply(3, 5)]]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matmul_matches_scalar_oracle(self, data):
        rows = data.draw(st.integers(0, 4), label="rows")
        cols = data.draw(st.integers(0, 5), label="cols")
        width = data.draw(st.sampled_from([0, 1, 2, 7, 33]), label="width")
        coefficients = st.one_of(st.sampled_from([0, 1]), elements)
        matrix = np.array(
            data.draw(st.lists(coefficients, min_size=rows * cols, max_size=rows * cols)),
            dtype=np.uint8,
        ).reshape(rows, cols)
        chunks = np.frombuffer(
            data.draw(st.binary(min_size=cols * width, max_size=cols * width)),
            dtype=np.uint8,
        ).reshape(cols, width)
        expected = np.zeros((rows, width), dtype=np.uint8)
        for i in range(rows):
            for col in range(width):
                accumulator = 0
                for j in range(cols):
                    accumulator ^= GF256.multiply(int(matrix[i, j]), int(chunks[j, col]))
                expected[i, col] = accumulator
        result = GF256.matmul(matrix, chunks)
        assert result.dtype == np.uint8
        np.testing.assert_array_equal(result, expected)

    def test_product_table_matches_shift_and_add(self):
        # GF256.multiply reads the same table, so check all of it against
        # carry-less multiplication reduced by the primitive polynomial.
        def shift_and_add(a, b):
            product = 0
            while b:
                if b & 1:
                    product ^= a
                a <<= 1
                if a & 0x100:
                    a ^= 0x11D
                b >>= 1
            return product

        expected = [[shift_and_add(a, b) for b in range(256)] for a in range(256)]
        assert GF256.MUL_TABLE.tolist() == expected


class TestPolynomials:
    def test_polynomial_at_zero_is_constant(self):
        assert polynomial_evaluate([7, 3, 9], 0) == 7

    @given(st.lists(elements, min_size=1, max_size=6), elements)
    @settings(max_examples=50)
    def test_horner_matches_direct_evaluation(self, coefficients, x):
        direct = 0
        for power, coefficient in enumerate(coefficients):
            direct ^= GF256.multiply(coefficient, GF256.power(x, power)) if x or power == 0 else 0
        # For x == 0 only the constant term contributes.
        if x == 0:
            direct = coefficients[0]
        assert polynomial_evaluate(coefficients, x) == direct

    def test_vandermonde_row(self):
        row = vandermonde_row(3, 4)
        assert row == [1, 3, GF256.multiply(3, 3), GF256.power(3, 3)]
