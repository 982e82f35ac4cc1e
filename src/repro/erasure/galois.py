"""Arithmetic in the Galois field GF(2^8).

Reed-Solomon codes used by Sprout operate over GF(2^8), the field with 256
elements represented as bytes.  Addition is XOR; multiplication is polynomial
multiplication modulo the primitive polynomial ``x^8 + x^4 + x^3 + x^2 + 1``
(0x11D), the same polynomial used by the jerasure library that backs Ceph's
erasure-coded pools.

Logarithm / anti-logarithm tables are built once at import time, and from
them a 256 x 256 ``uint8`` product table (64 KiB), ``MUL_TABLE[a, b] = a * b``.
Scalar operations are table lookups.  The byte-vector helpers multiply a whole
chunk by a coefficient ``c`` with a single ``np.take`` through row ``c`` of the
product table, which is what makes chunk encoding and decoding fast.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro.exceptions import GaloisFieldError

#: Primitive polynomial for GF(2^8): x^8 + x^4 + x^3 + x^2 + 1.
PRIMITIVE_POLYNOMIAL = 0x11D

#: Order of the field (number of elements).
FIELD_SIZE = 256

#: Multiplicative generator used to build the log/exp tables.
GENERATOR = 2


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build exponentiation and logarithm tables for GF(2^8).

    Returns
    -------
    tuple of numpy.ndarray
        ``(exp_table, log_table)`` where ``exp_table`` has 512 entries (the
        second half duplicates the first so that products of logs never need
        an explicit modulo) and ``log_table`` has 256 entries with
        ``log_table[0]`` unused.
    """
    exp_table = np.zeros(2 * FIELD_SIZE, dtype=np.uint8)
    log_table = np.zeros(FIELD_SIZE, dtype=np.int32)
    value = 1
    for power in range(FIELD_SIZE - 1):
        exp_table[power] = value
        log_table[value] = power
        value <<= 1
        if value & 0x100:
            value ^= PRIMITIVE_POLYNOMIAL
    for power in range(FIELD_SIZE - 1, 2 * FIELD_SIZE):
        exp_table[power] = exp_table[power - (FIELD_SIZE - 1)]
    return exp_table, log_table


_EXP_TABLE, _LOG_TABLE = _build_tables()


def _build_mul_table() -> np.ndarray:
    """Return the 256 x 256 table whose entry ``[a, b]`` is ``a * b``.

    Row and column 0 stay zero; the rest is ``exp[log a + log b]``, which the
    512-entry exponent table covers without a modulo.
    """
    logs = _LOG_TABLE[1:]
    table = np.zeros((FIELD_SIZE, FIELD_SIZE), dtype=np.uint8)
    table[1:, 1:] = _EXP_TABLE[logs[:, None] + logs[None, :]]
    table.flags.writeable = False
    return table


_MUL_TABLE = _build_mul_table()


def _field_array(values, name: str) -> np.ndarray:
    """Return ``values`` as a ``uint8`` array of field elements.

    ``uint8`` input is returned as is.  Any other input is range-checked
    first, so that e.g. 259 raises instead of wrapping around to 3.
    """
    array = np.asarray(values)
    if array.dtype == np.uint8:
        return array
    if array.size and (array.min() < 0 or array.max() >= FIELD_SIZE):
        raise GaloisFieldError(f"{name} entries must lie in [0, 255]")
    return array.astype(np.uint8)


class GF256:
    """Static helpers implementing arithmetic in GF(2^8).

    All methods are classmethods / staticmethods; the class exists purely as
    a namespace so that callers write ``GF256.multiply(a, b)``.
    """

    #: Exponentiation table (generator powers), exposed for vectorised code.
    EXP_TABLE = _EXP_TABLE

    #: Logarithm table, exposed for vectorised code.
    LOG_TABLE = _LOG_TABLE

    #: Product table: ``MUL_TABLE[a, b]`` is ``a * b``; row ``c`` maps every
    #: byte to its product with ``c``.
    MUL_TABLE = _MUL_TABLE

    order = FIELD_SIZE

    @staticmethod
    def _check_element(value: int) -> int:
        if not 0 <= value < FIELD_SIZE:
            raise GaloisFieldError(
                f"value {value!r} is not an element of GF(256)"
            )
        return int(value)

    @staticmethod
    def add(a: int, b: int) -> int:
        """Return ``a + b`` in GF(2^8) (bitwise XOR)."""
        return GF256._check_element(a) ^ GF256._check_element(b)

    @staticmethod
    def subtract(a: int, b: int) -> int:
        """Return ``a - b``; identical to addition in characteristic 2."""
        return GF256.add(a, b)

    @staticmethod
    def multiply(a: int, b: int) -> int:
        """Return the product ``a * b`` in GF(2^8)."""
        return int(_MUL_TABLE[GF256._check_element(a), GF256._check_element(b)])

    @staticmethod
    def divide(a: int, b: int) -> int:
        """Return ``a / b`` in GF(2^8).

        Raises
        ------
        GaloisFieldError
            If ``b`` is zero.
        """
        a = GF256._check_element(a)
        b = GF256._check_element(b)
        if b == 0:
            raise GaloisFieldError("division by zero in GF(256)")
        if a == 0:
            return 0
        log_diff = int(_LOG_TABLE[a]) - int(_LOG_TABLE[b])
        return int(_EXP_TABLE[log_diff % (FIELD_SIZE - 1)])

    @staticmethod
    def inverse(a: int) -> int:
        """Return the multiplicative inverse of ``a``.

        Raises
        ------
        GaloisFieldError
            If ``a`` is zero (zero has no inverse).
        """
        a = GF256._check_element(a)
        if a == 0:
            raise GaloisFieldError("zero has no multiplicative inverse")
        return int(_EXP_TABLE[(FIELD_SIZE - 1) - int(_LOG_TABLE[a])])

    @staticmethod
    def power(base: int, exponent: int) -> int:
        """Return ``base ** exponent`` in GF(2^8).

        Negative exponents are supported for non-zero bases.
        """
        base = GF256._check_element(base)
        if base == 0:
            if exponent == 0:
                return 1
            if exponent < 0:
                raise GaloisFieldError("zero cannot be raised to a negative power")
            return 0
        log_value = (int(_LOG_TABLE[base]) * exponent) % (FIELD_SIZE - 1)
        return int(_EXP_TABLE[log_value])

    @staticmethod
    def dot(coefficients: Sequence[int], values: Sequence[int]) -> int:
        """Return the GF(2^8) inner product of two equal-length sequences."""
        if len(coefficients) != len(values):
            raise GaloisFieldError(
                "dot product requires sequences of equal length, got "
                f"{len(coefficients)} and {len(values)}"
            )
        accumulator = 0
        for coefficient, value in zip(coefficients, values):
            accumulator ^= GF256.multiply(coefficient, value)
        return accumulator

    # ------------------------------------------------------------------
    # Vectorised helpers operating on numpy uint8 arrays
    # ------------------------------------------------------------------

    @staticmethod
    def multiply_scalar_vector(scalar: int, vector: np.ndarray) -> np.ndarray:
        """Multiply every byte of ``vector`` by ``scalar`` in GF(2^8)."""
        scalar = GF256._check_element(scalar)
        return np.take(_MUL_TABLE[scalar], _field_array(vector, "vector"))

    @staticmethod
    def add_vectors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Return the element-wise GF(2^8) sum (XOR) of two byte arrays."""
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        if a.shape != b.shape:
            raise GaloisFieldError(
                f"cannot add vectors of shapes {a.shape} and {b.shape}"
            )
        return np.bitwise_xor(a, b)

    @staticmethod
    def matmul(matrix: np.ndarray, data: np.ndarray) -> np.ndarray:
        """Multiply a GF(2^8) ``matrix`` (rows x cols) by ``data`` (cols x width).

        Each output row is accumulated in place: a ``0`` coefficient is
        skipped, a ``1`` (the identity rows of a systematic generator) XORs
        its data row in directly, and any other coefficient ``c`` XORs in
        ``np.take(MUL_TABLE[c], data_row)``.

        Parameters
        ----------
        matrix:
            Coefficient matrix with entries in GF(2^8), shape ``(rows, cols)``.
        data:
            Byte matrix whose rows are data chunks, shape ``(cols, width)``.

        Returns
        -------
        numpy.ndarray
            Byte matrix of shape ``(rows, width)`` holding the coded chunks.

        Raises
        ------
        GaloisFieldError
            On a shape mismatch, or when a non-``uint8`` input has an entry
            outside ``[0, 255]``.
        """
        matrix = _field_array(matrix, "matrix")
        data = _field_array(data, "data")
        if matrix.ndim != 2 or data.ndim != 2:
            raise GaloisFieldError("matmul expects two 2-D arrays")
        if matrix.shape[1] != data.shape[0]:
            raise GaloisFieldError(
                f"dimension mismatch: matrix is {matrix.shape}, data is {data.shape}"
            )
        result = np.zeros((matrix.shape[0], data.shape[1]), dtype=np.uint8)
        for accumulator, coefficients in zip(result, matrix.tolist()):
            for coefficient, source in zip(coefficients, data):
                if coefficient == 1:
                    accumulator ^= source
                elif coefficient:
                    accumulator ^= np.take(_MUL_TABLE[coefficient], source)
        return result

    @staticmethod
    def elements() -> Iterable[int]:
        """Iterate over all 256 field elements."""
        return range(FIELD_SIZE)


def polynomial_evaluate(coefficients: Sequence[int], x: int) -> int:
    """Evaluate a polynomial with GF(2^8) ``coefficients`` at point ``x``.

    Coefficients are ordered from the constant term upwards, i.e.
    ``coefficients[i]`` multiplies ``x ** i``.  Horner's rule is used.
    """
    result = 0
    for coefficient in reversed(list(coefficients)):
        result = GF256.add(GF256.multiply(result, x), coefficient)
    return result


def vandermonde_row(x: int, length: int) -> List[int]:
    """Return the Vandermonde row ``[1, x, x^2, ..., x^(length-1)]``."""
    return [GF256.power(x, exponent) for exponent in range(length)]
