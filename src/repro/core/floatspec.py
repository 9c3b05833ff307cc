"""IEEE-754-style floating point decomposition and minifloat specifications.

Every block format in this repository starts from the same primitive: splitting
a real value into ``sign``, ``exponent`` and ``mantissa`` fields.  This module
provides that primitive plus a small :class:`FloatSpec` description of the
narrow floating-point formats (FP16, BF16, FP8, FP4) the paper uses as
baselines and conversion sources.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.serializable import SerializableConfig

__all__ = [
    "FloatSpec",
    "FP32",
    "FP16",
    "BF16",
    "FP8_E4M3",
    "FP8_E5M2",
    "FP4_E2M1",
    "decompose_float",
    "exponent_of",
    "compose_float",
    "ZERO_EXPONENT",
]


@dataclass(frozen=True)
class FloatSpec(SerializableConfig):
    """Description of a sign/exponent/mantissa floating point format.

    Parameters
    ----------
    name:
        Human readable name, e.g. ``"FP16"``.  Cosmetic only — two specs
        with the same exponent/mantissa widths describe the same format and
        compare equal regardless of how they are labelled.
    exponent_bits:
        Width of the exponent field.
    mantissa_bits:
        Number of *stored* (explicit) mantissa bits; the leading one is
        implicit for normal numbers.
    """

    name: str = field(compare=False)
    exponent_bits: int
    mantissa_bits: int

    @property
    def bias(self) -> int:
        """IEEE-style exponent bias, ``2**(exponent_bits - 1) - 1``."""
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def max_exponent(self) -> int:
        """Largest unbiased exponent of a normal number."""
        return (1 << self.exponent_bits) - 2 - self.bias

    @property
    def min_exponent(self) -> int:
        """Smallest unbiased exponent of a normal number."""
        return 1 - self.bias

    @property
    def max_value(self) -> float:
        """Largest finite representable magnitude."""
        frac = 2.0 - 2.0 ** (-self.mantissa_bits)
        return frac * 2.0 ** self.max_exponent

    @property
    def min_normal(self) -> float:
        """Smallest positive normal magnitude."""
        return 2.0 ** self.min_exponent

    @property
    def min_subnormal(self) -> float:
        """Smallest positive subnormal magnitude."""
        return 2.0 ** (self.min_exponent - self.mantissa_bits)

    @property
    def total_bits(self) -> int:
        """Total storage width including the sign bit."""
        return 1 + self.exponent_bits + self.mantissa_bits

    def representable_positive_values(self) -> np.ndarray:
        """Enumerate all finite positive representable values (small formats only).

        Useful for exhaustive tests of FP4/FP8 rounding.  The array is sorted
        ascending and excludes zero.
        """
        if self.total_bits > 10:
            raise ValueError(
                f"representable_positive_values is only supported for narrow formats, "
                f"got {self.total_bits}-bit {self.name}"
            )
        values = []
        for biased_exp in range(0, (1 << self.exponent_bits) - 1):
            for mant in range(1 << self.mantissa_bits):
                if biased_exp == 0:
                    value = (mant / (1 << self.mantissa_bits)) * 2.0 ** self.min_exponent
                else:
                    value = (1.0 + mant / (1 << self.mantissa_bits)) * 2.0 ** (
                        biased_exp - self.bias
                    )
                if value > 0:
                    values.append(value)
        return np.array(sorted(set(values)))


FP32 = FloatSpec("FP32", exponent_bits=8, mantissa_bits=23)
FP16 = FloatSpec("FP16", exponent_bits=5, mantissa_bits=10)
BF16 = FloatSpec("BF16", exponent_bits=8, mantissa_bits=7)
FP8_E4M3 = FloatSpec("FP8_E4M3", exponent_bits=4, mantissa_bits=3)
FP8_E5M2 = FloatSpec("FP8_E5M2", exponent_bits=5, mantissa_bits=2)
FP4_E2M1 = FloatSpec("FP4_E2M1", exponent_bits=2, mantissa_bits=1)


#: Exponent :func:`exponent_of` gives an exact zero by default: FP32's zero
#: (biased exponent field 0).  Only elements below ``2**-127`` rank under it.
ZERO_EXPONENT = -127


def exponent_of(x: np.ndarray, zero_exponent: int = ZERO_EXPONENT) -> np.ndarray:
    """Return the unbiased binary exponent ``floor(log2(|x|))`` of each element.

    Zeros are assigned ``zero_exponent`` so they never win a "max exponent"
    reduction inside a block of FP32-range values; the value mirrors how a
    hardware encoder treats an all-zero lane (exponent field of zero after
    biasing).

    Parameters
    ----------
    x:
        Array of finite floats.
    zero_exponent:
        Exponent assigned to exact zeros.
    """
    x = np.asarray(x, dtype=np.float64)
    mant, exp = np.frexp(np.abs(x))
    # frexp returns x = mant * 2**exp with mant in [0.5, 1); IEEE exponent of
    # the normalised 1.m form is exp - 1.
    exponents = exp.astype(np.int64) - 1
    exponents = np.where(x == 0.0, np.int64(zero_exponent), exponents)
    return exponents


def decompose_float(x: np.ndarray) -> tuple:
    """Split ``x`` into ``(sign, exponent, mantissa)`` with ``x = sign * mantissa * 2**exponent``.

    ``sign`` is +/-1 (``+1`` for zero), ``mantissa`` lies in ``[1, 2)`` for
    non-zero values and is ``0`` for zeros, ``exponent`` is the unbiased
    binary exponent.
    """
    x = np.asarray(x, dtype=np.float64)
    sign = np.where(np.signbit(x), -1.0, 1.0)
    exponent = exponent_of(x)
    mantissa = np.where(x == 0.0, 0.0, np.abs(x) / np.exp2(exponent.astype(np.float64)))
    return sign, exponent, mantissa


def compose_float(sign: np.ndarray, exponent: np.ndarray, mantissa: np.ndarray) -> np.ndarray:
    """Inverse of :func:`decompose_float`."""
    sign = np.asarray(sign, dtype=np.float64)
    exponent = np.asarray(exponent, dtype=np.float64)
    mantissa = np.asarray(mantissa, dtype=np.float64)
    return sign * mantissa * np.exp2(exponent)
