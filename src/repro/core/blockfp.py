"""Vanilla Block Floating Point (BFP) quantisation.

A BFP block shares a single exponent, chosen as the *maximum* element exponent
of the block (Fig. 2(c) of the paper).  Every mantissa is right-shifted until
it is expressed relative to that exponent and truncated/rounded to ``m`` bits,
after which a block of floating point values becomes

    ``2**E_max * [(-1)**s_0 * m'_0, ..., (-1)**s_{N-1} * m'_{N-1}]``

The quantisation step of every element is therefore ``2**(E_max - (m - 1))``:
large values keep most of their precision, but small and moderate values are
shifted far to the right and lose theirs — the weakness BBFP addresses.

The paper denotes a BFP format with an ``m``-bit mantissa as ``BFPm``
(e.g. BFP4, BFP6, BFP8) and fixes the shared exponent width at 5 bits.

:func:`quantize_bfp` builds the hardware-faithful :class:`BFPTensor`;
fake quantisation, :func:`bfp_quantize_dequantize`, runs the fused
:class:`~repro.core.block_kernel.BlockKernel` pass instead, which shares the
encoder's per-block step rule and returns bit-identical values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.block_kernel import BlockKernel
from repro.core.blocking import BlockLayout, from_blocks, to_blocks
from repro.core.exponent_selection import ExponentStrategy, select_shared_exponent
from repro.core.floatspec import exponent_of
from repro.core.rounding import RoundingMode, round_magnitudes
from repro.core.serializable import SerializableConfig

__all__ = ["BFPConfig", "BFPTensor", "quantize_bfp", "bfp_quantize_dequantize"]


@dataclass(frozen=True)
class BFPConfig(SerializableConfig):
    """Configuration of a BFP format.

    Parameters
    ----------
    mantissa_bits:
        Magnitude bits per element (the paper's ``m`` in BFPm); the sign is
        stored separately, so BFP4 stores a 4-bit magnitude plus 1 sign bit.
    block_size:
        Number of elements sharing one exponent (32 in the paper).
    exponent_bits:
        Width of the shared exponent field (fixed to 5 in the paper).
    exponent_strategy:
        Shared-exponent rule; vanilla BFP uses ``MAX``.  Exposed so ablations
        can study non-standard alignments with a plain BFP mantissa.
    rounding:
        Mantissa rounding mode; round-to-nearest by default (the assumption
        behind the Eq. 8 error model).  Truncation and stochastic rounding
        are available for the encoder-cost ablations.
    """

    mantissa_bits: int
    block_size: int = 32
    exponent_bits: int = 5
    exponent_strategy: ExponentStrategy = ExponentStrategy.MAX
    rounding: RoundingMode = RoundingMode.NEAREST

    def __post_init__(self):
        if self.mantissa_bits < 1:
            raise ValueError(f"mantissa_bits must be >= 1, got {self.mantissa_bits}")
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if self.exponent_bits < 2:
            raise ValueError(f"exponent_bits must be >= 2, got {self.exponent_bits}")

    @property
    def name(self) -> str:
        return f"BFP{self.mantissa_bits}"

    @property
    def max_mantissa_level(self) -> int:
        """Largest stored magnitude code, ``2**m - 1``."""
        return (1 << self.mantissa_bits) - 1

    @property
    def exponent_min(self) -> int:
        return -(1 << (self.exponent_bits - 1)) + 1

    @property
    def exponent_max(self) -> int:
        return 1 << (self.exponent_bits - 1)

    def equivalent_bit_width(self) -> float:
        """Average storage bits per element (Table I "Equivalent Bit-Width").

        ``m`` magnitude bits + 1 sign bit + the shared exponent amortised over
        the block.
        """
        return self.mantissa_bits + 1 + self.exponent_bits / self.block_size

    def memory_efficiency(self, reference_bits: float = 16.0) -> float:
        """Memory density improvement relative to FP16 (Table I "Mem Eff.")."""
        return reference_bits / self.equivalent_bit_width()

    def mantissa_range(self) -> tuple:
        """Smallest/largest representable mantissa magnitude relative to ``2**E_shared``.

        For BFP4 this is ``(0.125, 1.875)`` matching Fig. 2(b).
        """
        step = 2.0 ** (-(self.mantissa_bits - 1))
        return step, self.max_mantissa_level * step


@dataclass
class BFPTensor:
    """A tensor quantised to BFP, stored in hardware-faithful fields.

    Attributes
    ----------
    config:
        The :class:`BFPConfig` used for quantisation.
    signs:
        ``+/-1`` per element, blocked shape ``(..., num_blocks, block_size)``.
    mantissas:
        Integer magnitude codes in ``[0, 2**m - 1]``, same shape as ``signs``.
    shared_exponents:
        Integer shared exponent per block, shape ``(..., num_blocks)``.
    layout:
        Blocking metadata used to restore the original tensor shape.
    """

    config: BFPConfig
    signs: np.ndarray
    mantissas: np.ndarray
    shared_exponents: np.ndarray
    layout: BlockLayout = field(repr=False)

    @property
    def block_values(self) -> np.ndarray:
        """Real values of each block element (still in blocked layout)."""
        step, _ = BlockKernel(self.config).steps(self.shared_exponents[..., None])
        return self.signs * self.mantissas.astype(np.float64) * step

    def dequantize(self) -> np.ndarray:
        """Reconstruct a dense float tensor in the original shape."""
        return from_blocks(self.block_values, self.layout)

    def memory_bits(self) -> int:
        """Total storage footprint in bits (mantissas + signs + shared exponents)."""
        elements = int(np.prod(self.mantissas.shape))
        blocks = int(np.prod(self.shared_exponents.shape))
        return elements * (self.config.mantissa_bits + 1) + blocks * self.config.exponent_bits


def quantize_bfp(x: np.ndarray, config: BFPConfig, axis: int = -1,
                 rng: np.random.Generator = None) -> BFPTensor:
    """Quantise ``x`` to BFP along ``axis``.

    Round-to-nearest is used for the mantissa by default, matching the error
    model of Section III-B (Eq. 8 assumes round-to-nearest); other modes can
    be selected through ``config.rounding`` (``rng`` only matters for
    stochastic rounding).
    """
    blocks, layout = to_blocks(x, config.block_size, axis=axis)
    exponents = exponent_of(blocks)
    shared = select_shared_exponent(
        exponents,
        config.exponent_strategy,
        config.mantissa_bits,
        overlap_bits=0,
        exponent_min=config.exponent_min,
        exponent_max=config.exponent_max,
    )
    step, _ = BlockKernel(config).steps(shared[..., None])
    signs = np.where(blocks < 0, -1.0, 1.0)
    codes = round_magnitudes(np.abs(blocks) / step, config.rounding, rng=rng)
    codes = np.clip(codes, 0, config.max_mantissa_level).astype(np.int64)
    return BFPTensor(
        config=config,
        signs=signs,
        mantissas=codes,
        shared_exponents=shared,
        layout=layout,
    )


def bfp_quantize_dequantize(x: np.ndarray, config: BFPConfig, axis: int = -1,
                            rng: np.random.Generator = None) -> np.ndarray:
    """Fake quantisation for accuracy studies: ``quantize_bfp(...).dequantize()``'s values.

    Runs the fused :class:`~repro.core.block_kernel.BlockKernel` pass, which
    skips the hardware fields; the values are bit-identical.
    """
    return BlockKernel(config).quantize_dequantize(x, axis=axis, rng=rng)
