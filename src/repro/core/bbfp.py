"""Bidirectional Block Floating Point (BBFP) quantisation — the paper's core contribution.

BBFP (Section III) extends BFP with a per-element 1-bit *flag* and ``o``
*overlap* bits.  Instead of aligning every element to the block's maximum
exponent, the shared exponent is chosen as

    ``E_shared = max(E) - (m - o)``                      (Eq. 9)

Elements whose own exponent exceeds ``E_shared`` set ``flag = 1`` and are
stored as a *high* mantissa: their quantisation step is scaled up by
``f = 2**(m - o)`` (Eq. 6).  All other elements set ``flag = 0`` and are
stored as a *low* mantissa whose step is the fine one, ``2**(E_shared - (m-1))``.

Consequences (Fig. 2(b)):

* the representable mantissa range grows by ``2**(m-o)`` (``4x`` for
  BBFP(4,2): +/-7.5 instead of +/-1.875) so outliers are still captured;
* small and moderate values — the vast majority of LLM weights/activations —
  keep ``m - o`` extra bits of resolution compared to BFP with the same
  mantissa width, which is exactly the quantisation-error reduction the
  paper exploits.

The paper writes a configuration as ``BBFP(m, o)``; the shared exponent field
is always 5 bits wide and the per-element storage is ``m`` magnitude bits +
1 sign bit + 1 flag bit.

:func:`quantize_bbfp` builds the hardware-faithful :class:`BBFPTensor`
(signs, flags, integer codes, shared exponents).  Fake quantisation,
:func:`bbfp_quantize_dequantize`, skips those fields: it runs the fused
:class:`~repro.core.block_kernel.BlockKernel` pass, which shares the
encoder's per-block step rule and returns bit-identical values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.block_kernel import BlockKernel
from repro.core.blocking import BlockLayout, from_blocks, to_blocks
from repro.core.exponent_selection import (
    ExponentStrategy,
    select_shared_exponent,
    strategy_from_name,
)
from repro.core.floatspec import exponent_of
from repro.core.rounding import RoundingMode, round_magnitudes
from repro.core.serializable import SerializableConfig

__all__ = ["BBFPConfig", "BBFPTensor", "quantize_bbfp", "bbfp_quantize_dequantize"]


@dataclass(frozen=True)
class BBFPConfig(SerializableConfig):
    """Configuration of a BBFP(m, o) format.

    Parameters
    ----------
    mantissa_bits:
        ``m`` — magnitude bits stored per element.
    overlap_bits:
        ``o`` — overlap bits; must satisfy ``0 <= o < m``.  A larger overlap
        reduces truncation error of the high (flag = 1) group but raises the
        shared exponent, hurting the low group (Section III-D).
    block_size:
        Elements per shared exponent (32 in the paper).
    exponent_bits:
        Shared exponent width (5 in all paper configurations).
    exponent_strategy:
        Shared-exponent rule; the default is the paper's Eq. 9
        (``max(E) - (m - o)``).  ``max-1`` / ``max-3`` style ablations from
        Fig. 3 are available through
        :class:`repro.core.exponent_selection.ExponentStrategy`.
    """

    mantissa_bits: int
    overlap_bits: int
    block_size: int = 32
    exponent_bits: int = 5
    exponent_strategy: ExponentStrategy = ExponentStrategy.BBFP_DEFAULT
    rounding: RoundingMode = RoundingMode.NEAREST

    def __post_init__(self):
        if self.mantissa_bits < 1:
            raise ValueError(f"mantissa_bits must be >= 1, got {self.mantissa_bits}")
        if not 0 <= self.overlap_bits < self.mantissa_bits:
            raise ValueError(
                f"overlap_bits must satisfy 0 <= o < m, got o={self.overlap_bits} m={self.mantissa_bits}"
            )
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if self.exponent_bits < 2:
            raise ValueError(f"exponent_bits must be >= 2, got {self.exponent_bits}")

    @property
    def name(self) -> str:
        return f"BBFP({self.mantissa_bits},{self.overlap_bits})"

    @property
    def high_group_factor(self) -> int:
        """The flag = 1 scale factor ``f = 2**(m - o)`` (Eq. 6)."""
        return 1 << (self.mantissa_bits - self.overlap_bits)

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

    def mantissa_range(self) -> tuple:
        """Smallest/largest representable mantissa magnitude relative to ``2**E_shared``.

        For BBFP(4,2) the upper bound is ``7.5`` (Fig. 2(b)): the low group
        reaches 1.875 and the high group multiplies that by ``2**(m-o) = 4``.
        """
        step = 2.0 ** (-(self.mantissa_bits - 1))
        return step, self.max_mantissa_level * step * self.high_group_factor

    def equivalent_bit_width(self) -> float:
        """Average storage bits per element (Table I "Equivalent Bit-Width").

        ``m`` magnitude bits + 1 sign bit + 1 flag bit + the shared exponent
        amortised over the block: BBFP(6,3) with blocks of 32 gives 8.16 bits.
        """
        return self.mantissa_bits + 2 + self.exponent_bits / self.block_size

    def memory_efficiency(self, reference_bits: float = 16.0) -> float:
        """Memory density improvement relative to FP16 (Table I "Mem Eff.")."""
        return reference_bits / self.equivalent_bit_width()


@dataclass
class BBFPTensor:
    """A tensor quantised to BBFP, stored with hardware-faithful fields.

    Attributes
    ----------
    config:
        The :class:`BBFPConfig` used for quantisation.
    signs:
        ``+/-1`` per element, blocked shape ``(..., num_blocks, block_size)``.
    flags:
        Per-element flag bit (0 = low mantissa, 1 = high mantissa).
    mantissas:
        Integer magnitude codes in ``[0, 2**m - 1]``.
    shared_exponents:
        Integer shared exponent per block, shape ``(..., num_blocks)``.
    layout:
        Blocking metadata used to restore the original tensor shape.
    """

    config: BBFPConfig
    signs: np.ndarray
    flags: np.ndarray
    mantissas: np.ndarray
    shared_exponents: np.ndarray
    layout: BlockLayout = field(repr=False)

    @property
    def block_values(self) -> np.ndarray:
        """Real values of each block element (still in blocked layout)."""
        low, high = BlockKernel(self.config).steps(self.shared_exponents[..., None])
        return self.signs * self.mantissas.astype(np.float64) * np.where(self.flags == 1, high, low)

    def dequantize(self) -> np.ndarray:
        """Reconstruct a dense float tensor in the original shape."""
        return from_blocks(self.block_values, self.layout)

    def memory_bits(self) -> int:
        """Total storage footprint in bits (mantissas + signs + flags + shared exponents)."""
        elements = int(np.prod(self.mantissas.shape))
        blocks = int(np.prod(self.shared_exponents.shape))
        return elements * (self.config.mantissa_bits + 2) + blocks * self.config.exponent_bits

    def high_fraction(self) -> float:
        """Fraction of elements stored in the high (flag = 1) group.

        With the default Eq. 9 strategy this is the fraction of "outlier-ish"
        elements in each block — useful for analysing how BBFP adapts to the
        outlier profile of different models (Fig. 8 discussion).
        """
        return float(np.mean(self.flags))


def quantize_bbfp(x: np.ndarray, config: BBFPConfig, axis: int = -1,
                  rng: np.random.Generator = None) -> BBFPTensor:
    """Quantise ``x`` to BBFP(m, o) along ``axis``.

    The conversion follows Fig. 2(d):

    1. compute per-element exponents and the per-block shared exponent
       according to the configured strategy (Eq. 9 by default);
    2. elements with exponent above the shared exponent are flagged
       (flag = 1, "high" mantissa, coarse step ``2**(m-o)`` times larger);
    3. all mantissas are rounded to ``m`` bits relative to their group's step
       with ``config.rounding`` (round-to-nearest by default; ``rng`` only
       matters for stochastic rounding).
    """
    blocks, layout = to_blocks(x, config.block_size, axis=axis)
    exponents = exponent_of(blocks)
    shared = select_shared_exponent(
        exponents,
        config.exponent_strategy,
        config.mantissa_bits,
        overlap_bits=config.overlap_bits,
        exponent_min=config.exponent_min,
        exponent_max=config.exponent_max,
    )
    flags = (exponents > shared[..., None]).astype(np.int8)
    low, high = BlockKernel(config).steps(shared[..., None])
    step = np.where(flags == 1, high, low)
    signs = np.where(blocks < 0, -1.0, 1.0)
    codes = round_magnitudes(np.abs(blocks) / step, config.rounding, rng=rng)
    codes = np.clip(codes, 0, config.max_mantissa_level).astype(np.int64)
    return BBFPTensor(
        config=config,
        signs=signs,
        flags=flags,
        mantissas=codes,
        shared_exponents=shared,
        layout=layout,
    )


def bbfp_quantize_dequantize(x: np.ndarray, config: BBFPConfig, axis: int = -1,
                             rng: np.random.Generator = None) -> np.ndarray:
    """Fake quantisation for accuracy studies: ``quantize_bbfp(...).dequantize()``'s values.

    Runs the fused :class:`~repro.core.block_kernel.BlockKernel` pass, which
    skips the hardware fields; the values are bit-identical.
    """
    return BlockKernel(config).quantize_dequantize(x, axis=axis, rng=rng)


def parse_bbfp_name(name: str) -> BBFPConfig:
    """Parse a paper-style name like ``"BBFP(4,2)"`` into a :class:`BBFPConfig`."""
    text = name.strip().upper().replace(" ", "")
    if not (text.startswith("BBFP(") and text.endswith(")")):
        raise ValueError(f"not a BBFP name: {name!r}")
    inner = text[len("BBFP(") : -1]
    parts = inner.split(",")
    if len(parts) not in (2, 3):
        raise ValueError(f"expected BBFP(m,o) or BBFP(m,o,e), got {name!r}")
    m, o = int(parts[0]), int(parts[1])
    exponent_bits = int(parts[2]) if len(parts) == 3 else 5
    return BBFPConfig(mantissa_bits=m, overlap_bits=o, exponent_bits=exponent_bits)
