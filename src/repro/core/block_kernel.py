"""Per-block steps and the fused fake-quantisation kernel of BFP and BBFP.

Both formats quantise a block in the same few steps (Fig. 2(c)/(d)): take
the block's largest exponent, place the shared exponent ``shift`` below it
(0 for vanilla BFP, ``m - o`` for BBFP's Eq. 9) clipped to the exponent
field, give every element the fine step ``2**(E_shared - (m - 1))`` — or,
for a BBFP element flagged as high (``|x| >= 2**(E_shared + 1)``, i.e. its
exponent exceeds ``E_shared``), that step times ``2**(m - o)`` — then round
``|x| / step`` and clip it to the largest code ``2**m - 1``.

:class:`BlockKernel` resolves those constants once per format and serves
both paths:

* :meth:`BlockKernel.steps` is the per-block step rule the encoders
  (:func:`repro.core.blockfp.quantize_bfp`,
  :func:`repro.core.bbfp.quantize_bbfp`) and their tensors' dequantisation
  use;
* :meth:`BlockKernel.quantize_dequantize` runs the same steps on float
  arrays in one pass — no per-element exponents, signs, flags or integer
  codes — and returns values bit-identical to encoding and decoding, for
  every exponent strategy and rounding mode (finite input).
"""

from __future__ import annotations

import numpy as np

from repro.core.blocking import from_blocks, to_blocks
from repro.core.exponent_selection import shift_for_strategy
from repro.core.floatspec import ZERO_EXPONENT
from repro.core.rounding import round_magnitudes

__all__ = ["BlockKernel"]


class BlockKernel:
    """The config-derived constants of one BFP or BBFP format.

    ``config`` is a :class:`~repro.core.blockfp.BFPConfig` or a
    :class:`~repro.core.bbfp.BBFPConfig`; only the latter has overlap bits,
    and with them a flagged (high) group.
    """

    def __init__(self, config):
        overlap = getattr(config, "overlap_bits", None)
        m = config.mantissa_bits
        self.block_size = config.block_size
        self.rounding = config.rounding
        self.shift = shift_for_strategy(config.exponent_strategy, m, overlap or 0)
        # the kernel clips frexp's int32 exponents; wider fields clip nothing
        self.exponent_min = max(config.exponent_min, -(1 << 31))
        self.exponent_max = min(config.exponent_max, (1 << 31) - 1)
        self.max_code = float((1 << m) - 1)
        # the encoders rank zeros at ZERO_EXPONENT in the block max; that can
        # decide a shared exponent only when the field reaches below it (more
        # than 8 exponent bits), and then zeros count as 2**ZERO_EXPONENT
        self.zero_floor = (2.0 ** ZERO_EXPONENT
                           if self.exponent_min < ZERO_EXPONENT - self.shift else None)
        # the steps for shared exponent E are these units times 2**E: the
        # fine step 2**(E - (m - 1)), and 2**(m - o) times that when flagged
        self.low_unit = 2.0 ** (1 - m)
        self.high_unit = None if overlap is None else 2.0 ** (1 - overlap)

    def steps(self, shared: np.ndarray) -> tuple:
        """``(low, high)`` quantisation steps of blocks with integer shared exponents.

        ``low`` is ``2**(shared - (m - 1))``; ``high``, the flagged group's
        step ``2**(m - o)`` times coarser, is ``None`` for BFP.
        """
        low = np.ldexp(self.low_unit, shared)
        return low, (None if self.high_unit is None else np.ldexp(self.high_unit, shared))

    def quantize_dequantize(self, x: np.ndarray, axis: int = -1,
                            rng: np.random.Generator = None) -> np.ndarray:
        """Fake-quantise ``x`` along ``axis``: the encoder's values, in one pass."""
        x = np.asarray(x, dtype=np.float64)
        size = self.block_size
        if x.ndim and axis in (-1, x.ndim - 1) and x.shape[-1] % size == 0:
            layout = None
            blocks = x.reshape(x.shape[:-1] + (x.shape[-1] // size, size))
        else:
            blocks, layout = to_blocks(x, size, axis=axis)
        # the sign source: x itself, except that -0.0 comes back +0.0 (the
        # encoder's sign is ``x < 0``)
        signs = blocks + 0.0
        values = np.abs(signs)
        # the largest element exponent is the exponent of the largest |x|
        # (non-negative doubles order like their bit patterns, and integers
        # reduce faster); an all-zero block gets some exponent, and
        # quantises to zeros whatever it is
        top = values if self.zero_floor is None else np.where(values == 0.0, self.zero_floor,
                                                              values)
        top = top.view(np.int64).max(axis=-1, keepdims=True).view(np.float64)
        _, top = np.frexp(top)
        shared = top - (1 + self.shift)
        np.maximum(shared, self.exponent_min, out=shared)
        np.minimum(shared, self.exponent_max, out=shared)
        low, high = self.steps(shared)
        step = low if high is None else np.where(values >= np.ldexp(2.0, shared), high, low)
        np.divide(values, step, out=values)
        values = round_magnitudes(values, self.rounding, rng=rng)
        np.minimum(values, self.max_code, out=values)
        np.multiply(values, step, out=values)
        np.copysign(values, signs, out=values)
        return values.reshape(x.shape) if layout is None else from_blocks(values, layout)
