"""Plain fixed-point (INT) quantisation baselines.

The paper motivates BBFP by the failure mode of low-bit integer quantisation
on LLMs: a symmetric INTb grid has a uniform step over the whole dynamic
range, so the activation outliers (Fig. 1(a)) force a huge step and small
values collapse to zero.  This module provides symmetric per-tensor and
per-channel INT quantisation used as a baseline and as a building block of
the outlier-aware comparators (Olive, Oltron, SmoothQuant, OmniQuant).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.serializable import SerializableConfig

__all__ = ["Granularity", "IntQuantConfig", "int_quantize", "int_quantize_dequantize"]


class Granularity(enum.Enum):
    """Scope over which a single scale factor is shared."""

    PER_TENSOR = "per_tensor"
    PER_CHANNEL = "per_channel"
    PER_BLOCK = "per_block"


@dataclass(frozen=True)
class IntQuantConfig(SerializableConfig):
    """Configuration of a symmetric integer quantiser.

    Parameters
    ----------
    bits:
        Total bits including the sign (INT8 -> codes in [-127, 127]).
    granularity:
        Whether one scale is shared per tensor, per channel (last axis) or per
        block of ``block_size`` elements along the last axis.
    block_size:
        Only used for ``PER_BLOCK``.
    clip_ratio:
        Optional clipping of the observed maximum before computing the scale;
        ``1.0`` means no clipping.  Outlier-aware baselines tune this.
    """

    bits: int
    granularity: Granularity = Granularity.PER_TENSOR
    block_size: int = 32
    clip_ratio: float = 1.0

    def __post_init__(self):
        if self.bits < 2:
            raise ValueError(f"bits must be >= 2, got {self.bits}")
        if not 0.0 < self.clip_ratio <= 1.0:
            raise ValueError(f"clip_ratio must be in (0, 1], got {self.clip_ratio}")

    @property
    def name(self) -> str:
        return f"INT{self.bits}"

    @property
    def max_code(self) -> int:
        return (1 << (self.bits - 1)) - 1

    def equivalent_bit_width(self) -> float:
        return float(self.bits)

    def memory_efficiency(self, reference_bits: float = 16.0) -> float:
        return reference_bits / self.equivalent_bit_width()


def _scales(x: np.ndarray, config: IntQuantConfig) -> np.ndarray:
    """Compute the symmetric scale (step size) for ``x`` under ``config``."""
    absx = np.abs(x)
    # a 0-d tensor is one element: one channel, one block
    if config.granularity is Granularity.PER_TENSOR or absx.ndim == 0:
        max_abs = np.asarray(absx.max(initial=0.0))
    elif config.granularity is Granularity.PER_CHANNEL:
        max_abs = absx.max(axis=tuple(range(absx.ndim - 1)), keepdims=True, initial=0.0)
    elif config.granularity is Granularity.PER_BLOCK:
        length = x.shape[-1]
        pad = (-length) % config.block_size
        padded = np.pad(absx, [(0, 0)] * (absx.ndim - 1) + [(0, pad)])
        blocked = padded.reshape(padded.shape[:-1]
                                 + (padded.shape[-1] // config.block_size, config.block_size))
        block_max = blocked.max(axis=-1, keepdims=True)
        block_max = np.broadcast_to(block_max, blocked.shape).reshape(padded.shape)
        max_abs = block_max[..., :length]
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown granularity {config.granularity}")
    max_abs = max_abs * config.clip_ratio
    scale = np.where(max_abs > 0, max_abs / config.max_code, 1.0)
    return scale


def int_quantize(x: np.ndarray, config: IntQuantConfig) -> tuple:
    """Quantise ``x`` symmetrically; returns ``(codes, scale)``.

    ``codes`` are round-to-nearest integers clipped to ``[-max_code, max_code]``
    and ``scale`` broadcasts against ``codes`` so that
    ``dequantised = codes * scale``.
    """
    x = np.asarray(x, dtype=np.float64)
    scale = _scales(x, config)
    codes = np.rint(x / scale)
    codes = np.clip(codes, -config.max_code, config.max_code).astype(np.int64)
    return codes, scale


def int_quantize_dequantize(x: np.ndarray, config: IntQuantConfig) -> np.ndarray:
    """Symmetric fake quantisation: quantise then dequantise."""
    codes, scale = int_quantize(x, config)
    return codes.astype(np.float64) * scale
