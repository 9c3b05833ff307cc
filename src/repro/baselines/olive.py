"""Olive (Guo et al., ISCA 2023): outlier-victim pair quantisation, simplified.

Olive's observation is that outliers are rare, so an outlier can "steal" the
encoding space of its immediate neighbour (the *victim*): the victim is pruned
to zero and the freed code space is used to store the outlier with extended
range (a small exponent).  Everything stays 4 bits wide in memory and in the
multiplier, at the cost of the pruned victims and of coarse outlier values.

The hardware-relevant behaviour reproduced here:

* values within the normal INT4 range quantise as usual;
* a value beyond the range marks its right-hand neighbour as victim (pruned to
  zero) and is itself quantised on a coarse power-of-two-stepped grid with
  extended range;
* two adjacent outliers cannot both be represented — the weaker one is
  clamped to the normal range (the failure mode that makes Olive degrade
  sharply on outlier-heavy tensors, visible in the paper's Table II where
  Olive's perplexity explodes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.serializable import SerializableConfig
from repro.llm.inference import QuantizationScheme

__all__ = ["OliveConfig", "olive_quantize_dequantize", "build_olive_scheme"]


@dataclass(frozen=True)
class OliveConfig(SerializableConfig):
    """Parameters of the outlier-victim pair quantiser."""

    bits: int = 4
    outlier_exponent_levels: int = 4
    group_size: int = 128

    def __post_init__(self):
        if self.bits < 2:
            raise ValueError("bits must be >= 2")
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")

    @property
    def name(self) -> str:
        return f"Olive(INT{self.bits})"

    @property
    def max_code(self) -> int:
        return (1 << (self.bits - 1)) - 1


def _group_scales(x: np.ndarray, config: OliveConfig) -> np.ndarray:
    """Per-group scale from a robust (non-outlier) range estimate."""
    flat = x.reshape(-1)
    pad = (-flat.size) % config.group_size
    padded = np.pad(flat, (0, pad))
    groups = padded.reshape(-1, config.group_size)
    # Olive scales for the *normal* values: use a high percentile rather than
    # the absolute max so outliers do not inflate the step.
    robust_max = np.quantile(np.abs(groups), 0.98, axis=1)
    robust_max = np.maximum(robust_max, 1e-8)
    scales = robust_max / config.max_code
    expanded = np.repeat(scales, config.group_size)[: flat.size]
    return expanded.reshape(x.shape)


def olive_quantize_dequantize(x: np.ndarray, config: OliveConfig = OliveConfig()) -> np.ndarray:
    """Apply outlier-victim pair fake quantisation to ``x`` (last axis is the pairing axis)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return x.copy()
    scale = _group_scales(x, config)
    codes = np.rint(x / scale)
    is_outlier = np.abs(codes) > config.max_code

    # Normal path: clip to the INT range.
    normal = np.clip(codes, -config.max_code, config.max_code) * scale

    # Outlier path: coarse power-of-two grid with extended range.
    max_extension = 1 << config.outlier_exponent_levels
    magnitude = np.abs(x) / scale
    exponent = np.ceil(np.log2(np.maximum(magnitude / config.max_code, 1.0)))
    exponent = np.clip(exponent, 0, config.outlier_exponent_levels)
    coarse_step = scale * np.exp2(exponent)
    outlier_value = np.rint(x / coarse_step) * coarse_step
    outlier_value = np.clip(outlier_value, -config.max_code * scale * max_extension,
                            config.max_code * scale * max_extension)

    result = np.where(is_outlier, outlier_value, normal)

    # Victim pruning along the last axis: the element following an outlier is
    # zeroed; an outlier immediately following another outlier loses its
    # extension and is clamped to the normal range instead.
    width = x.shape[-1] if x.ndim else 1
    outlier_flat = is_outlier.reshape(-1, width)
    result_flat = result.reshape(-1, width).copy()
    normal_flat = normal.reshape(-1, width)
    victim = np.zeros_like(outlier_flat)
    victim[:, 1:] = outlier_flat[:, :-1]
    # Victims are pruned unless they are themselves outliers...
    prune = victim & ~outlier_flat
    result_flat[prune] = 0.0
    # ...in which case the second outlier of the pair falls back to the clipped value.
    clash = victim & outlier_flat
    result_flat[clash] = normal_flat[clash]
    return result_flat.reshape(x.shape)


def build_olive_scheme(config: OliveConfig = OliveConfig(), name: str = "Olive") -> QuantizationScheme:
    """Olive applied to both weights and activations (no calibration needed)."""
    return QuantizationScheme(
        name=name,
        weight_fn=lambda _, w: olive_quantize_dequantize(w, config),
        activation_fn=lambda _, x: olive_quantize_dequantize(x, config),
    )
