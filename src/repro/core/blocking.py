"""Helpers for reshaping tensors into fixed-size blocks along one axis.

Both BFP and BBFP operate on blocks of ``block_size`` consecutive elements
taken along a chosen axis (the paper uses blocks of 32 along the reduction
dimension of the matrix multiplication).  These helpers move the blocking
axis last, pad it to a multiple of the block size and restore the original
layout after dequantisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BlockLayout", "to_blocks", "from_blocks"]


@dataclass(frozen=True)
class BlockLayout:
    """Records how a tensor was reshaped into blocks so it can be restored."""

    original_shape: tuple
    axis: int
    block_size: int
    padded_length: int

    @property
    def axis_length(self) -> int:
        # a 0-d tensor is blocked as one element
        return self.original_shape[self.axis] if self.original_shape else 1

    @property
    def num_blocks_along_axis(self) -> int:
        return self.padded_length // self.block_size


def _normalise_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise ValueError(f"axis {axis} out of range for ndim {ndim}")
    return axis % ndim


def to_blocks(x: np.ndarray, block_size: int, axis: int = -1) -> tuple:
    """Reshape ``x`` into ``(..., num_blocks, block_size)`` blocks.

    The blocking axis is moved last and zero-padded up to a multiple of
    ``block_size``.  Returns ``(blocks, layout)`` where ``layout`` is the
    :class:`BlockLayout` needed by :func:`from_blocks`.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    x = np.asarray(x, dtype=np.float64)
    original_shape = x.shape
    if x.ndim == 0:
        x = x.reshape(1)
    axis = _normalise_axis(axis, x.ndim)
    moved = np.moveaxis(x, axis, -1)
    length = moved.shape[-1]
    padded_length = int(np.ceil(length / block_size)) * block_size
    if padded_length != length:
        pad_width = [(0, 0)] * (moved.ndim - 1) + [(0, padded_length - length)]
        moved = np.pad(moved, pad_width, mode="constant")
    blocks = moved.reshape(moved.shape[:-1] + (padded_length // block_size, block_size))
    layout = BlockLayout(
        original_shape=original_shape,
        axis=axis,
        block_size=block_size,
        padded_length=padded_length,
    )
    return blocks, layout


def from_blocks(blocks: np.ndarray, layout: BlockLayout) -> np.ndarray:
    """Inverse of :func:`to_blocks`: restore the original shape and axis order."""
    blocks = np.asarray(blocks)
    flat = blocks.reshape(blocks.shape[:-2] + (layout.padded_length,))
    flat = flat[..., : layout.axis_length]
    restored = np.moveaxis(flat, -1, layout.axis)
    return restored.reshape(layout.original_shape)
