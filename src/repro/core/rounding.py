"""Mantissa rounding modes for the block floating point quantisers.

The paper's error analysis (Eq. 8) assumes round-to-nearest, which is what the
BBAL encoder implements and what :func:`repro.core.blockfp.quantize_bfp` /
:func:`repro.core.bbfp.quantize_bbfp` use by default.  Real hardware encoders
sometimes truncate instead (it removes the rounding adder from the critical
path), and quantisation-aware training often uses stochastic rounding to keep
the error zero-mean across steps.  This module provides all three so the
ablation benches can quantify what the choice costs:

``NEAREST``
    Round half away from zero (``np.rint`` on magnitudes) — the paper default.
``TRUNCATE``
    Drop the bits below the step (floor of the magnitude); biased towards
    zero, roughly doubles the error variance versus nearest.
``STOCHASTIC``
    Round up with probability equal to the fractional part; unbiased in
    expectation but with higher per-sample variance than nearest.

All functions operate on *magnitude codes* (``|x| / step``), matching how the
quantisers use them; signs are handled by the caller.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = ["RoundingMode", "round_magnitudes", "rounding_from_name"]


class RoundingMode(enum.Enum):
    """How a mantissa magnitude is mapped onto the integer code grid."""

    NEAREST = "nearest"
    TRUNCATE = "truncate"
    STOCHASTIC = "stochastic"


_ALIASES = {
    "nearest": RoundingMode.NEAREST,
    "rne": RoundingMode.NEAREST,
    "round": RoundingMode.NEAREST,
    "truncate": RoundingMode.TRUNCATE,
    "trunc": RoundingMode.TRUNCATE,
    "floor": RoundingMode.TRUNCATE,
    "stochastic": RoundingMode.STOCHASTIC,
    "sr": RoundingMode.STOCHASTIC,
}


def rounding_from_name(name) -> RoundingMode:
    """Resolve a rounding mode from a :class:`RoundingMode` or a string alias."""
    if isinstance(name, RoundingMode):
        return name
    key = str(name).strip().lower()
    if key not in _ALIASES:
        raise ValueError(f"unknown rounding mode {name!r}; known: {sorted(set(_ALIASES))}")
    return _ALIASES[key]


def round_magnitudes(
    magnitudes: np.ndarray,
    mode: RoundingMode = RoundingMode.NEAREST,
    rng: np.random.Generator = None,
) -> np.ndarray:
    """Round non-negative real-valued codes to integers according to ``mode``.

    Parameters
    ----------
    magnitudes:
        Non-negative array of ``|x| / step`` values.
    mode:
        Rounding mode (or string alias).
    rng:
        Random generator used by :attr:`RoundingMode.STOCHASTIC`; a fixed
        default generator is created when omitted so results stay
        reproducible.

    Returns
    -------
    numpy.ndarray
        Float array of integer-valued codes (clipping to the format's code
        range is the caller's job).
    """
    mode = rounding_from_name(mode)
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    if magnitudes.min(initial=0.0) < 0:
        raise ValueError("round_magnitudes expects non-negative magnitude codes")
    if mode is RoundingMode.NEAREST:
        return np.rint(magnitudes)
    if mode is RoundingMode.TRUNCATE:
        return np.floor(magnitudes)
    if mode is RoundingMode.STOCHASTIC:
        if rng is None:
            rng = np.random.default_rng(0)
        floor = np.floor(magnitudes)
        frac = magnitudes - floor
        return floor + (rng.random(magnitudes.shape) < frac)
    raise ValueError(f"unhandled rounding mode {mode}")
