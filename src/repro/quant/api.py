"""The :class:`Quantizer` protocol and the :class:`QuantizedTensor` container.

A *quantizer* is the polymorphic face of one number-format configuration: it
knows how to encode a float tensor (``quantize``), decode it back
(``dequantize``), fake-quantise in one step (``quantize_dequantize``), and
report its storage cost (``bits_per_element``).  Concrete quantizers wrap the
free functions of :mod:`repro.core` — they add no numerics of their own, so
the registry dispatch path produces bit-identical results to the legacy
per-family calls.

A *quantized tensor* is the common result container.  Formats with a native
hardware-faithful tensor class (``BBFPTensor``, ``BFPTensor``, ``BiETensor``,
``MXTensor``) carry it as the payload; formats without one (INT, minifloat,
baselines) carry a family-specific payload that the owning quantizer knows
how to decode.  Either way the caller sees the same three methods:
``dequantize()``, ``memory_bits()`` and ``spec``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["Quantizer", "QuantizedTensor"]


@dataclass
class QuantizedTensor:
    """Format-agnostic handle on a quantised tensor.

    Attributes
    ----------
    quantizer:
        The :class:`Quantizer` that produced this tensor (and knows how to
        decode the payload).
    payload:
        Format-specific encoded representation; for the block formats this is
        the native tensor object (``BBFPTensor`` etc.).
    shape:
        Shape of the original dense tensor.
    """

    quantizer: "Quantizer"
    payload: Any = field(repr=False)
    shape: tuple

    @property
    def spec(self) -> str:
        """Canonical spec string of the producing format."""
        return self.quantizer.spec

    @property
    def name(self) -> str:
        return self.quantizer.name

    def dequantize(self) -> np.ndarray:
        """Reconstruct the dense float tensor in its original shape."""
        return self.quantizer.decode(self.payload)

    def memory_bits(self) -> int:
        """Total storage footprint of the encoded representation in bits."""
        return self.quantizer.payload_memory_bits(self.payload)


class Quantizer(abc.ABC):
    """One registered number format, bound to a concrete configuration.

    Subclasses are registered with
    :func:`repro.quant.registry.register_format`, which fills in the class
    attributes ``family`` (the registry key, e.g. ``"bbfp"``) and
    ``config_type`` (the configuration dataclass the quantizer wraps).

    Instances are cheap, stateless wrappers; :func:`repro.quant.get_quantizer`
    memoizes them per configuration so hot loops can resolve a spec string on
    every call without re-constructing anything.
    """

    #: Filled in by ``register_format``.
    family: str = ""
    config_type: type = object
    #: Example spec strings, used by ``list_formats`` and the did-you-mean
    #: suggestions of :class:`~repro.quant.registry.UnknownFormatError`.
    example_specs: tuple = ()

    def __init__(self, config):
        if not isinstance(config, self.config_type):
            raise TypeError(
                f"{type(self).__name__} wraps {self.config_type.__name__} configurations, "
                f"got {type(config).__name__}"
            )
        self._config = config

    # ------------------------------------------------------------- identity
    @property
    def config(self):
        """The wrapped configuration dataclass."""
        return self._config

    @property
    def name(self) -> str:
        """Display name used in result tables (e.g. ``"BBFP(4,2)"``)."""
        return getattr(self._config, "name", type(self._config).__name__)

    @property
    def spec(self) -> str:
        """Canonical spec string; ``parse_spec(self.spec)`` rebuilds the config."""
        return type(self).format_spec(self._config)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec!r})"

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._config == self._config

    def __hash__(self) -> int:
        return hash((type(self), self._config))

    # ----------------------------------------------------- spec-string hooks
    @classmethod
    @abc.abstractmethod
    def try_parse(cls, base: str, mods: dict):
        """Parse a normalised spec body into a configuration.

        ``base`` is the lowercase spec with whitespace and ``@`` modifiers
        stripped; ``mods`` maps modifier keys (``"b"``, ``"e"``, ``"k"``,
        ``"s"``, ``"pc"``...) to their values.  Return ``None`` when ``base``
        does not belong to this family; raise
        :class:`~repro.quant.registry.UnknownFormatError` when it does but is
        malformed.
        """

    @classmethod
    @abc.abstractmethod
    def format_spec(cls, config) -> str:
        """Render ``config`` as its canonical spec string."""

    # ------------------------------------------------------------ quantising
    @abc.abstractmethod
    def quantize(self, x: np.ndarray, axis: int = -1,
                 rng: np.random.Generator = None) -> QuantizedTensor:
        """Encode ``x`` (blocked along ``axis`` where the format blocks)."""

    @abc.abstractmethod
    def decode(self, payload) -> np.ndarray:
        """Decode a :class:`QuantizedTensor` payload back to a dense tensor."""

    def quantize_dequantize(self, x: np.ndarray, axis: int = -1,
                            rng: np.random.Generator = None) -> np.ndarray:
        """Fake quantisation: the values of encoding then immediately decoding.

        Subclasses override this when a fused path computes the same values
        more cheaply: BBFP and BFP run
        :class:`~repro.core.block_kernel.BlockKernel` (bit-identical to
        ``quantize(x).dequantize()``), minifloats round element-wise.
        """
        return self.quantize(x, axis=axis, rng=rng).dequantize()

    @property
    def batch_separable(self) -> bool:
        """Whether quantising a stack of tensors equals quantising each alone.

        True when every scale the format derives lives inside one vector
        along the quantisation ``axis`` and rounding is deterministic:
        ``quantize_dequantize(np.stack(xs))`` is then bit-identical to
        stacking ``quantize_dequantize(x)`` per ``x``, so a caller may batch
        independent tensors into one call.  The default is the safe
        ``False``; formats whose scales span the tensor keep it.
        """
        return False

    # --------------------------------------------------------------- costing
    def bits_per_element(self) -> float:
        """Average storage bits per element (Table I "Equivalent Bit-Width")."""
        return float(self._config.equivalent_bit_width())

    def payload_memory_bits(self, payload) -> int:
        """Storage footprint of an encoded payload; block formats delegate."""
        return int(payload.memory_bits())

    def memory_efficiency(self, reference_bits: float = 16.0) -> float:
        """Memory density improvement relative to FP16."""
        return reference_bits / self.bits_per_element()
