"""Registrations of the core number-format families.

Importing this module (which :mod:`repro.quant` does eagerly) registers one
:class:`~repro.quant.api.Quantizer` subclass per :mod:`repro.core` family:
BBFP, BFP, INT, minifloat, MX and BiE.  Each subclass wraps the existing free
functions — the numerics are untouched; this layer only provides the
polymorphic protocol, the spec-string grammar and the common result
container.

The *baseline* families (Olive, Oltron) live in
:mod:`repro.quant.baseline_formats` and are registered lazily on the first
spec the core families do not recognise, so importing ``repro.quant`` does
not pull in the LLM inference stack.
"""

from __future__ import annotations

import re

import numpy as np

from repro.core.bbfp import BBFPConfig, quantize_bbfp
from repro.core.bie import BiEConfig, quantize_bie
from repro.core.blockfp import BFPConfig, quantize_bfp
from repro.core.floatspec import BF16, FP4_E2M1, FP8_E4M3, FP8_E5M2, FP16, FP32, FloatSpec
from repro.core.fp_formats import minifloat_quantize_dequantize
from repro.core.integer import Granularity, IntQuantConfig, int_quantize
from repro.core.microscaling import (
    FP6_E2M3,
    FP6_E3M2,
    MXFP4,
    MXFP6_E2M3,
    MXFP6_E3M2,
    MXFP8,
    MXConfig,
    quantize_mx,
)
from repro.core.rounding import RoundingMode
from repro.quant.api import QuantizedTensor, Quantizer
from repro.quant.registry import UnknownFormatError, register_format

__all__ = [
    "BBFPQuantizer",
    "BFPQuantizer",
    "BiEQuantizer",
    "IntQuantizer",
    "MinifloatQuantizer",
    "MXQuantizer",
]

_BBFP_RE = re.compile(r"^bbfp\((\d+),(\d+)(?:,(\d+))?\)$")
_BFP_RE = re.compile(r"^bfp(\d+)$")
_BIE_RE = re.compile(r"^bie(\d+)(?:\(k=(\d+)\))?$")
_INT_RE = re.compile(r"^int(\d+)$")
_FP_RE = re.compile(r"^(fp(\d+)(?:_e(\d+)m(\d+))?|bf16)$")
_MX_RE = re.compile(r"^mxfp(\d+)(?:_e(\d+)m(\d+))?$")


def _int_mod(mods: dict, key: str, spec_hint: str) -> int:
    """Pop an ``@``-modifier whose value must be a plain integer.

    Rejects bare flags (``@b``) and float values (``@b3.2`` — almost
    certainly a typo for ``@b32``) instead of silently truncating.
    """
    value = mods.pop(key)
    if type(value) is not int:
        raise UnknownFormatError(spec_hint, f"modifier @{key} needs an integer value")
    return value


def _block_kwargs(mods: dict, spec_hint: str) -> dict:
    """Translate the shared ``@b<N>`` / ``@e<N>`` modifiers into config kwargs."""
    kwargs = {}
    if "b" in mods:
        kwargs["block_size"] = _int_mod(mods, "b", spec_hint)
    if "e" in mods:
        kwargs["exponent_bits"] = _int_mod(mods, "e", spec_hint)
    if mods:
        raise UnknownFormatError(spec_hint, f"unsupported modifiers {sorted(mods)}")
    return kwargs


@register_format("bbfp", BBFPConfig, example_specs=("bbfp(4,2)", "bbfp(6,3)", "bbfp(3,1)"))
class BBFPQuantizer(Quantizer):
    """Bidirectional BFP — the paper's format (``BBFP(m,o)``, ``BBFP(m,o,e)``)."""

    @classmethod
    def try_parse(cls, base, mods):
        match = _BBFP_RE.match(base)
        if not match:
            return None if not base.startswith("bbfp") else _malformed(base, "BBFP(m,o)")
        m, o, e = match.groups()
        if e is not None and "e" in mods:
            raise UnknownFormatError(
                base, "exponent bits given both positionally and via @e"
            )
        kwargs = _block_kwargs(mods, base)
        if e is not None:
            kwargs["exponent_bits"] = int(e)
        return BBFPConfig(int(m), int(o), **kwargs)

    @classmethod
    def format_spec(cls, config) -> str:
        body = f"{config.mantissa_bits},{config.overlap_bits}"
        if config.exponent_bits != 5:
            body += f",{config.exponent_bits}"
        return f"BBFP({body})" + _block_suffix(config)

    def quantize(self, x, axis=-1, rng=None):
        x = np.asarray(x, dtype=np.float64)
        return QuantizedTensor(self, quantize_bbfp(x, self.config, axis=axis, rng=rng), x.shape)

    def decode(self, payload):
        return payload.dequantize()

    @property
    def batch_separable(self):
        return _rounds_deterministically(self.config)


@register_format("bfp", BFPConfig, example_specs=("bfp4", "bfp6", "bfp8", "bfp8@b32"))
class BFPQuantizer(Quantizer):
    """Vanilla block floating point (``BFP<m>``)."""

    @classmethod
    def try_parse(cls, base, mods):
        match = _BFP_RE.match(base)
        if not match:
            return None
        return BFPConfig(int(match.group(1)), **_block_kwargs(mods, base))

    @classmethod
    def format_spec(cls, config) -> str:
        return f"BFP{config.mantissa_bits}" + _exponent_suffix(config) + _block_suffix(config)

    def quantize(self, x, axis=-1, rng=None):
        x = np.asarray(x, dtype=np.float64)
        return QuantizedTensor(self, quantize_bfp(x, self.config, axis=axis, rng=rng), x.shape)

    def decode(self, payload):
        return payload.dequantize()

    @property
    def batch_separable(self):
        return _rounds_deterministically(self.config)


@register_format("bie", BiEConfig, example_specs=("bie4", "bie6", "bie4@k3"))
class BiEQuantizer(Quantizer):
    """Bi-exponent BFP (``BiE<m>``; outlier budget via ``@k<N>``)."""

    @classmethod
    def try_parse(cls, base, mods):
        match = _BIE_RE.match(base)
        if not match:
            return None
        m, k = match.groups()
        kwargs = {}
        if "k" in mods:
            kwargs["outlier_count"] = _int_mod(mods, "k", base)
        elif k is not None:
            kwargs["outlier_count"] = int(k)
        kwargs.update(_block_kwargs(mods, base))
        return BiEConfig(int(m), **kwargs)

    @classmethod
    def format_spec(cls, config) -> str:
        spec = f"BiE{config.mantissa_bits}"
        if config.outlier_count != 2:
            spec += f"@k{config.outlier_count}"
        return spec + _exponent_suffix(config) + _block_suffix(config)

    def quantize(self, x, axis=-1, rng=None):
        x = np.asarray(x, dtype=np.float64)
        return QuantizedTensor(self, quantize_bie(x, self.config, axis=axis, rng=rng), x.shape)

    def decode(self, payload):
        return payload.dequantize()

    @property
    def batch_separable(self):
        return _rounds_deterministically(self.config)


@register_format("int", IntQuantConfig, example_specs=("int4", "int8", "int8@pc", "int4@b32"))
class IntQuantizer(Quantizer):
    """Symmetric integer quantisation (``INT<b>``; ``@pc`` / ``@b<N>`` granularity)."""

    @classmethod
    def try_parse(cls, base, mods):
        match = _INT_RE.match(base)
        if not match:
            return None
        granularities = [key for key in ("pc", "pt", "b") if key in mods]
        if len(granularities) > 1:
            raise UnknownFormatError(
                base, f"conflicting granularity modifiers {granularities}"
            )
        kwargs = {}
        if mods.pop("pc", False):
            kwargs["granularity"] = Granularity.PER_CHANNEL
        mods.pop("pt", False)  # per-tensor is the default
        if "b" in mods:
            kwargs["granularity"] = Granularity.PER_BLOCK
            kwargs["block_size"] = _int_mod(mods, "b", base)
        if "c" in mods:
            clip = mods.pop("c")
            if isinstance(clip, bool):
                raise UnknownFormatError(base, "modifier @c needs a numeric value")
            kwargs["clip_ratio"] = float(clip)
        if mods:
            raise UnknownFormatError(base, f"unsupported modifiers {sorted(mods)}")
        return IntQuantConfig(int(match.group(1)), **kwargs)

    @classmethod
    def format_spec(cls, config) -> str:
        spec = f"INT{config.bits}"
        if config.granularity is Granularity.PER_CHANNEL:
            spec += "@pc"
        elif config.granularity is Granularity.PER_BLOCK:
            spec += f"@b{config.block_size}"
        if config.clip_ratio != 1.0:
            # repr() is the shortest exact decimal, so the spec is lossless.
            spec += f"@c{config.clip_ratio!r}"
        return spec

    def _num_scales(self, x) -> int:
        """Distinct scale factors stored for ``x`` (the broadcast is free)."""
        config = self.config
        if config.granularity is Granularity.PER_TENSOR or x.ndim == 0:
            return 1
        length = x.shape[-1]
        if config.granularity is Granularity.PER_CHANNEL:
            return length
        blocks = -(-length // config.block_size)
        return (x.size // length) * blocks if length else 0

    def quantize(self, x, axis=-1, rng=None):
        x = np.asarray(x, dtype=np.float64)
        if self.config.granularity is not Granularity.PER_BLOCK:
            # Per-tensor / per-channel scales are axis-independent conventions.
            codes, scale = int_quantize(x, self.config)
            return QuantizedTensor(
                self, {"codes": codes, "scale": scale, "num_scales": self._num_scales(x)}, x.shape
            )
        # Blocks lie along the reduction axis, mirroring the BFP/BBFP layout.
        moved = np.moveaxis(x, axis, -1)
        codes, scale = int_quantize(moved, self.config)
        num_scales = self._num_scales(moved)
        codes = np.moveaxis(codes, -1, axis)
        if np.ndim(scale) == x.ndim:
            scale = np.moveaxis(scale, -1, axis)
        return QuantizedTensor(
            self, {"codes": codes, "scale": scale, "num_scales": num_scales}, x.shape
        )

    def decode(self, payload):
        return payload["codes"].astype(np.float64) * payload["scale"]

    @property
    def batch_separable(self):
        # Per-tensor and per-channel scales reduce over every leading axis.
        return self.config.granularity is Granularity.PER_BLOCK

    def payload_memory_bits(self, payload):
        # Codes plus one FP16 scale per shared-scale group (int_quantize
        # returns the scale broadcast to the codes' shape; the stored count
        # is the number of distinct groups, not the broadcast size).
        return int(payload["codes"].size) * self.config.bits + payload["num_scales"] * 16


@register_format(
    "minifloat", FloatSpec,
    example_specs=("fp16", "bf16", "fp8_e4m3", "fp8_e5m2", "fp4_e2m1", "fp32"),
)
class MinifloatQuantizer(Quantizer):
    """Element-wise minifloat rounding (``FP<t>[_e<E>m<M>]``, ``BF16``)."""

    #: Short aliases for the unambiguous widths.
    _NAMED = {
        "fp32": FP32, "fp16": FP16, "bf16": BF16,
        "fp8": FP8_E4M3, "fp8_e4m3": FP8_E4M3, "fp8_e5m2": FP8_E5M2,
        "fp6_e2m3": FP6_E2M3, "fp6_e3m2": FP6_E3M2, "fp6": FP6_E3M2,
        "fp4": FP4_E2M1, "fp4_e2m1": FP4_E2M1,
    }

    @classmethod
    def try_parse(cls, base, mods):
        named = cls._NAMED.get(base)
        match = _FP_RE.match(base)
        if named is None and match is None:
            return None
        if mods:
            # Fail fast with a specific reason instead of falling through to
            # the other families (minifloats are element-wise; no @b etc.).
            raise UnknownFormatError(base, f"unsupported modifiers {sorted(mods)}")
        if named is not None:
            return named
        _, total, e, m = match.groups()
        if e is None:
            return None  # a bare fp<width> with no named default
        e, m, total = int(e), int(m), int(total)
        if 1 + e + m != total:
            raise UnknownFormatError(base, f"fp{total} needs e+m = {total - 1}")
        return FloatSpec(f"FP{total}_E{e}M{m}", exponent_bits=e, mantissa_bits=m)

    @classmethod
    def format_spec(cls, config) -> str:
        # Render from the numeric fields, not the display name, so a spec
        # exists (and parses back) for any FloatSpec however it is labelled.
        # Named formats use their most explicit alias ("fp8_e4m3" over "fp8").
        aliases = [alias for alias, named in cls._NAMED.items() if named == config]
        if aliases:
            return max(aliases, key=len)
        return f"fp{config.total_bits}_e{config.exponent_bits}m{config.mantissa_bits}"

    def bits_per_element(self) -> float:
        return float(self.config.total_bits)

    def quantize(self, x, axis=-1, rng=None):
        x = np.asarray(x, dtype=np.float64)
        return QuantizedTensor(self, minifloat_quantize_dequantize(x, self.config), x.shape)

    def decode(self, payload):
        return payload

    def payload_memory_bits(self, payload):
        return int(payload.size) * self.config.total_bits

    def quantize_dequantize(self, x, axis=-1, rng=None):
        return minifloat_quantize_dequantize(x, self.config)

    @property
    def batch_separable(self):
        return True


@register_format("mx", MXConfig, example_specs=("mxfp4", "mxfp6_e2m3", "mxfp6_e3m2", "mxfp8"))
class MXQuantizer(Quantizer):
    """OCP microscaling (``MXFP<t>``; element format via ``_e<E>m<M>``)."""

    _NAMED = {
        "mxfp4": MXFP4, "mxfp4_e2m1": MXFP4,
        "mxfp6_e2m3": MXFP6_E2M3, "mxfp6_e3m2": MXFP6_E3M2, "mxfp6": MXFP6_E3M2,
        "mxfp8": MXFP8, "mxfp8_e4m3": MXFP8,
    }

    @classmethod
    def try_parse(cls, base, mods):
        match = _MX_RE.match(base)
        if not match:
            return None
        kwargs = {}
        if "b" in mods:
            kwargs["block_size"] = _int_mod(mods, "b", base)
        if "s" in mods:
            kwargs["scale_bits"] = _int_mod(mods, "s", base)
        if mods:
            raise UnknownFormatError(base, f"unsupported modifiers {sorted(mods)}")
        named = cls._NAMED.get(base)
        if named is not None:
            return MXConfig(named.element, name=named.name, **kwargs) if kwargs else named
        total, e, m = match.groups()
        if e is None:
            return _malformed(base, "mxfp<t>_e<E>m<M>")
        element = FloatSpec(f"FP{total}_E{e}M{m}", exponent_bits=int(e), mantissa_bits=int(m))
        if element.total_bits != int(total):
            raise UnknownFormatError(base, f"mxfp{total} needs e+m = {int(total) - 1}")
        return MXConfig(element, **kwargs)

    @classmethod
    def format_spec(cls, config) -> str:
        element = config.element
        base = f"mxfp{element.total_bits}"
        # MXFP4/MXFP8 have a single OCP element format, so the short name is
        # unambiguous; MXFP6 (and anything custom) spells the element out.
        if not any(element == named.element for named in (MXFP4, MXFP8)):
            base += f"_e{element.exponent_bits}m{element.mantissa_bits}"
        suffix = ""
        if config.block_size != 32:
            suffix += f"@b{config.block_size}"
        if config.scale_bits != 8:
            suffix += f"@s{config.scale_bits}"
        return base + suffix

    def quantize(self, x, axis=-1, rng=None):
        x = np.asarray(x, dtype=np.float64)
        return QuantizedTensor(self, quantize_mx(x, self.config, axis=axis), x.shape)

    def decode(self, payload):
        return payload.dequantize()

    @property
    def batch_separable(self):
        return True


def _rounds_deterministically(config) -> bool:
    # Stochastic rounding draws a fresh default_rng(0) per call when no rng is
    # given, so one batched call sees other draws than per-slice calls.
    return config.rounding is not RoundingMode.STOCHASTIC


def _malformed(base: str, expected: str):
    raise UnknownFormatError(base, f"expected {expected}")


def _block_suffix(config) -> str:
    return f"@b{config.block_size}" if config.block_size != 32 else ""


def _exponent_suffix(config) -> str:
    return f"@e{config.exponent_bits}" if config.exponent_bits != 5 else ""
