"""Format registry: one spec-string grammar, one dispatch path, one cache.

The registry maps each format *family* (``bbfp``, ``bfp``, ``int``,
``minifloat``, ``mx``, ``bie``, ...) to its :class:`~repro.quant.api.Quantizer`
subclass and provides the three entry points every call site uses:

``parse_spec(text)``
    Spec string -> configuration dataclass.  This is the single parser behind
    the CLI's format options, :meth:`QuantizationScheme.from_format`, the
    mixed-precision search and the experiment drivers.

``get_quantizer(spec_or_config)``
    Spec string, configuration or quantizer -> memoized :class:`Quantizer`
    instance.  Hot loops (perplexity evaluation, overlap search) resolve the
    same spec thousands of times; the cache makes that a dictionary lookup.

``spec_of(config)``
    Configuration -> canonical spec string (the inverse of ``parse_spec``).

Unknown or malformed specs raise :class:`UnknownFormatError` (a
``ValueError``, so ``argparse`` converts it into a clean usage error) with a
did-you-mean suggestion computed over the registered example specs.
"""

from __future__ import annotations

import argparse
import difflib
import importlib
import re
import sys
import threading

from repro.quant.api import Quantizer

__all__ = [
    "UnknownFormatError",
    "register_format",
    "parse_spec",
    "get_quantizer",
    "spec_of",
    "family_of",
    "list_formats",
    "registered_families",
    "clear_cache",
]


class UnknownFormatError(ValueError, argparse.ArgumentTypeError):
    """Raised for a spec string no registered family accepts (or a malformed one).

    Subclasses both :class:`ValueError` and :class:`argparse.ArgumentTypeError`
    so ``argparse`` ``type=`` callables turn it into a clean usage error that
    keeps the did-you-mean suggestion.
    """

    def __init__(self, spec, reason: str = None):
        self.spec = spec
        self.reason = reason
        message = f"unknown format {spec!r}"
        if reason:
            # The family was recognised but the body/modifiers are malformed;
            # a similarity suggestion would only repeat the family name.
            message += f": {reason}"
        else:
            suggestion = _closest_spec(spec) if isinstance(spec, str) else None
            if suggestion:
                message += f" (did you mean {suggestion!r}?)"
        super().__init__(message)


#: family name -> Quantizer subclass, in registration (i.e. parse-priority) order.
_FAMILIES: dict = {}
#: configuration class -> Quantizer subclass.
_BY_CONFIG_TYPE: dict = {}
#: Modules registering additional (non-core) families, imported on first miss.
_LAZY_MODULES = ["repro.quant.baseline_formats"]
_LAZY_LOCK = threading.Lock()

#: normalised spec string -> Quantizer instance.
_SPEC_CACHE: dict = {}
#: configuration -> Quantizer instance.
_CONFIG_CACHE: dict = {}

#: A modifier is a letter key plus an optional numeric value; the value must
#: start with a digit and may use float/scientific notation (``c1e-05``).
_MOD_TOKEN = re.compile(r"^([a-z]+)(\d[0-9.e+-]*)?$")
_INT_VALUE = re.compile(r"^\d+$")


def register_format(family: str, config_type: type, example_specs=()):
    """Class decorator registering a :class:`Quantizer` subclass for a family.

    Registration order is parse priority — register ``bbfp`` before ``bfp``
    so prefix-overlapping grammars resolve deterministically.
    """

    def decorate(cls):
        if not (isinstance(cls, type) and issubclass(cls, Quantizer)):
            raise TypeError(f"@register_format expects a Quantizer subclass, got {cls!r}")
        if family in _FAMILIES:
            raise ValueError(f"format family {family!r} is already registered")
        cls.family = family
        cls.config_type = config_type
        cls.example_specs = tuple(example_specs)
        _FAMILIES[family] = cls
        _BY_CONFIG_TYPE[config_type] = cls
        return cls

    return decorate


def _load_lazy_modules():
    """Import deferred registration modules (baselines) exactly once.

    A module is only dropped from the queue after a *successful* import, so a
    transient import failure surfaces again on the next lookup instead of
    silently degrading into "unknown format" forever.  Registrations made by
    a partially-executed module are rolled back on failure so the retry does
    not trip over "already registered".
    """
    with _LAZY_LOCK:
        while _LAZY_MODULES:
            before = set(_FAMILIES)
            try:
                importlib.import_module(_LAZY_MODULES[0])
            except BaseException:
                for family in set(_FAMILIES) - before:
                    cls = _FAMILIES.pop(family)
                    _BY_CONFIG_TYPE.pop(cls.config_type, None)
                sys.modules.pop(_LAZY_MODULES[0], None)
                raise
            _LAZY_MODULES.pop(0)


def _normalise(spec: str) -> str:
    return spec.strip().lower().replace(" ", "")


def _split_modifiers(text: str, spec: str):
    """Split ``base@mod1@mod2`` into the base spec and a modifier dict.

    Modifiers are single-letter keys with a numeric value (``b32`` block
    size, ``e4`` exponent bits, ``k3`` outlier count, ``s8`` scale bits,
    ``c0.9`` clip ratio, ``g128`` group size) or bare flags (``pc``
    per-channel, ``pt`` per-tensor).
    """
    base, *raw_mods = text.split("@")
    mods = {}
    for token in raw_mods:
        match = _MOD_TOKEN.match(token)
        if not match:
            raise UnknownFormatError(spec, f"bad modifier {token!r}")
        key, value = match.groups()
        if value is None:
            mods[key] = True
        elif _INT_VALUE.match(value):
            mods[key] = int(value)
        else:
            try:
                mods[key] = float(value)
            except ValueError:
                raise UnknownFormatError(spec, f"bad modifier {token!r}") from None
    return base, mods


def _closest_spec(spec: str):
    """Did-you-mean candidate for an unknown spec, or ``None``."""
    candidates = []
    for cls in _FAMILIES.values():
        candidates.extend(cls.example_specs)
        candidates.append(cls.family)
    matches = difflib.get_close_matches(_normalise(spec), candidates, n=1, cutoff=0.5)
    return matches[0] if matches else None


def parse_spec(spec: str):
    """Parse a spec string into the configuration dataclass of its family.

    The grammar (case-insensitive, whitespace-insensitive)::

        BBFP(m,o)  BBFP(m,o,e)      bbfp(4,2)       bidirectional BFP
        BFP<m>                      bfp8@b32        block floating point
        INT<b>                      int8  int8@pc   symmetric integer
        FP<t>[_e<E>m<M>]            fp16  fp8_e4m3  minifloat
        MXFP<t>[_e<E>m<M>]          mxfp4  mxfp6_e3m2  OCP microscaling
        BiE<m>[(k=<K>)]             bie4  bie4@k3   bi-exponent BFP

    with optional ``@`` modifiers: ``@b<N>`` block size, ``@e<N>`` shared
    exponent bits, ``@k<N>`` BiE outlier count, ``@s<N>`` MX scale bits,
    ``@c<R>`` INT clip ratio, ``@pc`` / ``@pt`` INT granularity.
    """
    if isinstance(spec, Quantizer):
        return spec.config
    if not isinstance(spec, str):
        raise UnknownFormatError(spec, "spec must be a string")
    text = _normalise(spec)
    if not text:
        raise UnknownFormatError(spec, "empty spec")
    base, mods = _split_modifiers(text, spec)

    def attempt():
        for cls in _FAMILIES.values():
            try:
                config = cls.try_parse(base, dict(mods))
            except UnknownFormatError as error:
                # Re-attribute malformed-body errors to the user's original
                # spelling (try_parse only sees the stripped base).
                raise UnknownFormatError(spec, error.reason or str(error)) from None
            except (ValueError, TypeError) as error:
                # Config __post_init__ validation (e.g. "mantissa_bits must
                # be >= 1" for "bfp0") funnels into the one error type too.
                raise UnknownFormatError(spec, str(error)) from None
            if config is not None:
                return config
        return None

    config = attempt()
    if config is None:
        _load_lazy_modules()
        config = attempt()
    if config is None:
        raise UnknownFormatError(spec)
    return config


def get_quantizer(spec_or_config) -> Quantizer:
    """Resolve a spec string / configuration / quantizer into a memoized quantizer.

    The same spec string (modulo case and whitespace) and the same (equal)
    configuration always return the *same instance*, so per-block hot loops
    pay one dictionary lookup instead of a parse plus a construction.
    """
    if isinstance(spec_or_config, Quantizer):
        return spec_or_config
    if isinstance(spec_or_config, str):
        key = _normalise(spec_or_config)
        quantizer = _SPEC_CACHE.get(key)
        if quantizer is None:
            quantizer = get_quantizer(parse_spec(spec_or_config))
            _SPEC_CACHE[key] = quantizer
        return quantizer

    config = spec_or_config
    # Display names are excluded from config equality (FloatSpec, MXConfig)
    # but must not be merged by the cache, or the first label seen would win
    # every later lookup's display name; key on (config, label).
    key = (config, getattr(config, "name", None))
    try:
        quantizer = _CONFIG_CACHE.get(key)
    except TypeError:  # unhashable pseudo-config: construct without caching
        return _quantizer_class_for(type(config))(config)
    if quantizer is None:
        quantizer = _quantizer_class_for(type(config))(config)
        _CONFIG_CACHE[key] = quantizer
    return quantizer


def _quantizer_class_for(config_type: type):
    cls = _BY_CONFIG_TYPE.get(config_type)
    if cls is None:
        _load_lazy_modules()
        cls = _BY_CONFIG_TYPE.get(config_type)
    if cls is None:
        for registered_type, registered_cls in _BY_CONFIG_TYPE.items():
            if issubclass(config_type, registered_type):
                return registered_cls
        raise UnknownFormatError(
            config_type.__name__, "no registered quantizer for this configuration type"
        )
    return cls


def spec_of(config) -> str:
    """Canonical spec string of a configuration (inverse of :func:`parse_spec`)."""
    if isinstance(config, Quantizer):
        return config.spec
    return _quantizer_class_for(type(config)).format_spec(config)


def registered_families(include_lazy: bool = True) -> tuple:
    """Names of every registered format family, in parse-priority order."""
    if include_lazy:
        _load_lazy_modules()
    return tuple(_FAMILIES)


def family_of(config_or_spec) -> str:
    """Family name (registry key) of a configuration or spec string."""
    if isinstance(config_or_spec, str):
        config_or_spec = parse_spec(config_or_spec)
    if isinstance(config_or_spec, Quantizer):
        return config_or_spec.family
    return _quantizer_class_for(type(config_or_spec)).family


def list_formats() -> list:
    """One row per registered family: name, config type and example specs."""
    _load_lazy_modules()
    return [
        {
            "family": cls.family,
            "config_type": cls.config_type.__name__,
            "example_specs": list(cls.example_specs),
        }
        for cls in _FAMILIES.values()
    ]


def clear_cache():
    """Drop all memoized quantizer instances (used by tests and benchmarks)."""
    _SPEC_CACHE.clear()
    _CONFIG_CACHE.clear()
