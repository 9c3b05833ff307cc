"""Shared configuration of the experiment drivers (fast mode, model subsets, schemes)."""

from __future__ import annotations

import dataclasses
import os

from repro.llm.perplexity import EvalConfig
from repro.llm.zoo import (LLAMA_FAMILY, NONLINEAR_FAMILY, OPT_FAMILY, default_corpus,
                            load_inference_model)
from repro.quant import parse_spec

__all__ = [
    "is_fast_mode",
    "serving_model_name",
    "load_serving_model",
    "replace_given",
    "eval_config",
    "table2_model_specs",
    "table4_model_specs",
    "fig8_model_specs",
    "format_ppl_model_specs",
    "experiment_model_specs",
    "TABLE2_LINEAR_FORMATS",
    "FIG8_STRATEGIES",
]

#: The linear-quantisation formats swept in Table II (besides the baselines),
#: written as spec strings and resolved through the single parser.
TABLE2_LINEAR_FORMATS = tuple(parse_spec(spec) for spec in (
    "bfp6",
    "bfp4",
    "bbfp(3,1)",
    "bbfp(4,2)",
    "bbfp(4,3)",
    "bbfp(6,3)",
    "bbfp(6,4)",
))

#: The strategies compared under iso-area in Fig. 8 / costed in Table III / Fig. 9.
#: "Oltron" / "Olive" name the accelerator baseline datapaths of
#: :mod:`repro.hardware.pe`, not registrable tensor formats.
FIG8_STRATEGIES = ("Oltron", "Olive") + tuple(parse_spec(spec) for spec in (
    "bfp4",
    "bfp6",
    "bbfp(3,1)",
    "bbfp(3,2)",
    "bbfp(4,2)",
    "bbfp(4,3)",
    "bbfp(6,3)",
    "bbfp(6,4)",
    "bbfp(6,5)",
))


def is_fast_mode(fast=None) -> bool:
    """Fast mode shrinks model sets and evaluation sizes (``REPRO_FAST=1``)."""
    if fast is not None:
        return bool(fast)
    return os.environ.get("REPRO_FAST", "0") == "1"


def serving_model_name(fast=None) -> str:
    """The zoo checkpoint the serving benchmarks and ``repro gateway`` serve.

    The one definition behind the ``serve_bench``, ``cluster_bench``,
    ``chaos_bench`` and ``gateway_bench`` drivers, the ``repro gateway`` CLI
    and the pipeline dependency declaration (:func:`experiment_model_specs`),
    so one ``zoo:<model>`` stage feeds all of them.
    """
    return "Llama-1B" if is_fast_mode(fast) else "Llama-7B"


def load_serving_model(fast=None) -> tuple:
    """Resolve fast mode and load the serving checkpoint on its corpus.

    Returns ``(fast_mode, model_name, corpus, model)``.
    """
    fast_mode = is_fast_mode(fast)
    model_name = serving_model_name(fast_mode)
    corpus = default_corpus(fast=fast_mode)
    return fast_mode, model_name, corpus, load_inference_model(model_name, corpus=corpus)


def replace_given(config, **overrides):
    """``dataclasses.replace(config, ...)`` with only the overrides that are not ``None``.

    A ``None`` keyword is a flag the caller left unset, so the default
    config's value stands.
    """
    return dataclasses.replace(config, **{name: value for name, value in overrides.items()
                                          if value is not None})


def eval_config(fast=None) -> EvalConfig:
    return EvalConfig(max_batches=2 if is_fast_mode(fast) else 4)


def table2_model_specs(fast=None):
    """The Table II model list: the full 12-model zoo, or 4 representatives in fast mode."""
    if is_fast_mode(fast):
        return (LLAMA_FAMILY[0], LLAMA_FAMILY[2], OPT_FAMILY[0], OPT_FAMILY[2])
    return LLAMA_FAMILY + OPT_FAMILY


def table4_model_specs(fast=None):
    """The Table IV model list (Llama-7B, Llama2-7B, Llama3-8B), or just Llama-7B in fast mode."""
    if is_fast_mode(fast):
        return (NONLINEAR_FAMILY[0],)
    return NONLINEAR_FAMILY


def fig8_model_specs(fast=None):
    """The Fig. 8 accuracy-half model list: the full zoo, or the 1B/3B tiers in fast mode."""
    if is_fast_mode(fast):
        return LLAMA_FAMILY[:2] + OPT_FAMILY[:2]
    return LLAMA_FAMILY + OPT_FAMILY


def format_ppl_model_specs(fast=None):
    """The ext_format_ppl model pair: one Llama-like and one OPT-like checkpoint."""
    if is_fast_mode(fast):
        return (LLAMA_FAMILY[0], OPT_FAMILY[0])
    return (LLAMA_FAMILY[2], OPT_FAMILY[2])


def experiment_model_specs(name, fast=None) -> tuple:
    """Paper names of the zoo checkpoints experiment ``name`` evaluates.

    This is the dependency declaration the pipeline scheduler consumes: every
    listed model becomes a shared upstream ``zoo:<model>`` training task, so
    concurrent experiments wait for (and never duplicate) the same training
    run.  Hardware-only experiments return an empty tuple.  Multi-model
    selections come from the same ``*_model_specs`` helpers the drivers call,
    and single-model entries are the drivers' ``model_name`` defaults
    (pinned by a consistency test in ``tests/pipeline/test_run.py``).
    """
    fast = is_fast_mode(fast)
    if name in ("fig1a", "fig3"):
        return ("OPT-6.7B",)
    if name == "fig4":
        return ("Llama-7B",)
    if name == "table2":
        return tuple(spec.paper_name for spec in table2_model_specs(fast))
    if name == "table4":
        return tuple(spec.paper_name for spec in table4_model_specs(fast))
    if name == "fig8":
        return tuple(spec.paper_name for spec in fig8_model_specs(fast))
    if name == "ext_format_ppl":
        return tuple(spec.paper_name for spec in format_ppl_model_specs(fast))
    if name == "ext_mixed_precision":
        return ("Llama-1B",)
    if name in ("serve_bench", "cluster_bench", "chaos_bench", "gateway_bench"):
        return (serving_model_name(fast),)
    return ()
