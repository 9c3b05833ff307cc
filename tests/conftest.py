"""Shared fixtures: deterministic RNG, a small corpus and a tiny trained model.

The heavier fixtures are session-scoped so the cost of training the tiny
reference model (a couple of seconds) is paid once per test run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.llm.config import ModelConfig
from repro.llm.dataset import CorpusConfig, SyntheticCorpus
from repro.llm.inference import InferenceModel
from repro.llm.outliers import LLAMA_PROFILE, inject_outliers
from repro.llm.training import TrainingConfig, train_model
from repro.llm.transformer import TransformerLM


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the pipeline's result cache at a per-test directory.

    Without this, a test running ``repro run`` (directly or through the CLI)
    would read and write the repository's ``.cache/results/``: stale entries
    from a developer's earlier run could mask a driver regression.
    """
    monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path / "result-cache"))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def outlier_tensor(rng):
    """A 1-D tensor with injected outliers — the typical LLM activation shape."""
    x = rng.standard_normal(2048)
    x[::128] *= 30.0
    return x


@pytest.fixture(scope="session")
def small_corpus():
    return SyntheticCorpus(CorpusConfig(num_sentences=500, seed=7))


@pytest.fixture(scope="session")
def tiny_model_config(small_corpus):
    return ModelConfig(
        name="tiny-llama",
        vocab_size=small_corpus.vocab_size,
        d_model=32,
        n_heads=4,
        n_layers=2,
        d_ff=64,
        max_seq_len=64,
        arch="llama",
        seed=3,
    )


@pytest.fixture(scope="session")
def tiny_opt_config(small_corpus):
    return ModelConfig(
        name="tiny-opt",
        vocab_size=small_corpus.vocab_size,
        d_model=32,
        n_heads=4,
        n_layers=2,
        d_ff=64,
        max_seq_len=64,
        arch="opt",
        seed=4,
    )


@pytest.fixture(scope="session")
def tiny_training_result(tiny_model_config, small_corpus):
    return train_model(
        tiny_model_config,
        small_corpus,
        TrainingConfig(steps=60, batch_size=4, seq_len=32, eval_every=0, seed=0),
    )


@pytest.fixture(scope="session")
def tiny_state_dict(tiny_training_result, tiny_model_config):
    return inject_outliers(tiny_model_config, tiny_training_result.state_dict, LLAMA_PROFILE)


@pytest.fixture
def tiny_inference_model(tiny_model_config, tiny_state_dict):
    return InferenceModel(tiny_model_config, tiny_state_dict)


@pytest.fixture(scope="session")
def bench_shaped_state():
    """Random weights of the serving benchmarks' fast-model shape (``perfbench/``).

    Its linears are wide enough that, on OpenBLAS, numpy's per-row GEMV and a
    GEMM over all rows sum in different orders, so batching moves the last bits.
    """
    config = ModelConfig(name="bench-shaped", vocab_size=64, d_model=128, n_heads=4,
                         n_layers=3, d_ff=384, max_seq_len=160, arch="llama", seed=0)
    return config, TransformerLM(config).state_dict()


@pytest.fixture
def bench_shaped_model(bench_shaped_state):
    return InferenceModel(*bench_shaped_state)
