"""Tests for the quantisation-aware inference path."""

import numpy as np
import pytest

from repro.core.bbfp import BBFPConfig
from repro.core.blockfp import BFPConfig
from repro.core.integer import IntQuantConfig
from repro.llm.inference import InferenceModel, QuantizationScheme
from repro.llm.transformer import TransformerLM


class TestSchemeFactories:
    def test_fp_reference_is_identity(self, rng):
        scheme = QuantizationScheme.fp_reference()
        x = rng.standard_normal((3, 4))
        assert np.array_equal(scheme.weight_fn("any", x), x)
        assert np.array_equal(scheme.activation_fn("any", x), x)

    def test_fp16_rounds(self):
        scheme = QuantizationScheme.fp16()
        x = np.array([1.0 + 2**-13])
        assert scheme.weight_fn("w", x)[0] != x[0]

    @pytest.mark.parametrize("config", [BBFPConfig(4, 2), BFPConfig(6), IntQuantConfig(8)])
    def test_from_format_names(self, config):
        assert QuantizationScheme.from_format(config).name == config.name

    def test_from_format_accepts_spec_strings(self):
        scheme = QuantizationScheme.from_format("int8")
        assert scheme.name == "INT8"

    def test_from_format_rejects_unknown(self):
        from repro.quant import UnknownFormatError

        # Bad spec strings keep the registry's rich error (did-you-mean);
        # unregistered objects without a quantize_dequantize hook are a
        # TypeError as before.
        with pytest.raises(UnknownFormatError, match="unknown format"):
            QuantizationScheme.from_format("FANCY13")
        with pytest.raises(TypeError):
            QuantizationScheme.from_format(object())

    def test_with_nonlinear_override(self):
        calls = []

        def softmax_stub(x, axis=-1):
            calls.append(x.shape)
            exps = np.exp(x - x.max(axis=axis, keepdims=True))
            return exps / exps.sum(axis=axis, keepdims=True)

        scheme = QuantizationScheme.fp_reference().with_nonlinear(softmax_fn=softmax_stub)
        assert scheme.softmax_fn is softmax_stub


class TestInferenceModel:
    def test_matches_training_model_logits(self, tiny_model_config, tiny_training_result, rng):
        """The numpy inference path must reproduce the autograd forward exactly (FP reference)."""
        train_model = TransformerLM(tiny_model_config)
        train_model.load_state_dict(tiny_training_result.state_dict)
        infer_model = InferenceModel(tiny_model_config, tiny_training_result.state_dict)
        tokens = rng.integers(0, tiny_model_config.vocab_size, size=(2, 12))
        assert np.allclose(train_model.forward(tokens).data, infer_model.forward(tokens),
                           atol=1e-8)

    def test_outlier_injection_preserves_logits(self, tiny_model_config, tiny_training_result,
                                                tiny_state_dict, rng):
        plain = InferenceModel(tiny_model_config, tiny_training_result.state_dict)
        injected = InferenceModel(tiny_model_config, tiny_state_dict)
        tokens = rng.integers(0, tiny_model_config.vocab_size, size=(1, 16))
        assert np.allclose(plain.forward(tokens), injected.forward(tokens), atol=1e-6)

    def test_missing_state_rejected(self, tiny_model_config):
        with pytest.raises(KeyError):
            InferenceModel(tiny_model_config, {"token_embedding.weight": np.zeros((5, 4))})

    def test_sequence_length_guard(self, tiny_inference_model, rng):
        tokens = rng.integers(0, 10, size=(1, tiny_inference_model.config.max_seq_len + 1))
        with pytest.raises(ValueError):
            tiny_inference_model.forward(tokens)

    def test_token_ids_outside_vocabulary_rejected(self, tiny_inference_model):
        # -1 would otherwise embed the last vocabulary row without an error
        for bad in (-1, tiny_inference_model.config.vocab_size):
            with pytest.raises(ValueError, match="vocabulary"):
                tiny_inference_model.forward(np.array([[1, bad, 2]]))

    def test_quantised_scheme_changes_logits(self, tiny_inference_model, rng):
        tokens = rng.integers(0, tiny_inference_model.config.vocab_size, size=(1, 12))
        reference = tiny_inference_model.forward(tokens).copy()
        tiny_inference_model.set_scheme(QuantizationScheme.from_format(BFPConfig(4)))
        quantised = tiny_inference_model.forward(tokens)
        assert not np.allclose(reference, quantised)

    def test_weight_cache_cleared_on_scheme_change(self, tiny_inference_model, rng):
        tokens = rng.integers(0, tiny_inference_model.config.vocab_size, size=(1, 8))
        tiny_inference_model.set_scheme(QuantizationScheme.from_format(BFPConfig(4)))
        tiny_inference_model.forward(tokens)
        assert tiny_inference_model._weight_cache
        tiny_inference_model.set_scheme(QuantizationScheme.fp_reference())
        assert not tiny_inference_model._weight_cache

    @pytest.mark.parametrize("batch", [2, 3, 8, 16])
    @pytest.mark.parametrize("name", ["blocks.0.attention.q_proj", "blocks.1.mlp.down_proj",
                                      "lm_head"])
    def test_linear_is_one_gemm_over_all_rows(self, bench_shaped_model, name, batch):
        # A decode step's packed (batch, in) rows must be one GEMM, reading the
        # weight once: one GEMV per row would sum in another order, whose bits
        # differ from the GEMM's on these shapes.
        weight = bench_shaped_model.state[f"{name}.weight"]
        x = np.random.default_rng(batch).standard_normal((batch, weight.shape[0]))
        assert np.array_equal(bench_shaped_model._linear(name, x), x @ weight)

    @pytest.mark.parametrize("shape", [(0, 5), (2, 0), (0, 0)])
    def test_empty_batch_or_sequence_rejected(self, tiny_inference_model, shape):
        with pytest.raises(ValueError, match="non-empty"):
            tiny_inference_model.forward(np.zeros(shape, dtype=np.int64))

    def test_nll_reasonable(self, tiny_inference_model, small_corpus):
        batch = next(small_corpus.sequential_batches("valid", 2, 24, max_batches=1))
        nll = tiny_inference_model.negative_log_likelihood(batch)
        assert 0 < nll < np.log(small_corpus.vocab_size) + 0.5

    def test_record_activations(self, tiny_inference_model, rng):
        tokens = rng.integers(0, tiny_inference_model.config.vocab_size, size=(2, 8))
        with tiny_inference_model.record_activations(("q_proj", "gate_proj")) as records:
            tiny_inference_model.forward(tokens)
        assert any(name.endswith("q_proj") for name in records)
        assert any(name.endswith("gate_proj") for name in records)
        # one packed (batch * seq, d_model) record per layer call
        for tensors in records.values():
            assert [t.shape for t in tensors] == [(2 * 8, tiny_inference_model.config.d_model)]

    def test_recorder_detached_after_context(self, tiny_inference_model):
        with tiny_inference_model.record_activations():
            pass
        assert tiny_inference_model._recorder is None

    def test_nonlinear_fn_dispatch(self, tiny_inference_model, rng):
        seen = []

        def spy(kind, x):
            seen.append(kind)
            return np.maximum(x, 0.0)

        tiny_inference_model.set_scheme(
            QuantizationScheme.fp_reference().with_nonlinear(nonlinear_fn=spy)
        )
        tokens = rng.integers(0, tiny_inference_model.config.vocab_size, size=(1, 8))
        tiny_inference_model.forward(tokens)
        assert "silu" in seen  # llama-style MLP uses SiLU
